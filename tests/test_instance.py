from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vcsndp.connectivity import verify_vc_solution
from vcsndp.element import induce_element_instance
from vcsndp.errors import ParseError
from vcsndp.instance import (
    EdgeSolution,
    Instance,
    derive_terminals,
    format_cost,
    pair,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)


def test_parse_minimal():
    inst = parse_instance("graph 2 1\nedge 0 1 5\nreq 0 1 1\n")
    assert inst.n == 2
    assert inst.edges == ((0, 1, Fraction(5)),)
    assert inst.requirements == {pair(0, 1): 1}
    assert inst.k == 1


def test_parse_no_requirements():
    inst = parse_instance("graph 3 0\n")
    assert inst.requirements == {}
    assert inst.k == 0


def test_parse_comments_and_blanks():
    text = "# a comment\ngraph 2 1\n\nedge 0 1 2.5  # trailing\nreq 0 1 1\n"
    inst = parse_instance(text)
    assert inst.edges[0][2] == Fraction(5, 2)


@pytest.mark.parametrize("text,fragment,line", [
    ("graph 2 1\nedge 0 0 1\n", "self-loop", 2),
    ("graph 2 1\nedge 0 5 1\n", "out of range", 2),
    ("graph 2 1\nedge 0 1 -2\nreq 0 1 1\n", "negative", 2),
    ("graph 2 0\nreq 0 1 1\nreq 1 0 2\n", "duplicate", 3),
    ("graph 2 0\nreq 0 1 0\n", ">= 1", 2),
    ("graph 2 0\nbogus 1 2\n", "unknown directive", 2),
    # the LP solver reads a cost of 1e20 or more as infinite
    ("graph 2 1\nedge 0 1 1e400\n", "not below 10**20", 2),
    ("graph 2 1\n\nedge 0 1 123456789012345678901234567890/7\n",
     "not below 10**20", 3),
    # the smallest integer whose float rounds to 1e20
    ("graph 2 1\nedge 0 1 99999999999999991808\n",
     "cost 99999999999999991808 is not below 10**20 as a float", 2),
    ("", "empty input", None),
])
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert fragment in str(exc.value)
    assert exc.value.line_no == line


def test_derive_terminals():
    inst = parse_instance("graph 3 0\nreq 0 1 2\n")
    assert derive_terminals(inst) == {0, 1}
    assert derive_terminals(parse_instance("graph 3 0\n")) == frozenset()
    inst2 = parse_instance("graph 3 0\nreq 0 1 1\nreq 1 2 3\n")
    assert derive_terminals(inst2) == {0, 1, 2}
    assert inst2.k == 3


def test_parallel_edges_allowed():
    inst = parse_instance("graph 2 2\nedge 0 1 1\nedge 0 1 3\n")
    assert inst.m == 2
    assert inst.total_cost([0, 1]) == 4


def test_roundtrip_examples():
    for text in [
        "graph 2 1\nedge 0 1 5\nreq 0 1 1\n",
        "graph 3 0\n",
        "graph 4 2\nedge 0 1 0.25\nedge 2 3 1/3\nreq 0 3 2\nreq 1 2 1\n",
        # the largest integer cost whose float is below 1e20
        "graph 2 1\nedge 0 1 99999999999999991807\n",
    ]:
        inst = parse_instance(text)
        assert parse_instance(write_instance(inst)) == inst


costs = st.fractions(min_value=0, max_value=1000)
# runs of spaces and tabs go between fields; \r and \x0b end a line for
# str.splitlines, so they go only around a line, where they add blank lines
GAPS = st.text(" \t", min_size=1, max_size=3)
PADS = st.text(" \t\r\x0b", max_size=3)
TAILS = st.one_of(st.just(""), st.text(" \t#ab", max_size=4).map("#".__add__))


def mutated(data, text):
    """`text` with whitespace runs between and around the fields of each
    line, '#' comments after some lines, and blank lines between them."""
    out = []
    for line in text.splitlines():
        if data.draw(st.booleans()):
            out.append(data.draw(PADS) + data.draw(TAILS))
        fields = line.split(" ")
        body = fields[0]
        for f in fields[1:]:
            body += data.draw(GAPS) + f
        out.append(data.draw(PADS) + body + data.draw(PADS)
                   + data.draw(TAILS))
    return "\n".join(out) + data.draw(st.sampled_from(["", "\n", "\r\n"]))


@given(st.data())
def test_roundtrip_property(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    m = data.draw(st.integers(min_value=0, max_value=10))
    edges = tuple(
        (u, v, data.draw(costs))
        for u, v in (
            sorted(data.draw(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True)))
            for _ in range(m)
        )
    )
    npairs = data.draw(st.integers(min_value=0, max_value=3))
    reqs = {}
    for _ in range(npairs):
        u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True))
        reqs[pair(u, v)] = data.draw(st.integers(1, 4))
    inst = Instance(n=n, edges=edges, requirements=reqs)
    text = write_instance(inst)
    assert parse_instance(text) == inst
    assert parse_instance(mutated(data, text)) == inst
    sol = EdgeSolution.of(inst, data.draw(st.sets(st.sampled_from(
        range(m)) if m else st.nothing())))
    text = write_solution(sol)
    assert parse_solution(text, inst) == sol
    assert parse_solution(mutated(data, text), inst) == sol


@given(costs)
def test_cost_format_roundtrip(c):
    assert Fraction(format_cost(c)) == c


def test_solution_roundtrip():
    inst = parse_instance("graph 3 3\nedge 0 1 1\nedge 1 2 2\nedge 0 2 0.5\n")
    sol = EdgeSolution.of(inst, [0, 2])
    assert sol.cost == Fraction(3, 2)
    assert parse_solution(write_solution(sol), inst) == sol


def test_solution_cost_mismatch_rejected():
    inst = parse_instance("graph 2 1\nedge 0 1 5\n")
    with pytest.raises(ParseError, match="declared cost"):
        parse_solution("solution 1 4\n0\n", inst)


def test_solution_repeated_edge_id_rejected():
    inst = parse_instance("graph 2 1\nedge 0 1 5\n")
    with pytest.raises(ParseError, match="line 3: repeated edge id 0"):
        parse_solution("solution 2 5\n0\n0\n", inst)


def test_instance_invariants():
    with pytest.raises(ValueError):
        Instance(2, ((0, 0, Fraction(1)),))
    with pytest.raises(ValueError):
        Instance(2, ((0, 1, Fraction(-1)),))
    with pytest.raises(ValueError):
        Instance(2, (), {pair(0, 5): 1})


def test_every_reader_walks_the_pairs_in_one_order():
    # inserted out of order, with ids past 9 so that a text sort would differ
    reqs = {pair(10, 2): 1, pair(3, 1): 2, pair(1, 10): 1, pair(2, 3): 3,
            pair(0, 11): 2, pair(1, 2): 1}
    edges = tuple((u, v, Fraction(1)) for u in range(12)
                  for v in range(u + 1, 12))
    inst = Instance(12, edges, reqs)
    assert inst.pairs == ((0, 11, 2), (1, 2, 1), (1, 3, 2), (1, 10, 1),
                          (2, 3, 3), (2, 10, 1))
    written = [tuple(map(int, line.split()[1:]))
               for line in write_instance(inst).splitlines()
               if line.startswith("req ")]
    assert tuple(written) == inst.pairs
    report = verify_vc_solution(inst, EdgeSolution.of(inst, range(inst.m)))
    assert tuple((p.u, p.v, p.required) for p in report.pairs) == inst.pairs
    for subset in ({1, 2, 3}, {2, 3, 10}, {0, 1, 10, 11}, {3}):
        ei = induce_element_instance(inst, derive_terminals(inst), subset)
        assert ei.pairs == tuple(t for t in inst.pairs if {*t[:2]} <= subset)
