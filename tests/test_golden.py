"""Golden pins on the exact-valued outputs of `solve`.

Solution edge ids, exact cost, `cost_bound_2p_lb`, per-class edge ids and
each class's multiplicity, terminals and active pairs, for three
criterion-2 instances (general mode) and one wheel instance (single-source
mode, where the source 0 joins every class), all at `--seed 11` with both
checks on. Float fields are left out so the pins do not depend on LP
rounding noise.
A refactor must keep these; a deliberate change to them belongs in
CHANGES.md with the reason.
"""

import json
import random

import pytest

from vcsndp.cli import run
from vcsndp.errors import GenerationError
from vcsndp.generate import generate_instance
from vcsndp.instance import Instance, pair, write_instance


def _criterion2(count):
    rng = random.Random(2)
    out, seed = [], 0
    while len(out) < count:
        seed += 1
        try:
            inst = generate_instance("erdos-renyi", rng.randint(6, 14), 0.4,
                                     3, 3, (1, 9), seed=seed)
        except GenerationError:
            continue
        if inst.m <= 25:
            out.append(inst)
    return out


def _wheel():
    graph = generate_instance("wheel", 9, None, 1, 1, (1, 9), seed=7)
    return Instance(n=9, edges=graph.edges, requirements={
        pair(0, 2): 3, pair(0, 5): 2, pair(0, 7): 3})


GOLDEN = {
    "er0": ("general", [0, 1, 2, 3, 4], "14", "5824",
            [[0], [2], [0, 1, 2, 3, 4], [0, 2], [0, 1, 2, 3, 4],
             [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]),
    "er1": ("general", [0, 1, 3, 4, 5, 6], "36", "6408",
            [[0, 1, 5], [0, 1, 3, 4, 5], [0, 1, 3, 4, 5], [6], [0, 1, 5],
             [1, 5], [0, 1, 3, 4, 5]]),
    "er2": ("general", [0, 2, 3, 4, 5], "14", "4984",
            [[3, 4], [0, 2, 4], [3, 4, 5], [3, 5], [0, 2, 3, 4],
             [0, 2, 3, 4, 5]]),
    "wheel": ("single-source",
              [0, 1, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15], "53", "2808",
              [[1, 4, 6, 8, 12, 13, 14, 15], [3, 4, 11],
               [0, 1, 4, 8, 9, 10, 11], [0, 1, 3, 8, 9, 10],
               [4, 6, 7, 12, 13, 14]]),
}

# per class: (multiplicity, terminals, active pairs as [u, v, r])
CLASSES = {
    "er0": [(25, [0, 1], [[0, 1, 1]]), (14, [1, 5], [[1, 5, 1]]),
            (22, [2, 4], [[2, 4, 1]]),
            (10, [0, 1, 5], [[0, 1, 1], [1, 5, 1]]),
            (2, [1, 2, 4, 5], [[1, 5, 1], [2, 4, 1]]),
            (3, [0, 1, 2, 4, 5], [[0, 1, 1], [1, 5, 1], [2, 4, 1]]),
            (4, [0, 1, 2, 4], [[0, 1, 1], [2, 4, 1]])],
    "er1": [(9, [3, 6], [[3, 6, 1]]),
            (8, [3, 5, 6], [[3, 6, 1], [5, 6, 1]]),
            (9, [0, 5, 6], [[0, 6, 1], [5, 6, 1]]),
            (8, [5, 6], [[5, 6, 1]]),
            (5, [0, 3, 6], [[0, 6, 1], [3, 6, 1]]),
            (12, [0, 6], [[0, 6, 1]]),
            (7, [0, 3, 5, 6], [[0, 6, 1], [3, 6, 1], [5, 6, 1]])],
    "er2": [(12, [2, 4], [[2, 4, 1]]), (17, [4, 6], [[4, 6, 1]]),
            (8, [2, 4, 5], [[2, 4, 1], [2, 5, 1]]),
            (18, [2, 5], [[2, 5, 1]]),
            (5, [2, 4, 6], [[2, 4, 1], [4, 6, 1]]),
            (7, [2, 4, 5, 6], [[2, 4, 1], [2, 5, 1], [4, 6, 1]])],
    "wheel": [(7, [0, 7], [[0, 7, 3]]), (4, [0, 5], [[0, 5, 2]]),
              (3, [0, 2, 5], [[0, 2, 3], [0, 5, 2]]),
              (5, [0, 2], [[0, 2, 3]]),
              (2, [0, 5, 7], [[0, 5, 2], [0, 7, 3]])],
}


def _cases():
    cases = {f"er{i}": (inst, ["--single-source", "off"])
             for i, inst in enumerate(_criterion2(3))}
    cases["wheel"] = (_wheel(), [])
    return cases


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solve_exact_outputs_are_pinned(name, tmp_path):
    inst, flags = _cases()[name]
    path = tmp_path / "inst.txt"
    path.write_text(write_instance(inst))
    report = tmp_path / "report.json"
    code = run(["solve", str(path), "--seed", "11", "--verify",
                "--verify-family", "--json", str(report), *flags])
    assert code == 0
    rep = json.loads(report.read_text())
    mode, edges, cost, bound, classes = GOLDEN[name]
    assert rep["mode"] == mode
    assert rep["solution"]["edge_ids"] == edges
    assert rep["solution"]["cost"]["exact"] == cost
    assert rep["cost_bound_2p_lb"]["exact"] == bound
    assert [rec["edge_ids"] for rec in rep["per_instance"]] == classes
    assert [(rec["multiplicity"], rec["terminals"], rec["active_pairs"])
            for rec in rep["per_instance"]] == CLASSES[name]
