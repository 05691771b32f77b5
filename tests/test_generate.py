import random

import pytest

from vcsndp.connectivity import vertex_connectivity_pair
from vcsndp.errors import GenerationError
from vcsndp.generate import _pair_at, generate_instance
from vcsndp.instance import Instance


def test_deterministic():
    a = generate_instance("erdos-renyi", 8, 0.5, 2, 3, (1, 10), seed=42)
    b = generate_instance("erdos-renyi", 8, 0.5, 2, 3, (1, 10), seed=42)
    assert a == b
    c = generate_instance("erdos-renyi", 8, 0.5, 2, 3, (1, 10), seed=43)
    assert a != c


def test_wheel_requirement_clamped():
    inst = generate_instance("wheel", 5, None, 3, 1, (1, 5), seed=7)
    ((pr, r),) = inst.requirements.items()
    u, v = sorted(pr)
    graph = Instance(inst.n, inst.edges)
    assert 1 <= r <= vertex_connectivity_pair(graph, u, v).value


@pytest.mark.parametrize("model,param", [
    ("erdos-renyi", 0.4), ("grid", 3), ("wheel", None)])
def test_all_requirements_clamped(model, param):
    for seed in range(5):
        try:
            inst = generate_instance(model, 9, param, 3, 4, (1, 9), seed=seed)
        except GenerationError:
            continue
        graph = Instance(inst.n, inst.edges)
        for pr, r in inst.requirements.items():
            u, v = sorted(pr)
            assert r <= vertex_connectivity_pair(graph, u, v).value


def test_sparse_graph_drops_disconnected_pairs_or_errors():
    # near-empty random graphs: requirements never exceed 0-connectivity,
    # so pairs are dropped and generation may fail outright
    failures = 0
    for seed in range(10):
        try:
            inst = generate_instance(
                "erdos-renyi", 8, 0.05, 2, 3, (1, 5), seed=seed)
        except GenerationError:
            failures += 1
            continue
        graph = Instance(inst.n, inst.edges)
        for pr, r in inst.requirements.items():
            u, v = sorted(pr)
            assert vertex_connectivity_pair(graph, u, v).value >= r
    assert failures > 0


def test_argument_validation():
    with pytest.raises(ValueError):
        generate_instance("erdos-renyi", 1, 0.5, 1, 1, (1, 2), seed=0)
    with pytest.raises(ValueError):
        generate_instance("erdos-renyi", 4, 0.5, 0, 1, (1, 2), seed=0)
    with pytest.raises(ValueError):
        generate_instance("nonesuch", 4, 0.5, 1, 1, (1, 2), seed=0)
    with pytest.raises(ValueError):
        generate_instance("erdos-renyi", 4, 0.5, 1, 1, (5, 2), seed=0)
    # `parse_instance` refuses a cost of 10**20 or more
    with pytest.raises(ValueError, match=r"not below 10\*\*20"):
        generate_instance("erdos-renyi", 4, 0.5, 1, 1,
                          (10**20, 10**20 + 1), seed=0)


def test_pairs_drawn_as_from_the_list_of_all_pairs():
    # generate_instance samples pair indices and maps each back to its
    # pair; sampling the listed pairs is the reference, draws and state
    for n in range(2, 41):
        listed = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert [_pair_at(i, n) for i in range(len(listed))] == listed
        for seed in range(5):
            for count in (1, 3, 7, 1000):
                ours, ref = random.Random(seed), random.Random(seed)
                k = min(count, len(listed))
                assert ([_pair_at(i, n)
                         for i in ours.sample(range(len(listed)), k)]
                        == ref.sample(listed, k))
                assert ours.getstate() == ref.getstate()
