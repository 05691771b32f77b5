"""Random benchmark instances: Erdos-Renyi, grid, and wheel graphs.

Every emitted requirement is clamped to the pair's vertex connectivity in
the generated graph, so instances are feasible by construction.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .connectivity import vertex_connectivity_pair
from .errors import GenerationError
from .instance import Instance, lp_cost_ok, pair

MODELS = ("erdos-renyi", "grid", "wheel")


def _model_edges(model: str, n: int, edge_param: float | None,
                 rng: random.Random) -> list[tuple[int, int]]:
    if model == "erdos-renyi":
        p = 0.5 if edge_param is None else float(edge_param)
        if not (0 <= p <= 1):
            raise ValueError(f"edge probability {p} outside [0,1]")
        return [(u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < p]
    if model == "grid":
        if edge_param and not 1 <= edge_param < math.inf:
            raise ValueError(f"grid width {edge_param} is not a finite "
                             f"number >= 1")
        width = int(edge_param) if edge_param else max(2, math.isqrt(n))
        out = []
        for w in range(n):
            r, c = divmod(w, width)
            if c + 1 < width and w + 1 < n:
                out.append((w, w + 1))
            if w + width < n:
                out.append((w, w + width))
        return out
    if model == "wheel":
        # hub 0, rim cycle 1..n-1
        if n < 4:
            raise ValueError("wheel needs n >= 4")
        rim = list(range(1, n))
        out = [(0, w) for w in rim]
        out += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
        return out
    raise ValueError(f"unknown model '{model}', expected one of {MODELS}")


def _pair_at(i: int, n: int) -> tuple[int, int]:
    """The i-th pair (u, v), u < v < n, in row-major order."""
    # counted back from the last pair, the last j rows hold positions 0 to
    # j(j+1)/2 - 1; the largest j within `back` leaves the pair in row
    # n-2-j, the row just before them
    back = n * (n - 1) // 2 - 1 - i
    j = (math.isqrt(8 * back + 1) - 1) // 2
    return n - 2 - j, n - 1 - (back - j * (j + 1) // 2)


def generate_instance(
    model: str, n: int, edge_param: float | None, k: int,
    num_pairs: int, cost_range: tuple[int, int], seed: int,
) -> Instance:
    """Deterministic instance from (model, n, edge_param, k, num_pairs,
    cost_range, seed); requirements are clamped to actual connectivity."""
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    lo, hi = cost_range
    if not (0 <= lo <= hi):
        raise ValueError("bad cost range")
    if not lp_cost_ok(hi):
        # the file could not be read back: parse_instance refuses the cost
        raise ValueError(f"cost {hi} is not below 10**20 as a float")
    rng = random.Random(seed)
    raw = _model_edges(model, n, edge_param, rng)
    edges = tuple((u, v, Fraction(rng.randint(lo, hi))) for u, v in raw)
    graph = Instance(n=n, edges=edges)

    # the same draws as sampling the list of all pairs in row-major order,
    # without listing them
    count = n * (n - 1) // 2
    chosen = rng.sample(range(count), min(num_pairs, count))
    wanted = [(*_pair_at(i, n), rng.randint(1, k)) for i in chosen]

    requirements = {}
    for u, v, r in wanted:
        kappa = int(vertex_connectivity_pair(graph, u, v).value)
        if kappa >= 1:
            requirements[pair(u, v)] = min(r, kappa)
    if not requirements:
        raise GenerationError(
            f"no connected requirement pair found (model={model}, n={n}, "
            f"seed={seed}); regenerate with another seed or denser graph")
    return Instance(n=n, edges=edges, requirements=requirements)
