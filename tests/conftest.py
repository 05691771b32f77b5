import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vcsndp.instance import Instance, pair


def random_graph(n, edge_prob, rng, cost_lo=1, cost_hi=9):
    edges = [
        (u, v, Fraction(rng.randint(cost_lo, cost_hi)))
        for u in range(n) for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return Instance(n=n, edges=tuple(edges))


def triangle(r=2):
    """Unit-cost triangle on {0,1,2}; requirement r(0,1)=r."""
    return Instance(
        3, ((0, 1, Fraction(1)), (0, 2, Fraction(1)), (2, 1, Fraction(1))),
        {pair(0, 1): r})


def c4(r=2):
    """Unit-cost 4-cycle with the opposite pair (0,2) required."""
    return Instance(
        4, ((0, 1, Fraction(1)), (1, 2, Fraction(1)),
            (2, 3, Fraction(1)), (3, 0, Fraction(1))),
        {pair(0, 2): r})


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(argv, limit, timeout):
    """Run `python *argv` with src on PYTHONPATH in a child process whose
    address space RLIMIT_AS caps at `limit` bytes; the limit binds the
    child only. Returns the CompletedProcess, text captured."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv], preexec_fn=cap, capture_output=True,
        text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": path})


def run_cli_capped(args, limit=1 << 30, timeout=120):
    """Run the vcsndp CLI on `args` in a capped child (see _run_python).
    For inputs that could allocate without bound: past the cap the child
    fails instead of the machine."""
    return _run_python(["-m", "vcsndp.cli", *map(str, args)], limit, timeout)


def run_python_child(code, limit=1 << 30, timeout=120):
    """Run the Python source `code` in a capped child (see _run_python),
    with a fresh sys.modules."""
    return _run_python(["-c", code], limit, timeout)
