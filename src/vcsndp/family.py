"""Random covering families of terminal subsets.

Each terminal draws q indices from {1..p} with replacement; subset T_i
collects the terminals that drew index i. A family is "good" when every
source-sink pair (general mode) or every terminal (single-source mode)
has, for each blocking set X of fewer than k terminals, some subset
containing it and disjoint from X. Parameters follow q = ceil(64 k^2 ln b)
(general) or q = ceil(2 k ln b) (single-source) with p = 2kq, the natural-
log reading that keeps the Chernoff failure bounds at b^(-2k).

phi is the stored field; the goodness check and `common_indices`, which
the pipeline groups subsets by, read it as Python-int bitmasks (bit i set
iff i is in phi(t)) and run as word operations. The covering check prunes
its search twice, both exactly. A blocker whose mask misses the subject's
shared indices is never needed: dropping it from a cover leaves a smaller
cover. And a blocking set of at most k-1 terminals covers the shared
indices only if its overlaps with them add up to their count, so a subject
whose k-1 largest overlaps fall short has no cover at all. Every least
cover survives both prunes, so the first witness found (least subject,
then least size, then the lexicographically least set) is the one a full
enumeration would find.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import BudgetExceededError
from .instance import Pair

GENERAL = "general"
SINGLE_SOURCE = "single-source"
MODES = (GENERAL, SINGLE_SOURCE)


@dataclass(frozen=True)
class FamilyParams:
    k: int
    basis: int          # n or tau, whichever the caller selected
    mode: str
    p: int              # number of subsets
    q: int              # index draws per terminal
    paper_relation: bool = True  # p == 2*k*q; False only for overrides

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.q < 1 or self.p < 1 or self.k < 1:
            raise ValueError("need k, p, q >= 1")
        if self.paper_relation and self.p != 2 * self.k * self.q:
            raise ValueError(f"p={self.p} != 2kq={2 * self.k * self.q}")


def default_params(k: int, basis: int, mode: str = GENERAL) -> FamilyParams:
    """Paper-rate parameters for a given max requirement and log basis."""
    if k < 1:
        raise ValueError("need k >= 1")
    if basis < 2:
        raise ValueError("need basis >= 2")
    if mode == GENERAL:
        q = math.ceil(64 * k * k * math.log(basis))
    elif mode == SINGLE_SOURCE:
        q = math.ceil(2 * k * math.log(basis))
    else:
        raise ValueError(f"mode must be one of {MODES}")
    return FamilyParams(k=k, basis=basis, mode=mode, p=2 * k * q, q=q)


def override_params(k: int, basis: int, mode: str, p: int, q: int,
                    unsafe: bool = False) -> FamilyParams:
    """Explicit (p, q); rejects p != 2kq unless unsafe is set."""
    relation = p == 2 * k * q
    if not relation and not unsafe:
        raise ValueError(
            f"override p={p}, q={q} violates p = 2kq; pass unsafe to allow")
    return FamilyParams(k=k, basis=basis, mode=mode, p=p, q=q,
                        paper_relation=relation)


def resolve_params(k: int, basis: int, mode: str,
                   override: tuple[int, int] | None = None,
                   unsafe: bool = False) -> FamilyParams:
    """The explicit (p, q) override if one is given, else the defaults."""
    if override is None:
        return default_params(k, basis, mode)
    p, q = override
    return override_params(k, basis, mode, p, q, unsafe=unsafe)


@dataclass(frozen=True)
class TerminalFamily:
    params: FamilyParams
    seed: int
    phi: dict[int, frozenset[int]]  # terminal -> drawn indices (deduplicated)

    @property
    def subsets(self) -> dict[int, frozenset[int]]:
        """T_i = {t | i in phi(t)} for i = 1..p."""
        out: dict[int, set[int]] = {i: set() for i in range(1, self.params.p + 1)}
        for t, idx in self.phi.items():
            for i in idx:
                out[i].add(t)
        return {i: frozenset(s) for i, s in out.items()}

    @cached_property
    def masks(self) -> dict[int, int]:
        """phi as bitmasks: bit i of masks[t] is set iff i is in phi(t)."""
        width = (self.params.p >> 3) + 1
        out = {}
        for t, idx in self.phi.items():
            buf = bytearray(width)
            for i in idx:
                buf[i >> 3] |= 1 << (i & 7)
            out[t] = int.from_bytes(buf, "little")
        return out

    def shared_mask(self, group: Iterable[int]) -> int:
        """The AND of the masks of group: bit i is set iff T_i holds every
        terminal in group."""
        shared = (1 << (self.params.p + 1)) - 2
        for t in group:
            shared &= self.masks.get(t, 0)
        return shared

    def common_indices(self, group: Iterable[int]) -> list[int]:
        """The indices i, ascending, whose subset T_i holds every terminal
        in group."""
        shared = self.shared_mask(group)
        out = []
        while shared:
            low = shared & -shared
            out.append(low.bit_length() - 1)
            shared ^= low
        return out

    def phi_of(self, group: Iterable[int]) -> frozenset[int]:
        """Union of phi over a set of terminals."""
        out: set[int] = set()
        for t in group:
            out |= self.phi.get(t, frozenset())
        return frozenset(out)


def sample_family(terminals: Iterable[int], params: FamilyParams,
                  seed: int) -> TerminalFamily:
    """Each terminal draws q indices uniformly from {1..p} with replacement."""
    getrandbits = random.Random(seed).getrandbits
    phi = {t: _draw_indices(getrandbits, params.p, params.q)
           for t in sorted(set(terminals))}
    return TerminalFamily(params=params, seed=seed, phi=phi)


def _draw_indices(getrandbits, p: int, q: int) -> frozenset[int]:
    """q draws from {1..p}, each the value rng.randrange(1, p + 1) would
    give: CPython draws p.bit_length() bits and redraws while the value is
    >= p (tests pin the two sequences together)."""
    bits = p.bit_length()
    out = set()
    for _ in range(q):
        r = getrandbits(bits)
        while r >= p:
            r = getrandbits(bits)
        out.add(r + 1)
    return frozenset(out)


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    # on failure: (subject, blocking set, note); subject is a pair (s, t)
    # in general mode or a single terminal in single-source mode
    witness: tuple[object, frozenset[int], str] | None = None


_DEFAULT_CHECK_BUDGET = 50_000_000


def _check_budget(n_subjects: int, tau: int, k: int, p: int, budget: int):
    combos = sum(math.comb(max(tau - 2, 0), j) for j in range(k))
    if n_subjects * combos * p > budget:
        raise BudgetExceededError(
            f"goodness check needs ~{n_subjects * combos * p} steps, "
            f"over budget {budget}")


# A subject is what the covering condition protects: a pair (s, t) in
# general mode, one terminal t in single-source mode (the source lies in
# every subset). Its shared set holds the indices drawn by all its members.
_WIDTH = {GENERAL: 2, SINGLE_SOURCE: 1}
_NOTE = {GENERAL: "phi(s) & phi(t) is covered by phi(X)",
         SINGLE_SOURCE: "phi(t) is covered by phi(X)"}


def _members(subject, mode: str) -> tuple[int, ...]:
    return subject if mode == GENERAL else (subject,)


def _shared(family: TerminalFamily, members: tuple[int, ...]) -> frozenset[int]:
    return frozenset.intersection(
        *(family.phi.get(x, frozenset()) for x in members))


def _covering_check(family: TerminalFamily, mode: str, subjects: list,
                    terms: list[int], k: int, budget: int) -> GoodnessReport:
    """Covering check: for every subject and every blocking set X of at
    most k-1 other terminals, some shared index lies outside phi(X).

    Exact, with two prunes. Blockers are drawn only from the candidates,
    the terminals whose mask meets the shared mask: a least cover holds no
    other terminal. A subject is skipped when the k-1 largest overlaps of
    candidates with its shared mask sum to less than its popcount, since
    no k-1 blockers can then cover it. Least covers survive both prunes,
    so the witness returned is still the first cover in subject order,
    then size, then lexicographic order: the one the enumeration over all
    blocking sets finds."""
    # _check_budget counts blocking sets among tau - 2 terminals
    _check_budget(len(subjects), len(terms) + 2 - _WIDTH[mode], k,
                  family.params.p, budget)
    mask = family.masks.get
    for subject in subjects:
        members = _members(subject, mode)
        shared = family.shared_mask(members)
        need = shared.bit_count()
        cands = [x for x in terms if x not in members and mask(x, 0) & shared]
        best = sorted(((mask(x) & shared).bit_count() for x in cands),
                      reverse=True)
        if sum(best[:k - 1]) < need:
            continue
        for size in range(k):
            for xs in combinations(cands, size):
                covered = 0
                for x in xs:
                    covered |= mask(x)
                if not shared & ~covered:
                    return GoodnessReport(False, (
                        subject, frozenset(xs), _NOTE[mode]))
    return GoodnessReport(True)


def is_good_family_general(
    family: TerminalFamily, pairs: Iterable[Pair],
    terminals: Iterable[int], k: int,
    budget: int = _DEFAULT_CHECK_BUDGET,
) -> GoodnessReport:
    """Exhaustive check of the covering condition for every pair and every
    blocking set X of at most k-1 terminals: some index must lie in
    phi(s) & phi(t) but outside phi(X)."""
    subjects = [tuple(sorted(pr)) for pr in sorted(pairs, key=sorted)]
    return _covering_check(family, GENERAL, subjects, sorted(set(terminals)),
                           k, budget)


def is_good_family_single_source(
    family: TerminalFamily, terminals: Iterable[int], k: int,
    budget: int = _DEFAULT_CHECK_BUDGET,
) -> GoodnessReport:
    """Per-terminal covering condition: some index in phi(t) \\ phi(X)."""
    terms = sorted(set(terminals))
    return _covering_check(family, SINGLE_SOURCE, terms, terms, k, budget)


def is_good_family(family: TerminalFamily, terminals: Iterable[int],
                   pairs: Iterable[Pair]) -> GoodnessReport:
    """The covering check of the family's own mode, at its own k. `pairs`
    is read in general mode only: in single-source mode every subject is a
    terminal, and the source joins every subset."""
    params = family.params
    if params.mode == GENERAL:
        return is_good_family_general(family, pairs, terminals, params.k)
    return is_good_family_single_source(family, terminals, params.k)


def is_good_family_general_subset_check(
    family: TerminalFamily, pairs: Iterable[Pair],
    terminals: Iterable[int], k: int,
) -> GoodnessReport:
    """Same condition phrased over the derived subsets T_i; used to
    cross-check the index-set criterion in tests."""
    subsets = family.subsets
    terms = sorted(set(terminals))
    for pr in sorted(pairs, key=sorted):
        s, t = sorted(pr)
        others = [x for x in terms if x not in pr]
        for size in range(k):
            for xs in combinations(others, size):
                if not any(s in ti and t in ti and not (ti & set(xs))
                           for ti in subsets.values()):
                    return GoodnessReport(False, (
                        (s, t), frozenset(xs), "no subset covers the pair"))
    return GoodnessReport(True)


def replay_witness(family: TerminalFamily, witness, mode: str) -> bool:
    """True iff the witness really breaks the covering condition."""
    subject, xs, _ = witness
    return _shared(family, _members(subject, mode)) <= family.phi_of(xs)


def estimate_bad_events(
    terminals: Iterable[int], params: FamilyParams, seed: int, trials: int,
) -> tuple[float, float]:
    """Monte Carlo rates of the two sampling bad events over fresh draws.

    General mode: e1 = overlap event |phi(s) & phi(X)| >= 3q/4, e2 =
    covering event phi(s) & phi(t) <= phi(X), with (s, t, X) uniform and
    |X| = k-1. Single-source mode: the subject is one terminal t, and the
    events read phi(t) in place of phi(s) and of phi(s) & phi(t).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    terms = sorted(set(terminals))
    width = _WIDTH[params.mode]
    needed = width + (params.k - 1)
    if len(terms) < needed:
        raise ValueError(f"need at least {needed} terminals, got {len(terms)}")
    rng = random.Random(seed)
    hits1 = hits2 = 0
    threshold = 3 * params.q / 4
    for _ in range(trials):
        fam = sample_family(terms, params, rng.getrandbits(63))
        # one draw of width w consumes the RNG as rng.choice does for w = 1
        members = tuple(rng.sample(terms, width))
        rest = [x for x in terms if x not in members]
        xs = rng.sample(rest, params.k - 1)
        phix = fam.phi_of(xs)
        if len(fam.phi[members[0]] & phix) >= threshold:
            hits1 += 1
        if _shared(fam, members) <= phix:
            hits2 += 1
    return hits1 / trials, hits2 / trials


def write_family(family: TerminalFamily) -> str:
    """Dump format: header `family <p> <q> <seed>`, then phi lines."""
    out = [f"family {family.params.p} {family.params.q} {family.seed}"]
    for t in sorted(family.phi):
        idx = " ".join(str(i) for i in sorted(family.phi[t]))
        out.append(f"phi {t} {idx}".rstrip())
    return "\n".join(out) + "\n"
