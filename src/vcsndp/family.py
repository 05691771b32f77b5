"""Random covering families of terminal subsets.

Each terminal draws q indices from {1..p} with replacement; subset T_i
collects the terminals that drew index i. A family is "good" when every
source-sink pair (general mode) or every terminal (single-source mode)
has, for each blocking set X of fewer than k terminals, some subset
containing it and disjoint from X. Parameters follow q = ceil(64 k^2 ln b)
(general) or q = ceil(2 k ln b) (single-source) with p = 2kq, the natural-
log reading that keeps the Chernoff failure bounds at b^(-2k).

A family is stored as one Python-int bitmask per terminal (bit i set iff
the terminal drew index i); phi, the index sets, is built from the masks
only for a dump or a test. Sampling takes its 32-bit words from the
generator in bulk and packs the accepted values with numpy, giving the
draws of a randrange loop exactly. A sample larger than SAMPLE_BUDGET
bytes is refused with BudgetExceededError before any draw.

The covering check finds, for every subject in one numpy pass over arrays
of 64-bit words, its shared indices, their count and its overlap with
each terminal, and prunes twice, both exactly. A blocker whose mask
misses the subject's shared indices is never needed: dropping it from a
cover leaves a smaller cover. And a blocking set of at most k-1 terminals
covers the shared indices only if its overlaps with them add up to their
count, so a subject whose k-1 largest overlaps fall short has no cover at
all. Only the surviving subjects are searched, in subject order. Every
least cover survives both prunes, so the first witness found (least
subject, then least size, then the lexicographically least set) is the
one a full enumeration would find.

`is_good_family_general_subset_check` states the condition over the
subsets T_i instead and shares no code with the covering check; tests
and the benchmark cross-check the two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable

import numpy as np

from .errors import BudgetExceededError
from .instance import Pair

GENERAL = "general"
SINGLE_SOURCE = "single-source"
MODES = (GENERAL, SINGLE_SOURCE)


@dataclass(frozen=True)
class FamilyParams:
    k: int
    basis: int          # the log's argument: tau, or `family --basis`
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
    masks: dict[int, int]  # terminal -> bit i set iff it drew index i

    @classmethod
    def from_phi(cls, params: FamilyParams, seed: int,
                 phi: dict[int, Iterable[int]]) -> TerminalFamily:
        """The family in which terminal t drew the indices phi[t]."""
        return cls(params=params, seed=seed,
                   masks={t: _mask_of(idx) for t, idx in phi.items()})

    @cached_property
    def phi(self) -> dict[int, frozenset[int]]:
        """terminal -> drawn indices (deduplicated)."""
        return {t: frozenset(_bits(m)) for t, m in self.masks.items()}

    @property
    def subsets(self) -> dict[int, frozenset[int]]:
        """T_i = {t | i in phi(t)} for i = 1..p."""
        out: dict[int, set[int]] = {i: set() for i in range(1, self.params.p + 1)}
        for t, idx in self.phi.items():
            for i in idx:
                out[i].add(t)
        return {i: frozenset(s) for i, s in out.items()}

    def shared_mask(self, group: Iterable[int]) -> int:
        """The AND of the masks of group: bit i is set iff T_i holds every
        terminal in group."""
        shared = (1 << (self.params.p + 1)) - 2
        for t in group:
            shared &= self.masks.get(t, 0)
        return shared

    def union_mask(self, group: Iterable[int]) -> int:
        """The OR of the masks of group: the mask of phi_of(group)."""
        union = 0
        for t in group:
            union |= self.masks.get(t, 0)
        return union

    def common_indices(self, group: Iterable[int]) -> list[int]:
        """The indices i, ascending, whose subset T_i holds every terminal
        in group."""
        return _bits(self.shared_mask(group))

    def phi_of(self, group: Iterable[int]) -> frozenset[int]:
        """Union of phi over a set of terminals."""
        return frozenset(_bits(self.union_mask(group)))

    def words(self, group: Iterable[int]) -> np.ndarray:
        """The masks of group, one row of 64-bit words per terminal (a
        terminal without a mask gets a row of zeros); viewed as bytes, a
        row is its mask in little-endian order."""
        group = list(group)
        width = (self.params.p >> 6) + 1
        buf = b"".join(self.masks.get(t, 0).to_bytes(8 * width, "little")
                       for t in group)
        return np.frombuffer(buf, dtype=np.uint64).reshape(len(group), width)


def _mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# CPython's Mersenne Twister makes 32-bit words: getrandbits(b) for b <= 32
# is the top b bits of the next word, and getrandbits(32 * n) is the next n
# words, the first in the lowest bits
_WORD_BITS = 32
# the most bytes one sample may take: tau * (p + 32 q) counts a byte for
# each of the p flags of a terminal and about 32 for each of its q draws.
# It keeps p below 2**28, so each draw fits in the top bits of one word.
SAMPLE_BUDGET = 1 << 28


def check_sample_budget(n_terminals: int, params: FamilyParams) -> None:
    """BudgetExceededError when a sample over n_terminals terminals at
    params would take more than SAMPLE_BUDGET bytes, counting tau as at
    least 1."""
    p, q = params.p, params.q
    size = max(1, n_terminals) * (p + 32 * q)
    if size > SAMPLE_BUDGET:
        raise BudgetExceededError(
            f"sampling {n_terminals} terminals at p={p}, q={q} needs "
            f"~{size} bytes, over budget {SAMPLE_BUDGET}")


def sample_family(terminals: Iterable[int], params: FamilyParams,
                  seed: int) -> TerminalFamily:
    """Each terminal, in increasing order, draws q indices uniformly from
    {1..p} with replacement: the values that q calls of
    random.Random(seed).randrange(1, p + 1) would give.

    randrange draws p.bit_length() bits and redraws while the value is
    >= p. Here whole batches of words are drawn, the top p.bit_length()
    bits of each kept and the values >= p dropped, which leaves the values
    it accepts, in its order (tests pin the two together). Words drawn past
    the last value needed are never seen; the generator is private. A
    sample over budget (check_sample_budget) raises BudgetExceededError
    before any draw."""
    terms = sorted(set(terminals))
    check_sample_budget(len(terms), params)
    p, q = params.p, params.q
    if not terms:
        return TerminalFamily(params=params, seed=seed, masks={})
    rng = random.Random(seed)
    need = len(terms) * q
    bits = p.bit_length()
    batches, got = [], 0
    while got < need:
        # each word is accepted with probability p / 2**bits > 1/2
        count = ((need - got) << bits) // p + (need - got) // 32 + 64
        words = np.frombuffer(
            rng.getrandbits(_WORD_BITS * count).to_bytes(4 * count, "little"),
            dtype="<u4") >> (_WORD_BITS - bits)
        batches.append(words[words < p])
        got += len(batches[-1])
    values = np.concatenate(batches)[:need]
    drawn = np.zeros((len(terms), 8 * ((p >> 3) + 1)), dtype=bool)
    drawn[np.repeat(np.arange(len(terms)), q), values + 1] = True
    rows = np.packbits(drawn, axis=1, bitorder="little")
    return TerminalFamily(params=params, seed=seed, masks={
        t: int.from_bytes(row.tobytes(), "little")
        for t, row in zip(terms, rows)})


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
# 64-bit words per numpy temporary: 8 MiB
_CHUNK_WORDS = 1 << 20


def _members(subject, mode: str) -> tuple[int, ...]:
    return subject if mode == GENERAL else (subject,)


def _covering_check(family: TerminalFamily, mode: str, subjects: list,
                    terms: list[int], k: int, budget: int) -> GoodnessReport:
    """Covering check: for every subject and every blocking set X of at
    most k-1 other terminals, some shared index lies outside phi(X).

    Exact, with two prunes, both computed for all subjects at once on
    word arrays. Blockers are drawn only from the candidates, the
    terminals whose mask meets the shared mask: a least cover holds no
    other terminal. A subject is skipped when the k-1 largest overlaps of
    candidates with its shared mask sum to less than its popcount, since
    no k-1 blockers can then cover it. The other subjects are searched in
    order, and least covers survive both prunes, so the witness returned
    is still the first cover in subject order, then size, then
    lexicographic order: the one the enumeration over all blocking sets
    finds."""
    # _check_budget counts blocking sets among tau - 2 terminals
    _check_budget(len(subjects), len(terms) + 2 - _WIDTH[mode], k,
                  family.params.p, budget)
    if not subjects:
        return GoodnessReport(True)
    members = [_members(subject, mode) for subject in subjects]
    # rows: the blockers, then any member that is not one
    rows = {x: i for i, x in enumerate(terms)}
    for x in sorted({x for group in members for x in group} - rows.keys()):
        rows[x] = len(rows)
    grid = family.words(rows)
    member_rows = np.array([[rows[x] for x in group] for group in members])
    shared = np.bitwise_and.reduce(grid[member_rows], axis=1)
    need = np.bitwise_count(shared).sum(axis=1, dtype=np.int64)
    overlap = np.empty((len(subjects), len(rows)), dtype=np.int64)
    step = max(1, _CHUNK_WORDS // grid.size)
    for lo in range(0, len(subjects), step):
        overlap[lo:lo + step] = np.bitwise_count(
            shared[lo:lo + step, None, :] & grid).sum(axis=2)
    # a subject's own members never block it
    overlap[np.arange(len(subjects))[:, None], member_rows] = 0
    overlap = overlap[:, :len(terms)]
    top = -np.sort(-overlap, axis=1)[:, :k - 1].sum(axis=1, dtype=np.int64)
    for s in np.flatnonzero(top >= need):
        shared_s = family.shared_mask(members[s])
        cands = [terms[j] for j in np.flatnonzero(overlap[s])]
        for size in range(k):
            for xs in combinations(cands, size):
                if not shared_s & ~family.union_mask(xs):
                    return GoodnessReport(False, (
                        subjects[s], frozenset(xs), _NOTE[mode]))
    return GoodnessReport(True)


def is_good_family_general(
    family: TerminalFamily, pairs: Iterable[Pair],
    terminals: Iterable[int], k: int,
    budget: int = _DEFAULT_CHECK_BUDGET,
) -> GoodnessReport:
    """Exhaustive check of the covering condition for every pair and every
    blocking set X of at most k-1 terminals: some index must lie in
    phi(s) & phi(t) but outside phi(X)."""
    subjects = sorted(tuple(sorted(pr)) for pr in pairs)
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


# blocking sets per numpy batch in the subset-form check
_SUBSET_CHECK_BATCH = 4096


def is_good_family_general_subset_check(
    family: TerminalFamily, pairs: Iterable[Pair],
    terminals: Iterable[int], k: int,
) -> GoodnessReport:
    """The same condition phrased over the subsets T_i: a pair (s, t) is
    served against a blocking set X when some T_i holds s and t and
    misses X. It shares no code with the covering check, so it serves as
    an independent cross-check.

    It runs over the distinct T_i only, told apart by their terminal
    bitmasks, which take one 64-bit word per 64 terminals. Each terminal
    then gets the set of distinct T_i that hold it, as a bitmask, and one
    pass of word operations per batch of blocking sets finds, for every
    pair at once, whether some T_i holds the pair and misses the set; the
    witness is the first pair, then the first set, for which none does."""
    terms = sorted(set(terminals))
    subjects = sorted(tuple(sorted(pr)) for pr in pairs)
    if not subjects:
        return GoodnessReport(True)
    columns = sorted(set(terms).union(*subjects))
    col = {x: j for j, x in enumerate(columns)}
    p = family.params.p
    # flags[j, i - 1]: T_i holds terminal columns[j]
    flags = np.unpackbits(family.words(columns).view(np.uint8), axis=1,
                          bitorder="little")[:, 1:p + 1]
    # keys[i - 1, w]: bit b of word w is set iff T_i holds columns[64w + b]
    keys = np.zeros((p, -(-len(columns) // 64)), dtype=np.uint64)
    for w in range(keys.shape[1]):
        part = flags[64 * w:64 * w + 64].astype(np.uint64)
        keys[:, w] = (part << np.arange(len(part), dtype=np.uint64)[:, None]
                      ).sum(axis=0)
    if keys.shape[1] == 1:
        ordered = np.sort(keys[:, 0])
        keys = ordered[np.r_[True, ordered[1:] != ordered[:-1]], None]
    else:
        keys = np.unique(keys, axis=0)
    # holders[j]: bit d is set iff the d-th distinct T_i holds columns[j]
    j = np.arange(len(columns))
    held = (keys[:, j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)
    holders = np.zeros((len(columns), 8 * -(-len(keys) // 64)), dtype=np.uint8)
    holders[:, :-(-len(keys) // 8)] = np.packbits(held.T.astype(bool), axis=1)
    holders = holders.view(np.uint64)
    s_col = np.array([col[s] for s, _ in subjects])
    t_col = np.array([col[t] for _, t in subjects])
    both = holders[s_col] & holders[t_col]
    blockers = [col[x] for x in terms]
    first = np.full(len(subjects), -1)    # first unserved blocking set
    seen = 0
    for size in range(k):
        sets = combinations(blockers, size)
        while chunk := list(islice(sets, _SUBSET_CHECK_BATCH)):
            xs = np.array(chunk, dtype=np.intp).reshape(len(chunk), size)
            hit = np.bitwise_or.reduce(holders[xs], axis=1)   # T_i meets X
            served = (both[:, None, :] & ~hit[None, :, :]).any(axis=2)
            # X may not hold an end of the pair
            own = ((xs[None, :, :] == s_col[:, None, None])
                   | (xs[None, :, :] == t_col[:, None, None])).any(axis=2)
            unserved = ~served & ~own
            new = (first < 0) & unserved.any(axis=1)
            first[new] = seen + unserved[new].argmax(axis=1)
            seen += len(chunk)
    failed = np.flatnonzero(first >= 0)
    if not len(failed):
        return GoodnessReport(True)
    pos = failed[0]
    xs = next(islice((xs for size in range(k)
                      for xs in combinations(terms, size)), first[pos], None))
    return GoodnessReport(False, (
        subjects[pos], frozenset(xs), "no subset covers the pair"))


def replay_witness(family: TerminalFamily, witness, mode: str) -> bool:
    """True iff the witness really breaks the covering condition."""
    subject, xs, _ = witness
    return not (family.shared_mask(_members(subject, mode))
                & ~family.union_mask(xs))


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
        blocked = fam.union_mask(rng.sample(rest, params.k - 1))
        if (fam.masks[members[0]] & blocked).bit_count() >= threshold:
            hits1 += 1
        if not fam.shared_mask(members) & ~blocked:
            hits2 += 1
    return hits1 / trials, hits2 / trials


def write_family(family: TerminalFamily) -> str:
    """Dump format: header `family <p> <q> <seed>`, then phi lines."""
    out = [f"family {family.params.p} {family.params.q} {family.seed}"]
    for t in sorted(family.phi):
        idx = " ".join(str(i) for i in sorted(family.phi[t]))
        out.append(f"phi {t} {idx}".rstrip())
    return "\n".join(out) + "\n"
