"""Decision machinery for morphisms whose matrix has second eigenvalue 0.

When the incidence matrix factors as [[nA, mA], [nB, mB]] with gcd(n, m) = 1,
every image under f has a-density exactly A/(A+B), image lengths are n(A+B)
and m(A+B), and iterating f multiplies all block lengths by the trace
k = nA + mB. The fixed point is purely abelian periodic iff for some K the
words f^K(a) and f^K(b) split into n resp. m abelian-equivalent chunks of
length (A+B) k^(K-1).

The chunk test at level t is a function of the "cut configuration": where the
chunk boundaries fall among the blocks f(c) of f^t(x). Such a position is a
state (c, i) of the uniform lift (lift.build_lift), and cut i of f^t(a), at
i(A+B) k^(t-1), is the state (a, i(A+B)) after t-1 zero digits; likewise for
f^t(b). So configurations evolve deterministically in t, a repeated one
refutes purity for all larger t, and the scan may stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import NotCoprimeError, OutOfRangeError
from .lift import UniformLift, build_lift, lift_fixed_prefix
from .matrices import Rank1Form, matrix_of, rank1_decompose
from .words import BinaryMorphism, ParikhVector, parikh

__all__ = [
    "CutDescriptor",
    "CutConfiguration",
    "PureVerdict",
    "EventualConditions",
    "EventualWitness",
    "prefix_parikh",
    "block_length",
    "configuration_of",
    "check_pure_at",
    "decide_pure",
    "eventual_conditions_at",
    "eventual_check_at",
    "eventual_scan",
    "block_position_residues",
]


def block_length(f: BinaryMorphism, form: Rank1Form, u) -> int:
    """|f(u)| / (A+B): the number of length-(A+B) cells the image of u spans."""
    pv = parikh(u)
    la, lb = f.lengths()
    total = la * pv.count_a + lb * pv.count_b
    assert total % form.block_unit == 0
    return total // form.block_unit


def _rank1_form(f: BinaryMorphism) -> Rank1Form:
    """The rank-1 form of f; a non-prolongable f fails before a non-rank-1 one."""
    f.require_prolongable()
    return rank1_decompose(matrix_of(f))


def _tables(f: BinaryMorphism, t: int):
    """Lengths and Parikh vectors of f^s(a) and f^s(b) for s = 0..t, exact."""
    m = matrix_of(f)
    pa = [ParikhVector(1, 0)]
    pb = [ParikhVector(0, 1)]
    for _ in range(t):
        pa.append(m.apply(pa[-1]))
        pb.append(m.apply(pb[-1]))
    lengths = [(v.length, w.length) for v, w in zip(pa, pb)]
    return lengths, pa, pb


def prefix_parikh(f: BinaryMorphism, seed: str, t: int, ell: int) -> ParikhVector:
    """Parikh vector of the length-ell prefix of f^t(seed), without
    materializing the word.

    Descends through f^t(seed) = f^(t-1)(d_1) ... f^(t-1)(d_r) where d_i are
    the letters of f(seed), consuming whole subtrees via exact matrix powers
    and recursing into the one subtree the boundary cuts.
    """
    if seed not in ("a", "b"):
        raise ValueError("seed must be 'a' or 'b'")
    if t < 0:
        raise ValueError("t must be >= 0")
    lengths, pa, pb = _tables(f, t)
    total = lengths[t][0] if seed == "a" else lengths[t][1]
    if not 0 <= ell <= total:
        raise OutOfRangeError(f"prefix length {ell} outside [0, {total}]")
    acc = ParikhVector(0, 0)
    remaining = ell
    cur = seed
    for s in range(t, 0, -1):
        if remaining == 0:
            return acc
        for d in f.image(cur):
            sub_len = lengths[s - 1][0] if d == "a" else lengths[s - 1][1]
            if remaining >= sub_len:
                acc = acc + (pa[s - 1] if d == "a" else pb[s - 1])
                remaining -= sub_len
                if remaining == 0:
                    return acc
            else:
                cur = d
                break
    if remaining:
        # only reachable for t = 0: the word is the single letter `cur`
        assert remaining == 1
        acc = acc + (ParikhVector(1, 0) if cur == "a" else ParikhVector(0, 1))
    return acc


@dataclass(frozen=True)
class CutDescriptor:
    """A lift state (c, i): the image block f(c) the cut lands in and the
    offset i within that block."""

    block_letter: str
    offset: int


@dataclass(frozen=True)
class CutConfiguration:
    a_cuts: tuple[CutDescriptor, ...]
    b_cuts: tuple[CutDescriptor, ...]


def _e_values(lift: UniformLift, form: Rank1Form) -> list[int]:
    """e(c, i) = (A+B) |f(c)[:i]|_a - A i for every lift state (c, i).

    If position p of f^t(x), t >= 1, is in state (c, i), the prefix before p
    is whole blocks f(y), of a-density exactly A/(A+B), plus f(c)[:i]; so
    (A+B) |prefix|_a - A p = e(c, i). Hence the chunk between cuts in states
    s and s' has a-count (A unit + e(s') - e(s)) / (A+B), unit its length.
    e is 0 at both ends of f^t(x), so the e-differences of the chunks of
    f^t(a) sum to 0: they are all equal iff all are 0, and then every chunk,
    of f^t(a) or f^t(b), has a-count A unit / (A+B). So the chunks are all
    equivalent iff every cut state has e = 0."""
    values = []
    for lo, hi in ((0, lift.image_length_a), (lift.image_length_a, lift.size)):
        e = 0
        for letter in lift.coding[lo:hi]:
            values.append(e)
            e += form.B if letter == "a" else -form.A
    return values


def _cut_levels(lift: UniformLift, form: Rank1Form) -> Iterator[tuple[int, ...]]:
    """Cut states of levels t = 1, 2, ...: level 1 is (a, i(A+B)) for
    i = 1..n-1, then (b, j(A+B)) for j = 1..m-1, and each further level
    reads the digit 0 from every state."""
    unit, la = form.block_unit, lift.image_length_a
    states = tuple(range(unit, la, unit)) + tuple(range(la + unit, lift.size, unit))
    while True:
        yield states
        states = tuple(lift.images[s][0] for s in states)


def configuration_of(f: BinaryMorphism, form: Rank1Form, t: int) -> CutConfiguration:
    """Where the n-1 cuts of f^t(a) and the m-1 cuts of f^t(b) fall.

    Cut i sits at position i * (A+B) k^(t-1); the descriptor records the
    block letter and offset at that position, read off its lift state.
    Each level is a function of the one before, so the walk stops at the
    first repeated tuple of cut states and reads level t off the cycle:
    the work is bounded by the cycle, not by t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    lift = build_lift(f, form)
    index: dict[tuple[int, ...], int] = {}  # the cut states of level i + 1 -> i
    for states in _cut_levels(lift, form):
        if len(index) == t or states in index:
            break
        index[states] = len(index)
    levels, i = list(index), t - 1
    if i >= len(levels):  # levels index[states] + 1, ..., len(levels) repeat
        start = index[states]
        i = start + (i - start) % (len(levels) - start)
    states = levels[i]
    cuts = [CutDescriptor(*lift.letter_pair(s)) for s in states]
    return CutConfiguration(tuple(cuts[: form.n - 1]), tuple(cuts[form.n - 1 :]))


@dataclass(frozen=True)
class PureVerdict:
    """Outcome of the pure abelian periodicity scan.

    status is "pure" (with k and the period), "not_pure" (configuration cycle
    found; sound refutation), or "resource_exhausted" (configuration cap hit
    before either)."""

    status: str
    k: int | None
    period: int | None
    iterations_used: int
    cycle_detected: bool

    def to_json(self) -> dict:
        """Periods can exceed 53 bits, so they are decimal strings."""
        return {**vars(self), "period": None if self.period is None else str(self.period)}


def decide_pure(f: BinaryMorphism, max_configurations: int = 10**6) -> PureVerdict:
    """Decide whether f^omega(a) is purely abelian periodic.

    Walks the cut states of levels t = 1, 2, ...: all e = 0 (see _e_values)
    proves purity with period (A+B) (nA+mB)^(t-1), and a repeated tuple of
    cut states refutes it. The cap bounds the configurations tried; it must
    be >= 0."""
    if max_configurations < 0:
        raise ValueError("max_configurations must be >= 0")
    form = _rank1_form(f)
    lift = build_lift(f, form)
    e = _e_values(lift, form)
    seen: set[tuple[int, ...]] = set()
    # each level returns or adds one tuple to seen, so capping levels caps seen
    levels = islice(_cut_levels(lift, form), max_configurations)
    for t, states in enumerate(levels, 1):
        if states in seen:
            return PureVerdict("not_pure", None, None, t, True)
        if not any(e[s] for s in states):
            return PureVerdict("pure", t, form.period(t), t, False)
        seen.add(states)
    return PureVerdict("resource_exhausted", None, None, max_configurations, False)


@dataclass(frozen=True)
class EventualConditions:
    """The four parts of the eventual-periodicity witness test at offset c."""

    a_chunks_equivalent: bool
    b_chunks_equivalent: bool
    cross_equivalent: bool
    prefixes_equivalent: bool

    @property
    def witness(self) -> bool:
        return (
            self.a_chunks_equivalent
            and self.b_chunks_equivalent
            and self.cross_equivalent
            and self.prefixes_equivalent
        )


@dataclass(frozen=True)
class EventualWitness:
    k: int
    cut_offset: int
    period: int

    def to_json(self) -> dict:
        """Offsets and periods can exceed 53 bits, so they are decimal strings."""
        return {**vars(self), "cut_offset": str(self.cut_offset), "period": str(self.period)}


def _cyclic_chunk_counts(f, seed, parts, k, period, offset):
    """a-counts of the `parts` length-`period` chunks of the cyclic shift of
    f^k(seed) by `offset`, plus the Parikh vector of the length-`offset` prefix."""
    head = prefix_parikh(f, seed, k, offset)
    total = prefix_parikh(f, seed, k, parts * period)
    counts = []
    prev = head
    for i in range(1, parts):
        cur = prefix_parikh(f, seed, k, offset + i * period)
        counts.append(cur.count_a - prev.count_a)
        prev = cur
    counts.append(total.count_a - prev.count_a + head.count_a)
    return counts, head


def eventual_conditions_at(
    f: BinaryMorphism, form: Rank1Form, k: int, cut_offset: int
) -> EventualConditions:
    """Evaluate the witness conditions at level k and shift c = cut_offset:
    the shifted f^k(a) splits into n abelian-equivalent period-blocks, the
    shifted f^k(b) into m, all n + m blocks are pairwise equivalent, and the
    two length-c prefixes are abelian equivalent. That is the paper's
    condition at K = k: f^K(a) = uv, f^K(b) = u'v' with u = f^K(a)[:c] and
    u' = f^K(b)[:c] equivalent, and vu, v'u' abelian periodic with equivalent
    periods. The one period P = (A+B) (nA+mB)^(K-1) suffices: a common period
    p divides |f^K(a)| = nP and |f^K(b)| = mP, so p divides P as gcd(n, m) = 1.
    Purity is c = 0 (check_pure_at). Counts come from prefix_parikh alone."""
    period = form.period(k)
    if not 0 <= cut_offset < period:
        raise ValueError(f"cut offset must lie in [0, {period})")
    ca, head_a = _cyclic_chunk_counts(f, "a", form.n, k, period, cut_offset)
    cb, head_b = _cyclic_chunk_counts(f, "b", form.m, k, period, cut_offset)
    a_ok = all(c == ca[0] for c in ca)
    b_ok = all(c == cb[0] for c in cb)
    cross = all(c == ca[0] for c in ca + cb)
    return EventualConditions(a_ok, b_ok, cross, head_a == head_b)


def check_pure_at(f: BinaryMorphism, form: Rank1Form, k: int) -> bool:
    """Do f^k(a) and f^k(b) split into n + m pairwise abelian-equivalent
    chunks of length (A+B) (nA+mB)^(k-1)? The eventual witness at offset 0."""
    return eventual_conditions_at(f, form, k, 0).witness


def eventual_check_at(f: BinaryMorphism, form: Rank1Form, k: int):
    """Scan all cut offsets c in [0, period) at level k; return the first
    witness or None. A witness proves f^omega(a) is abelian periodic with
    period (A+B) (nA+mB)^(k-1) and preperiod c."""
    period = form.period(k)
    for c in range(period):
        # prefix equivalence is the cheapest condition; gate on it first
        if prefix_parikh(f, "a", k, c) != prefix_parikh(f, "b", k, c):
            continue
        if eventual_conditions_at(f, form, k, c).witness:
            return EventualWitness(k, c, period)
    return None


def eventual_scan(
    f: BinaryMorphism, form: Rank1Form, k_max: int, offset_budget: int
) -> tuple[EventualWitness | None, int]:
    """Run eventual_check_at on levels k = 1..k_max, stopping before a level
    whose offset count (its period) would overrun the remaining budget.

    Returns the first witness, or None, and the last level scanned."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if offset_budget < 0:
        raise ValueError("offset_budget must be >= 0")
    budget = offset_budget
    for k in range(1, k_max + 1):
        period = form.period(k)
        if period > budget:
            return None, k - 1
        budget -= period
        witness = eventual_check_at(f, form, k)
        if witness is not None:
            return witness, k
    return None, k_max


def block_position_residues(
    f: BinaryMorphism, form: Rank1Form, t: int, d: int, horizon: int
) -> set[int]:
    """Residues mod d of the defined t-block-positions of the f(a) blocks in
    the first `horizon` letters of the fixed point.

    The fixed point decomposes into image blocks; each block f(a) at letter
    position i defines a t-block-position i / ((A+B) (nA+mB)^(t-1)) when that
    quotient is integral. Requires gcd(d, trace) = 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if math.gcd(d, form.trace) != 1:
        raise NotCoprimeError(f"d = {d} shares a factor with the trace {form.trace}")
    lift = build_lift(f, form)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    # state (a, 0), id 0, marks the first letter of each f(a) block; a block
    # lies in the horizon when it starts at most horizon - |f(a)|
    states = lift_fixed_prefix(lift, max(0, horizon - lift.image_length_a + 1))
    starts = np.flatnonzero(states == 0)
    # every start is below horizon + 1, so a longer unit aligns only start 0,
    # as horizon + 1 does; the cap keeps the arithmetic in int64. The period
    # is at least 2^t, past the horizon once t >= horizon.bit_length()
    short = t < horizon.bit_length()
    unit = min(form.period(t), horizon + 1) if short else horizon + 1
    aligned = starts[starts % unit == 0] // unit
    return {int(r) for r in np.unique(aligned % d)}
