"""Brute-force abelian analysis of materialized word prefixes.

These scanners are evidence generators and cross-checks for the exact
procedures, not proofs: everything here sees only the supplied prefix.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptySelectionError,
    HorizonTooShortError,
    WrongSpectralCaseError,
)
from .matrices import THETA2_INTEGER, matrix_of, spectral_profile
from .words import BinaryMorphism, Word, parikh

__all__ = [
    "AbelianPeriodWitness",
    "ComplexityProfile",
    "abelian_period_oracle",
    "validate_abelian_period",
    "complexity_profile",
    "imbalance_at",
    "lattice_path_heights",
    "heights_to_csv",
    "letters_at_progression",
    "theta2_one_invariant_check",
]


def _as_array(source) -> np.ndarray:
    """Accept Word, str, or any int sequence; return a 1-d integer array."""
    if isinstance(source, (Word, str)):
        return Word.of(source).data
    arr = np.asarray(source)
    if arr.ndim != 1:
        raise ValueError("prefix must be one-dimensional")
    return arr


_ONES = np.uint64(0x0101010101010101)  # times a word: each byte sums the bytes up to it
_COUNT_CHUNK = 2**18  # letters per pass of _prefix_counts: bounds its temporaries
_TAIL_ROWS = 24  # disagreement rows per period read by the oracle's tail pass
_TAIL_BYTES = 2**18  # gathered counts per tail block: bounds its temporaries
_TAIL_TOP = 2**10  # widest period of the tail pass: wider ones cost less in _first_start
_TAIL_GROW = 4  # a tail block from period lo ends by period _TAIL_GROW * lo


def _prefix_counts(arr: np.ndarray, longest: int | None = None) -> np.ndarray:
    """P[i] = number of a's (letter code 0) among the first i letters, modulo
    2^w in the narrowest unsigned dtype with 2^w > longest (default: the
    whole prefix, so the counts themselves are exact). Wrapping unsigned
    subtraction P[i + m] - P[i] is then the exact a-count of any window of
    m <= longest letters: one byte per letter up to windows of 255.

    Eight letters at a time: the 0/1 marks of eight letters are the bytes of
    one <u8 word, and multiplying it by 0x0101010101010101 leaves in each
    byte the marks up to it (at most 8, so no byte carries into the next).
    The top byte is the word's total; np.cumsum runs over those totals only,
    and each word's offset is added to its eight bytes in one flat np.add,
    the offsets spread eight apiece: one-byte offsets by the same multiply,
    wider ones by np.repeat. The letters are read in passes of _COUNT_CHUNK,
    so the temporaries stay under a few _COUNT_CHUNK bytes next to the
    counts; a tail of under 8 letters is summed directly."""
    longest = arr.size if longest is None else longest
    bits = 8
    while longest >= 2**bits:
        bits *= 2
    dtype = np.dtype(f"uint{bits}")
    counts = np.empty(arr.size + 1, dtype=dtype)
    counts[0] = 0
    for lo in range(0, arr.size, _COUNT_CHUNK):
        hi = min(lo + _COUNT_CHUNK, arr.size)
        words = (hi - lo) // 8
        mid = lo + 8 * words
        if words:
            ups = (arr[lo:mid] == 0).view("<u8") * _ONES
            totals = (ups >> np.uint64(56)).astype(dtype)
            starts = np.cumsum(totals, dtype=dtype)
            starts -= totals
            starts += counts[lo]
            if bits == 8:
                spread = (starts.astype(np.uint64) * _ONES).view(np.uint8)
            else:
                spread = np.repeat(starts, 8)
            np.add(ups.view(np.uint8), spread, out=counts[lo + 1 : mid + 1])
        if hi > mid:
            np.cumsum(arr[mid:hi] == 0, dtype=dtype, out=counts[mid + 1 : hi + 1])
            counts[mid + 1 : hi + 1] += counts[mid]
    return counts


def _window_spread(counts: np.ndarray, length: int) -> int:
    """imbalance_at(word, length), given the prefix counts of the word."""
    win = counts[length:] - counts[:-length]
    return int(win.max()) - int(win.min())


@dataclass(frozen=True)
class AbelianPeriodWitness:
    preperiod: int
    period: int
    horizon: int


def validate_abelian_period(source, preperiod: int, period: int) -> bool:
    """True when all complete period-blocks after the preperiod have equal
    Parikh vectors on this prefix. Needs at least two complete blocks."""
    arr = _as_array(source)
    if period <= 0 or preperiod < 0:
        raise ValueError("need period >= 1 and preperiod >= 0")
    nblocks = (arr.size - preperiod) // period
    if nblocks < 2:
        raise HorizonTooShortError(
            f"prefix of {arr.size} leaves {nblocks} complete blocks for "
            f"(r={preperiod}, p={period}); need at least 2"
        )
    counts = _prefix_counts(arr, period)
    idx = preperiod + period * np.arange(nblocks + 1, dtype=np.int64)
    sums = np.diff(counts[idx])
    return bool(np.all(sums == sums[0]))


def abelian_period_oracle(source, max_period: int, max_preperiod: int):
    """Lexicographically minimal (preperiod, period), preperiod first, such
    that every complete block in the prefix has the same Parikh vector.
    Returns None when no candidate within bounds survives the whole prefix.

    Periods ascend, so a later period wins only with a smaller preperiod:
    each hit lowers the preperiod limit below itself. For a period p, length-p
    windows at j and j + p that differ in a-count rule out every start <= j
    of the class j mod p. These disagreements are read tail first, and p is
    dropped once every class has one past the limit; only when some class
    is still alive there is the head read.

    Before a period reaches that per-period read, one tail pass tests it
    together with a block of neighbouring periods: when every class of p
    disagrees within its last _TAIL_ROWS rows, and these lie past the
    loosest limit p can meet, p is dropped with no read of its own. Blocks
    are gathered as the loop reaches them, with a bounded number of counts
    each, so a search that ends at a small period builds one small block.
    """
    arr = _as_array(source)
    if max_period < 1 or max_preperiod < 0:
        raise ValueError("need max_period >= 1 and max_preperiod >= 0")
    if arr.size < 2 * max_period + max_preperiod:
        raise HorizonTooShortError(
            f"prefix of {arr.size} is shorter than 2*max_period + max_preperiod "
            f"= {2 * max_period + max_preperiod}"
        )
    counts = _prefix_counts(arr, max_period)
    n = arr.size
    drops = _tail_drops(counts, max_period, max_preperiod)
    best = None
    limit = max_preperiod
    for p in range(1, max_period + 1):
        limit = min(limit, n - 2 * p)  # two complete blocks after r
        if limit < 0:
            break
        if next(drops):
            continue
        start = _first_start(counts, p, limit)
        if start is not None:
            best = AbelianPeriodWitness(start, p, n)
            limit = start - 1
    return best


def _tail_drops(counts: np.ndarray, max_period: int, max_preperiod: int):
    """For p = 1 .. max_period in turn: True when every residue class of p
    disagrees within the last _TAIL_ROWS rows of p, and those rows lie past
    min(max_preperiod, n - 2p) - p. Then _first_start(counts, p, limit) is
    None at that limit and at any lower one.

    The periods are tested in blocks, each built when its first period is
    asked for: from period lo, up to _TAIL_GROW * lo, and only as many as keep
    the block's gathered counts within _TAIL_BYTES. Periods past _TAIL_TOP,
    or whose rows do not fit past that limit, yield False."""
    n = counts.size - 1
    rows = _TAIL_ROWS + 2  # counts per class: rows - 1 windows
    cap = _TAIL_BYTES // (rows * counts.itemsize)  # periods times width, per block
    # the rows read start at n - rows * p + 1: past max_preperiod - p, and >= 0
    top = min(max_period, _TAIL_TOP, cap, (n - max_preperiod) // (rows - 1), (n + 1) // rows)
    lo = 1
    while lo <= top:
        a = lo - 1
        fit = (a + math.isqrt(a * a + 4 * cap)) // 2  # fit * (fit - a) <= cap
        hi = min(top, _TAIL_GROW * lo, fit)
        yield from _dead_in_tail(counts, lo, hi).tolist()
        lo = hi + 1
    yield from itertools.repeat(False, max_period - top)


def _dead_in_tail(counts: np.ndarray, lo: int, top: int) -> np.ndarray:
    """Entry p - lo, for p in [lo, top]: does every residue class of p
    disagree within the last _TAIL_ROWS rows of p?

    Let X[k, c] = counts[-1 - c - k * p]. The length-p window that ends
    c + k * p letters before the end holds X[k, c] - X[k + 1, c] a's, and
    class c disagrees in row k when that differs from the count of the
    window before it. One gather reads X for every period of the block from
    a sliding view of width top over the last (_TAIL_ROWS + 2) * top
    counts: column top - 1 - c holds class c, and the columns of classes
    c >= p count as disagreeing. Wrapping subtraction in the counts' dtype
    is exact, as no window holds more than top < 2^w letters."""
    rows = _TAIL_ROWS + 2
    ps = np.arange(lo, top + 1)
    tail = counts[counts.size - rows * top :]
    view = np.ndarray((tail.size - top + 1, top), tail.dtype, tail, strides=2 * tail.strides)
    x = view[(rows - 1) * top - np.arange(rows)[:, None] * ps]
    win = x[:-1] - x[1:]
    del x  # at most two gathered blocks are held at once
    hit = (win[:-1] != win[1:]).any(axis=0)
    hit |= np.arange(top) < top - ps[:, None]
    return hit.all(axis=1)


def _differs(counts: np.ndarray, p: int, lo: int, hi: int) -> np.ndarray:
    """Entry j - lo, for j in [lo, hi): do the length-p windows at j and
    j + p differ in a-count?"""
    win = counts[lo + p : hi + 2 * p] - counts[lo : hi + p]
    return win[:-p] != win[p:]


def _first_start(counts: np.ndarray, p: int, limit: int) -> int | None:
    """Smallest r <= limit whose length-p windows r, r + p, r + 2p, ... all
    have the same a-count, or None.

    The smallest survivor of a class is its last disagreement + p, or the
    residue itself when it has none, so any disagreement past limit - p
    kills its class. That tail is read from the end in whole rows of p,
    4 rows first and twice as many each time.
    """
    hi = counts.size - 2 * p  # disagreements are indexed 0 .. n - 2p
    # [head, hi) is whole rows of p; the j > limit - p it leaves below head
    # give starts past limit, which the head filter drops
    head = hi - (hi - max(limit - p + 1, 0)) // p * p
    alive = np.ones(p, dtype=bool)  # entry c: the class of head + c
    rows = 4
    while hi > head:
        lo = max(head, hi - rows * p)
        alive &= ~_differs(counts, p, lo, hi).reshape(-1, p).any(axis=0)
        if not alive.any():
            return None
        hi, rows = lo, 2 * rows
    alive = np.roll(alive, head % p)
    last = np.arange(p) - p  # last + p is the residue when a class has none
    js = np.flatnonzero(_differs(counts, p, 0, head))
    np.maximum.at(last, js % p, js)
    first = (last + p)[alive]
    first = first[first <= limit]
    return int(first.min()) if first.size else None


@dataclass(frozen=True)
class ComplexityProfile:
    """Abelian complexity and imbalance for window lengths 1..nmax."""

    horizon: int
    lengths: np.ndarray
    complexity: np.ndarray
    imbalance: np.ndarray

    def rows(self) -> list[tuple[int, int, int]]:
        return [
            (int(self.lengths[i]), int(self.complexity[i]), int(self.imbalance[i]))
            for i in range(self.lengths.size)
        ]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("length,complexity,imbalance\n")
        for length, comp, imb in self.rows():
            out.write(f"{length},{comp},{imb}\n")
        return out.getvalue()


def imbalance_at(source, length: int) -> int:
    """max - min of the a-count over all complete length-`length` windows."""
    arr = _as_array(source)
    if not 1 <= length <= arr.size:
        raise HorizonTooShortError(
            f"window length {length} does not fit in a prefix of {arr.size}"
        )
    return _window_spread(_prefix_counts(arr, length), length)


def complexity_profile(source, nmax: int) -> ComplexityProfile:
    """Window scan over all lengths 1..nmax.

    For binary words the a-count of a sliding window moves by at most 1 per
    step, so it takes every value between its min and max; the number of
    distinct Parikh vectors is therefore imbalance + 1.
    """
    arr = _as_array(source)
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if arr.size < 2 * nmax:
        raise HorizonTooShortError(
            f"prefix of {arr.size} is shorter than 2*nmax = {2 * nmax}"
        )
    counts = _prefix_counts(arr, nmax)
    lengths = np.arange(1, nmax + 1, dtype=np.int64)
    imbalance = np.empty(nmax, dtype=np.int64)
    for i, ell in enumerate(lengths):
        imbalance[i] = _window_spread(counts, ell)
    return ComplexityProfile(arr.size, lengths, imbalance + 1, imbalance)


def lattice_path_heights(source) -> np.ndarray:
    """Heights y_k = (#a - #b) of the prefix of length k, for k = 0..L.

    The word becomes a lattice path: a steps up, b steps down."""
    arr = _as_array(source)
    heights = np.zeros(arr.size + 1, dtype=np.int64)
    np.cumsum(np.where(arr == 0, 1, -1), out=heights[1:])
    return heights


def heights_to_csv(heights: Sequence[int]) -> str:
    out = io.StringIO()
    out.write("index,height\n")
    for i, h in enumerate(heights):
        out.write(f"{i},{int(h)}\n")
    return out.getvalue()


def letters_at_progression(source, r: int, d: int) -> set:
    """Set of letters at positions r, r+d, r+2d, ... inside the prefix.

    Works over any alphabet (binary words, or integer state sequences)."""
    if d < 1 or r < 0:
        raise ValueError("need r >= 0 and d >= 1")
    arr = _as_array(source)
    if r >= arr.size:
        raise EmptySelectionError(f"start {r} is past the prefix of {arr.size}")
    codes = np.unique(arr[r::d])
    if isinstance(source, (Word, str)):
        return {"ab"[int(c)] for c in codes}
    return {int(c) for c in codes}


def theta2_one_invariant_check(f: BinaryMorphism, u: Word | str) -> bool:
    """For theta2 = 1 the matrix has the shape [[A+1, alpha*A], [B, alpha*B+1]];
    the linear form B|u|_a - A|u|_b is then invariant under applying f."""
    m = matrix_of(f)
    profile = spectral_profile(m)
    if profile.theta2_kind != THETA2_INTEGER or profile.theta2_value != 1:
        raise WrongSpectralCaseError(
            f"needs second eigenvalue exactly 1, got kind={profile.theta2_kind} "
            f"value={profile.theta2_value}"
        )
    a_param, b_param = m.m11 - 1, m.m21
    u = Word.of(u)
    pu = parikh(u)
    pf = parikh(f.apply(u))
    return (
        b_param * pf.count_a - a_param * pf.count_b
        == b_param * pu.count_a - a_param * pu.count_b
    )
