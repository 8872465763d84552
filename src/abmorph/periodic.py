"""Certified search for eventual periodicity of the fixed point.

Candidates (u, w) with u w^omega matching a long prefix of f^omega(a) are
certified exactly: u w^omega is a fixed point of f iff f(u) f(w)^omega equals
u w^omega, and equality of two eventually periodic words is decided by
comparing prefixes of length max(|u1|, |u2|) + lcm(|w1|, |w2|). A certified
candidate equals f^omega(a) because both start with a and the fixed point
prolongable on a is unique. Negative outcomes only mean no candidate exists
within the stated bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import BinaryMorphism, Word, border_table, fixed_point_prefix

__all__ = [
    "PeriodicityVerdict",
    "periodic_prefix",
    "eq_eventually_periodic",
    "default_search_bound",
    "decide_periodic",
]


def periodic_prefix(preperiod: Word, period: Word, length: int) -> Word:
    """First `length` letters of u w^omega."""
    if len(period) == 0:
        raise ValueError("period word must be nonempty")
    if length < 0:
        raise ValueError("length must be >= 0")
    if length <= len(preperiod):
        return preperiod[:length]
    tail = length - len(preperiod)
    reps = -(-tail // len(period))
    return Word(
        np.concatenate([preperiod.data, np.tile(period.data, reps)])[:length]
    )


def eq_eventually_periodic(u1: Word, w1: Word, u2: Word, w2: Word) -> bool:
    """Exact equality of u1 w1^omega and u2 w2^omega."""
    if len(w1) == 0 or len(w2) == 0:
        raise ValueError("period words must be nonempty")
    n = max(len(u1), len(u2)) + math.lcm(len(w1), len(w2))
    return periodic_prefix(u1, w1, n) == periodic_prefix(u2, w2, n)


@dataclass(frozen=True)
class PeriodicityVerdict:
    """status "periodic" carries the certified presentation (u, w); status
    "not_found" only rules out presentations within the recorded bounds."""

    status: str
    preperiod: Word | None
    period: Word | None
    max_preperiod: int
    max_period: int

    @property
    def found(self) -> bool:
        return self.status == "periodic"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "preperiod_word": None if self.preperiod is None else str(self.preperiod),
            "period_word": None if self.period is None else str(self.period),
            "max_preperiod": self.max_preperiod,
            "max_period": self.max_period,
        }


def default_search_bound(f: BinaryMorphism) -> int:
    total = len(f.image_a) + len(f.image_b)
    return 4 * total * total


def _check_search_bounds(max_period: int | None, max_preperiod: int | None) -> None:
    """Reject given bounds that allow no candidate; None takes the default
    search bound, which allows some."""
    if (max_period is not None and max_period < 1) or (
        max_preperiod is not None and max_preperiod < 0
    ):
        raise ValueError("bounds must allow at least one candidate")


def decide_periodic(
    f: BinaryMorphism,
    max_period: int | None = None,
    max_preperiod: int | None = None,
) -> PeriodicityVerdict:
    """Search for (u, w) with f^omega(a) = u w^omega, |u| <= max_preperiod and
    |w| <= max_period: for each preperiod r in ascending order, the candidate
    w is the smallest period of the horizon prefix after r.

    The horizon is max_preperiod + 4 max_period letters; candidates are
    certified via f(u) f(w)^omega = u w^omega, which is exact, so "periodic"
    verdicts are proofs."""
    f.require_prolongable()
    _check_search_bounds(max_period, max_preperiod)
    bound = default_search_bound(f)
    max_p = bound if max_period is None else max_period
    max_r = bound if max_preperiod is None else max_preperiod
    horizon = max_r + 4 * max_p
    arr = fixed_point_prefix(f, horizon).data
    # A word and its reverse share their periods, and the reverse of arr[r:]
    # is a prefix of arr[::-1], so one border table gives every tail's
    # smallest period p. The tail is at least 4 max_p >= p + q letters long,
    # so by Fine-Wilf every period q <= max_p is a multiple of p and spells
    # the same u w^omega: testing p alone decides the whole row.
    border = border_table(Word(arr[::-1]))
    for r in range(max_r + 1):
        p = (horizon - r) - border[horizon - r - 1]
        if p > max_p:
            continue
        u, w = Word(arr[:r]), Word(arr[r : r + p])
        if eq_eventually_periodic(f.apply(u), f.apply(w), u, w):
            return PeriodicityVerdict("periodic", u, w, max_r, max_p)
    return PeriodicityVerdict("not_found", None, None, max_r, max_p)
