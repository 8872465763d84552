"""Certified search for eventual periodicity of the fixed point.

One candidate (u, w) is read off a long prefix of f^omega(a): w is the
smallest period of the prefix's tail, which by Fine-Wilf is the length of
every primitive period that fits. It is certified exactly: u w^omega is a
fixed point of f iff f(u) f(w)^omega equals u w^omega. A certified candidate
equals f^omega(a) because both start with a and the fixed point prolongable
on a is unique. Negative outcomes only mean no candidate exists within the
stated bounds. A non-primitive f has its candidate in closed form, read off
the images with no prefix (_decide_closed_form); classify takes it from
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import BinaryMorphism, Word, _image, fixed_point_prefix

__all__ = [
    "PeriodicityVerdict",
    "periodic_prefix",
    "eq_eventually_periodic",
    "default_search_bound",
    "decide_periodic",
]


def _periodic_bytes(u: bytes, w: bytes, length: int) -> bytes:
    """First `length` letters of u w^omega, one byte per letter."""
    if length <= len(u):
        return u[:length]
    return (u + w * -(-(length - len(u)) // len(w)))[:length]


def _word(codes: bytes) -> Word:
    return Word._adopt(np.frombuffer(codes, dtype=np.uint8))


def periodic_prefix(preperiod: Word, period: Word, length: int) -> Word:
    """First `length` letters of u w^omega."""
    if len(period) == 0:
        raise ValueError("period word must be nonempty")
    if length < 0:
        raise ValueError("length must be >= 0")
    return _word(_periodic_bytes(preperiod.data.tobytes(), period.data.tobytes(), length))


def eq_eventually_periodic(u1: Word, w1: Word, u2: Word, w2: Word) -> bool:
    """Exact equality of u1 w1^omega and u2 w2^omega, decided on prefixes of
    max(|u1|, |u2|) + lcm(|w1|, |w2|) letters."""
    b1, c1, b2, c2 = u1.data.tobytes(), w1.data.tobytes(), u2.data.tobytes(), w2.data.tobytes()
    if not c1 or not c2:
        raise ValueError("period words must be nonempty")
    n = max(len(b1), len(b2)) + math.lcm(len(c1), len(c2))
    return _periodic_bytes(b1, c1, n) == _periodic_bytes(b2, c2, n)


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


def _search_bounds(
    f: BinaryMorphism, max_period: int | None, max_preperiod: int | None
) -> tuple[int, int]:
    """(max_period, max_preperiod), each None taking default_search_bound(f)."""
    _check_search_bounds(max_period, max_preperiod)
    bound = default_search_bound(f)
    return (
        bound if max_period is None else max_period,
        bound if max_preperiod is None else max_preperiod,
    )


def _smallest_period(s: bytes, bound: int) -> int | None:
    """The smallest period of s when it is at most `bound`, else None, for s
    of at least 2 * bound letters (decide_periodic's docstring has why).
    s[p:] == s[:-p] is tested as s.startswith on a memoryview: no copy."""
    p = s.find(s[:bound], 1, 2 * bound)
    return p if p > 0 and s.startswith(memoryview(s)[p:]) else None


def decide_periodic(
    f: BinaryMorphism,
    max_period: int | None = None,
    max_preperiod: int | None = None,
) -> PeriodicityVerdict:
    """Search for (u, w) with f^omega(a) = u w^omega, |u| <= max_preperiod,
    |w| <= max_period and u shortest.

    p is the smallest period of the tail s, the 4 max_period letters after
    max_preperiod, found by one bytes.find: p = s.find(s[:max_period], 1),
    kept when p <= max_period and s[p:] == s[:-p]. Let q <= max_period be
    the smallest period; then s[:max_period] occurs at q. An occurrence at
    some p < q would give s[:p + max_period] the periods p and q, hence by
    Fine-Wilf (its length is at least p + q) the period g = gcd(p, q); g
    divides q, so s would have the period g < q. The find therefore returns
    q; and when the smallest period exceeds max_period, whatever the find
    returns fails the check.

    u ends at the last letter before s that breaks p, w is the p letters
    after u. A fixed point u w^omega with w primitive has p dividing |f(w)|,
    as f(w)^omega and w^omega share a suffix; only then is the exact
    f(u) f(w)^omega = u w^omega checked (_certified), so "periodic" verdicts
    are proofs.

    f(u) and f(w) come from the images, never from the prefix, which would
    make the proof circular: each is one bytes.replace per letter, the
    kernel of BinaryMorphism.apply (words._image), and
    eq_eventually_periodic compares bytes. u and w hold at most
    max_preperiod and max_period letters. classify does not call this
    search: a non-primitive morphism's (u, w) has a closed form
    (_decide_closed_form), which gives the same verdict at every bound and
    is certified the same way."""
    f.require_prolongable()
    max_p, max_r = _search_bounds(f, max_period, max_preperiod)
    arr = fixed_point_prefix(f, max_r + 4 * max_p).data
    p = _smallest_period(arr[max_r:].tobytes(), max_p)
    if p is not None:
        breaks = np.flatnonzero(arr[:max_r] != arr[p : max_r + p])
        r = int(breaks[-1]) + 1 if len(breaks) else 0
        u, w = _word(arr[:r].tobytes()), _word(arr[r : r + p].tobytes())
        if _certified(f, u, w):
            return PeriodicityVerdict("periodic", u, w, max_r, max_p)
    return PeriodicityVerdict("not_found", None, None, max_r, max_p)


def _certified(f: BinaryMorphism, u: Word, w: Word) -> bool:
    """f(u) f(w)^omega = u w^omega, exactly, for a primitive w: then
    u w^omega is a fixed point of f, and equals f^omega(a) when u w starts
    with a. |w| divides |f(w)| first, as f(w)^omega and w^omega share a
    suffix. f(u) and f(w) come from the images (words._image)."""
    images = f.image_a.data.tobytes(), f.image_b.data.tobytes()
    fw = _image(w.data.tobytes(), *images)
    return len(fw) % len(w) == 0 and eq_eventually_periodic(
        _word(_image(u.data.tobytes(), *images)), _word(fw), u, w
    )


def _decide_closed_form(
    f: BinaryMorphism, max_period: int, max_preperiod: int
) -> PeriodicityVerdict | None:
    """decide_periodic(f, max_period, max_preperiod) for f prolongable on a
    and not primitive, read off the images in O(|f(a)| + |f(b)|) with no
    prefix; None when f^omega(a) is not ultimately periodic.

    Not primitive means f(a) = a^i or f(b) = b^j. f(a) = a^i fixes a^omega.
    Otherwise f(a) holds a b and f(b) = b^j: f(a) = a b^l fixes a b^omega,
    and f(a) = (a b^l)^(r-1) a with f(b) = b fixes (a b^l)^omega. Every
    other such f has a discrepancy certificate (classify._certificate):
    its Delta is unbounded over the prefixes, so its fixed point is not
    even abelian periodic.

    The (u, w) above is the shortest, w primitive. It is reported when
    |u| <= max_preperiod and |w| <= max_period, and certified as
    decide_periodic certifies, so "periodic" stays a proof that does not
    rest on the shape argument."""
    image_a, image_b = f.image_a.data.tobytes(), f.image_b.data.tobytes()
    if b"\1" not in image_a:
        u, w = b"", b"\0"
    elif image_a.count(0) == 1:
        u, w = b"\0", b"\1"
    else:
        u, w = b"", image_a[: image_a.index(0, 1)]
        if image_b != b"\1" or image_a != w * (len(image_a) // len(w)) + b"\0":
            return None
    u, w = _word(u), _word(w)
    if len(u) <= max_preperiod and len(w) <= max_period and _certified(f, u, w):
        return PeriodicityVerdict("periodic", u, w, max_preperiod, max_period)
    return PeriodicityVerdict("not_found", None, None, max_preperiod, max_period)
