"""Incidence matrices of binary morphisms and their exact spectral data.

Everything here is integer or Fraction arithmetic. Eigenvalues are never
computed in floating point: the second eigenvalue is classified through the
trace, the determinant, and the discriminant trace^2 - 4 det, and the
comparison of |theta2| against 1 is done by sign-safe squaring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotPrimitiveError, NotRankOneError, ZeroEntryError
from .words import BinaryMorphism, ParikhVector, parikh

__all__ = [
    "MorphismMatrix",
    "SpectralProfile",
    "FrequencyReport",
    "Rank1Form",
    "matrix_of",
    "spectral_profile",
    "letter_frequencies",
    "rank1_decompose",
    "THETA2_ZERO",
    "THETA2_INTEGER",
    "THETA2_IRRATIONAL",
    "ABS_EQ_ZERO",
    "ABS_IN_OPEN_UNIT_INTERVAL",
    "ABS_EQ_ONE",
    "ABS_GT_ONE",
]

THETA2_ZERO = "zero"
THETA2_INTEGER = "integer_nonzero"
THETA2_IRRATIONAL = "irrational_quadratic"

ABS_EQ_ZERO = "eq_zero"
ABS_IN_OPEN_UNIT_INTERVAL = "in_open_unit_interval"
ABS_EQ_ONE = "eq_one"
ABS_GT_ONE = "gt_one"


@dataclass(frozen=True)
class MorphismMatrix:
    """2x2 nonnegative integer matrix; column j is the Parikh vector of the
    image of the j-th letter, so column sums are the image lengths."""

    m11: int
    m12: int
    m21: int
    m22: int

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.m11, self.m12), (self.m21, self.m22))

    @property
    def trace(self) -> int:
        return self.m11 + self.m22

    @property
    def determinant(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def discriminant(self) -> int:
        return self.trace * self.trace - 4 * self.determinant

    def column_sums(self) -> tuple[int, int]:
        return (self.m11 + self.m21, self.m12 + self.m22)

    def mul(self, other: "MorphismMatrix") -> "MorphismMatrix":
        return MorphismMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def pow(self, t: int) -> "MorphismMatrix":
        if t < 0:
            raise ValueError("t must be >= 0")
        result = MorphismMatrix(1, 0, 0, 1)
        base = self
        while t:
            if t & 1:
                result = result.mul(base)
            base = base.mul(base)
            t >>= 1
        return result

    def apply(self, v: ParikhVector) -> ParikhVector:
        """Parikh vector of f(u) from the Parikh vector of u."""
        return ParikhVector(
            self.m11 * v.count_a + self.m12 * v.count_b,
            self.m21 * v.count_a + self.m22 * v.count_b,
        )

    def is_positive(self) -> bool:
        return self.m11 > 0 and self.m12 > 0 and self.m21 > 0 and self.m22 > 0

    @property
    def primitive(self) -> bool:
        """Some power is entrywise positive; for 2x2 it suffices to check M and M^2."""
        return self.is_positive() or self.mul(self).is_positive()


def matrix_of(f: BinaryMorphism) -> MorphismMatrix:
    pa, pb = parikh(f.image_a), parikh(f.image_b)
    return MorphismMatrix(pa.count_a, pb.count_a, pa.count_b, pb.count_b)


@dataclass(frozen=True)
class SpectralProfile:
    trace: int
    determinant: int
    discriminant: int
    theta2_kind: str
    theta2_value: int | None  # set when theta2 is an integer (incl. 0)
    theta2_abs_class: str
    primitive: bool

    def to_json(self) -> dict:
        return dict(vars(self))


def _abs_class_irrational(trace: int, det: int, disc: int) -> str:
    # theta2 = (trace - sqrt(disc)) / 2 with sqrt(disc) irrational, so
    # |theta2| = 1 is impossible. sign(theta2^2 - 1) = sign(X - trace*sqrt(disc))
    # with X = trace^2 - 2 det - 2; compare by squaring (both sides sign-checked).
    x = trace * trace - 2 * det - 2
    if x < 0:
        return ABS_IN_OPEN_UNIT_INTERVAL
    lhs = x * x
    rhs = trace * trace * disc
    if lhs > rhs:
        return ABS_GT_ONE
    if lhs < rhs:
        return ABS_IN_OPEN_UNIT_INTERVAL
    raise AssertionError("irrational theta2 compared equal to 1")


def spectral_profile(m: MorphismMatrix) -> SpectralProfile:
    """Exact classification of the smaller-modulus eigenvalue theta2.

    Roots of x^2 - trace x + det are real here (disc >= 0 for nonnegative
    matrices). theta2 is the root of smaller absolute value; a tie (trace = 0)
    is broken toward the negative root, so theta2 = (trace - sqrt(disc)) / 2.
    """
    tr, det, disc = m.trace, m.determinant, m.discriminant
    if disc < 0:
        raise AssertionError("nonnegative matrix with negative discriminant")
    s = math.isqrt(disc)
    if det == 0:
        kind, value = THETA2_ZERO, 0
        abs_class = ABS_EQ_ZERO
    elif s * s == disc:
        # Both roots are integers (trace and sqrt(disc) share parity).
        value = (tr - s) // 2
        kind = THETA2_INTEGER
        if abs(value) < 1:
            raise AssertionError("integer theta2 with det != 0 cannot vanish")
        abs_class = ABS_EQ_ONE if abs(value) == 1 else ABS_GT_ONE
    else:
        kind, value = THETA2_IRRATIONAL, None
        abs_class = _abs_class_irrational(tr, det, disc)
    return SpectralProfile(tr, det, disc, kind, value, abs_class, m.primitive)


@dataclass(frozen=True)
class FrequencyReport:
    """Letter frequencies of the fixed point, exact in Q(sqrt(disc)).

    freq_a = rational_a + coef_a * sqrt(disc), likewise for b. When disc is a
    perfect square the coefficients are folded away and rational is True.
    """

    discriminant: int
    rational_a: Fraction
    coef_a: Fraction
    rational_b: Fraction
    coef_b: Fraction

    @property
    def rational(self) -> bool:
        return self.coef_a == 0 and self.coef_b == 0

    def freq_a_float(self) -> float:
        return float(self.rational_a) + float(self.coef_a) * math.sqrt(self.discriminant)

    def freq_b_float(self) -> float:
        return float(self.rational_b) + float(self.coef_b) * math.sqrt(self.discriminant)

    def to_json(self) -> dict:
        """Exact rationals as "p/q" strings, denominator always written."""
        return {
            "discriminant": self.discriminant,
            "rational": self.rational,
            "a": {
                "rational_part": _ratio(self.rational_a),
                "sqrt_coefficient": _ratio(self.coef_a),
            },
            "b": {
                "rational_part": _ratio(self.rational_b),
                "sqrt_coefficient": _ratio(self.coef_b),
            },
        }


def _ratio(x: Fraction) -> str:
    """x as "p/q", the denominator always written."""
    return f"{x.numerator}/{x.denominator}"


def letter_frequencies(f: BinaryMorphism) -> FrequencyReport:
    """Perron frequencies (freq_a, freq_b) of the letters in f^omega(a).

    Requires a primitive matrix. The dominant eigenvector is
    (m12, theta1 - m11); normalizing to sum 1 and rationalizing gives
    freq_a = P / (Q + sqrt(D)) with P = 2 m12 and Q = 2 m12 + m22 - m11.
    """
    return _frequencies_of(matrix_of(f))


def _frequencies_of(m: MorphismMatrix) -> FrequencyReport:
    """letter_frequencies of a morphism whose incidence matrix is m."""
    if not m.primitive:
        raise NotPrimitiveError("letter frequencies need a primitive matrix")
    disc = m.discriminant
    p = 2 * m.m12
    q = 2 * m.m12 + m.m22 - m.m11
    s = math.isqrt(disc)
    if s * s == disc:
        fa = Fraction(p, q + s)
        return FrequencyReport(disc, fa, Fraction(0), 1 - fa, Fraction(0))
    den = q * q - disc  # nonzero: disc is not a perfect square
    rat_a = Fraction(p * q, den)
    coef_a = Fraction(-p, den)
    return FrequencyReport(disc, rat_a, coef_a, 1 - rat_a, -coef_a)


@dataclass(frozen=True)
class Rank1Form:
    """Shape [[nA, mA], [nB, mB]] of a rank-1 incidence matrix, gcd(n, m) = 1.

    Image lengths are n(A+B) and m(A+B); iterating the morphism scales every
    block length by the trace nA + mB.
    """

    A: int
    B: int
    n: int
    m: int

    @property
    def trace(self) -> int:
        return self.n * self.A + self.m * self.B

    @property
    def block_unit(self) -> int:
        return self.A + self.B

    def period(self, k: int) -> int:
        """(A+B) (nA+mB)^(k-1): the chunk length of f^k(a) and f^k(b), k >= 1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self.block_unit * self.trace ** (k - 1)

    def to_json(self) -> dict:
        return {**vars(self), "trace": self.trace, "block_unit": self.block_unit}


def rank1_decompose(m: MorphismMatrix) -> Rank1Form:
    if m.determinant != 0:
        raise NotRankOneError(f"determinant is {m.determinant}, not 0")
    if min(m.m11, m.m12, m.m21, m.m22) <= 0:
        raise ZeroEntryError("rank-1 form with positive A, B needs positive entries")
    la, lb = m.column_sums()
    g = math.gcd(la, lb)
    n, mm = la // g, lb // g
    a, rem_a = divmod(m.m11, n)
    b, rem_b = divmod(m.m21, n)
    if rem_a or rem_b or m.m12 != mm * a or m.m22 != mm * b:
        # Cannot happen for a genuine rank-1 positive matrix; guard anyway.
        raise NotRankOneError("matrix does not factor as [[nA, mA], [nB, mB]]")
    assert a + b == g and math.gcd(n, mm) == 1
    return Rank1Form(a, b, n, mm)
