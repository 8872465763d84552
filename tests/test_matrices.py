"""Incidence matrices, spectral classification, frequencies, rank-1 form."""

import math
from fractions import Fraction

import pytest

from abmorph import (
    ABS_EQ_ONE,
    ABS_EQ_ZERO,
    ABS_GT_ONE,
    ABS_IN_OPEN_UNIT_INTERVAL,
    THETA2_INTEGER,
    THETA2_IRRATIONAL,
    THETA2_ZERO,
    MorphismMatrix,
    NotPrimitiveError,
    NotRankOneError,
    Rank1Form,
    ZeroEntryError,
    compose,
    fixed_point_prefix,
    letter_frequencies,
    matrix_of,
    parikh,
    parse_morphism,
    rank1_decompose,
    spectral_profile,
)
from conftest import random_morphism


class TestMorphismMatrix:
    def test_worked_example(self):
        m = matrix_of(parse_morphism("a->ab; b->bbaa"))
        assert m.rows() == ((1, 2), (1, 2))
        assert m.trace == 3
        assert m.determinant == 0
        assert m.discriminant == 9
        assert m.column_sums() == (2, 4)

    def test_column_sums_are_image_lengths(self, rng):
        for _ in range(50):
            f = random_morphism(rng, prolongable=False)
            assert matrix_of(f).column_sums() == f.lengths()

    def test_action_on_parikh_vectors(self, rng):
        # parikh(f(u)) = M_f parikh(u), exact.
        for _ in range(200):
            f = random_morphism(rng, prolongable=False)
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 25)))
            assert matrix_of(f).apply(parikh(u)) == parikh(f.apply(u))

    def test_composition_law(self, rng):
        # M_{f o g} = M_f M_g, exact.
        for _ in range(100):
            f = random_morphism(rng, prolongable=False)
            g = random_morphism(rng, prolongable=False)
            assert matrix_of(compose(f, g)) == matrix_of(f).mul(matrix_of(g))

    def test_pow(self, rng):
        m = matrix_of(parse_morphism("a->ab; b->a"))
        assert m.pow(0) == MorphismMatrix(1, 0, 0, 1)
        acc = MorphismMatrix(1, 0, 0, 1)
        for t in range(1, 8):
            acc = acc.mul(m)
            assert m.pow(t) == acc

    def test_primitive_golden(self):
        assert matrix_of(parse_morphism("a->ab; b->ba")).primitive
        assert matrix_of(parse_morphism("a->ab; b->a")).primitive
        assert not matrix_of(parse_morphism("a->ab; b->b")).primitive
        assert not matrix_of(parse_morphism("a->aa; b->ab")).primitive
        assert not matrix_of(parse_morphism("a->aab; b->b")).primitive

    def test_primitive_matches_power_search(self, rng):
        # The M-or-M^2 shortcut agrees with searching powers up to 8.
        for _ in range(200):
            f = random_morphism(rng, prolongable=False)
            m = matrix_of(f)
            brute = any(m.pow(t).is_positive() for t in range(1, 9))
            assert m.primitive == brute


SPECTRAL_GOLDEN = [
    # text, kind, value, abs_class, primitive
    ("a->ab; b->bbaa", THETA2_ZERO, 0, ABS_EQ_ZERO, True),
    ("a->ab; b->ba", THETA2_ZERO, 0, ABS_EQ_ZERO, True),
    ("a->aaab; b->abbb", THETA2_INTEGER, 2, ABS_GT_ONE, True),
    ("a->ab; b->aa", THETA2_INTEGER, -1, ABS_EQ_ONE, True),
    ("a->aab; b->bbaab", THETA2_INTEGER, 1, ABS_EQ_ONE, True),
    ("a->ab; b->a", THETA2_IRRATIONAL, None, ABS_IN_OPEN_UNIT_INTERVAL, True),
    ("a->aaab; b->ab", THETA2_IRRATIONAL, None, ABS_IN_OPEN_UNIT_INTERVAL, True),
    ("a->aaab; b->abbbb", THETA2_IRRATIONAL, None, ABS_GT_ONE, True),
    ("a->ab; b->b", THETA2_INTEGER, 1, ABS_EQ_ONE, False),
    ("a->aa; b->ab", THETA2_INTEGER, 1, ABS_EQ_ONE, False),
]


class TestSpectralProfile:
    @pytest.mark.parametrize("text,kind,value,abs_class,primitive",
                             SPECTRAL_GOLDEN)
    def test_golden(self, text, kind, value, abs_class, primitive):
        prof = spectral_profile(matrix_of(parse_morphism(text)))
        assert prof.theta2_kind == kind
        assert prof.theta2_value == value
        assert prof.theta2_abs_class == abs_class
        assert prof.primitive == primitive

    def test_agrees_with_float_eigenvalue(self, rng):
        # Cross-check the exact classification against floating point,
        # skipping near-ties where floats cannot be trusted.
        for _ in range(300):
            f = random_morphism(rng, prolongable=False)
            m = matrix_of(f)
            prof = spectral_profile(m)
            theta2 = (m.trace - math.sqrt(m.discriminant)) / 2
            if prof.theta2_kind == THETA2_ZERO:
                assert m.determinant == 0
                assert abs(theta2) < 1e-9
                continue
            if prof.theta2_kind == THETA2_INTEGER:
                assert prof.theta2_value is not None
                assert abs(theta2 - prof.theta2_value) < 1e-9
            if abs(abs(theta2) - 1) > 1e-6:
                expected = (ABS_GT_ONE if abs(theta2) > 1
                            else ABS_IN_OPEN_UNIT_INTERVAL)
                assert prof.theta2_abs_class == expected

    def test_theta2_is_smaller_root(self, rng):
        for _ in range(100):
            m = matrix_of(random_morphism(rng, prolongable=False))
            s = math.sqrt(m.discriminant)
            theta1 = (m.trace + s) / 2
            theta2 = (m.trace - s) / 2
            assert abs(theta2) <= theta1 + 1e-12


class TestLetterFrequencies:
    def test_golden_fibonacci(self):
        rep = letter_frequencies(parse_morphism("a->ab; b->a"))
        assert rep.discriminant == 5
        assert rep.rational_a == Fraction(-1, 2)
        assert rep.coef_a == Fraction(1, 2)
        assert not rep.rational
        assert abs(rep.freq_a_float() - (math.sqrt(5) - 1) / 2) < 1e-12

    def test_golden_rational(self):
        rep = letter_frequencies(parse_morphism("a->ab; b->ba"))
        assert rep.rational
        assert rep.rational_a == Fraction(1, 2)
        rep = letter_frequencies(parse_morphism("a->aabb; b->abbb"))
        assert rep.rational
        assert rep.rational_a == Fraction(1, 3)
        assert rep.rational_b == Fraction(2, 3)

    def test_golden_irrational(self):
        rep = letter_frequencies(parse_morphism("a->aaab; b->ab"))
        assert rep.discriminant == 8
        assert rep.rational_a == 0
        assert rep.coef_a == Fraction(1, 4)
        assert abs(rep.freq_a_float() - math.sqrt(2) / 2) < 1e-12

    @pytest.mark.parametrize("text, rational_b, coef_b, freq_b", [
        ("a->ab; b->a", Fraction(3, 2), Fraction(-1, 2), (3 - math.sqrt(5)) / 2),
        ("a->aabb; b->abbb", Fraction(2, 3), Fraction(0), 2 / 3),
    ])
    def test_freq_b_float(self, text, rational_b, coef_b, freq_b):
        rep = letter_frequencies(parse_morphism(text))
        assert (rep.rational_b, rep.coef_b) == (rational_b, coef_b)
        assert abs(rep.freq_b_float() - freq_b) < 1e-12
        assert abs(rep.freq_a_float() + rep.freq_b_float() - 1) < 1e-12

    def test_sum_to_one_exactly(self, rng):
        checked = 0
        for _ in range(300):
            f = random_morphism(rng, prolongable=False)
            if not matrix_of(f).primitive:
                continue
            rep = letter_frequencies(f)
            assert rep.rational_a + rep.rational_b == 1
            assert rep.coef_a + rep.coef_b == 0
            assert 0 < rep.freq_a_float() < 1
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("text", [
        "a->ab; b->ba", "a->ab; b->a", "a->aabb; b->abbb",
        "a->aaab; b->ab", "a->ab; b->bbaa",
    ])
    def test_matches_long_prefix_counts(self, text):
        f = parse_morphism(text)
        rep = letter_frequencies(f)
        n = 10**5
        w = fixed_point_prefix(f, n)
        assert abs(rep.freq_a_float() - parikh(w).count_a / n) < 0.01

    def test_requires_primitive(self):
        with pytest.raises(NotPrimitiveError):
            letter_frequencies(parse_morphism("a->ab; b->b"))


class TestRank1Form:
    def test_worked_example(self):
        form = rank1_decompose(matrix_of(parse_morphism("a->ab; b->bbaa")))
        assert (form.A, form.B, form.n, form.m) == (1, 1, 1, 2)
        assert form.trace == 3
        assert form.block_unit == 2

    def test_more_golden(self):
        assert rank1_decompose(matrix_of(parse_morphism("a->ab; b->ba"))) == \
            Rank1Form(1, 1, 1, 1)
        assert rank1_decompose(matrix_of(parse_morphism("a->abba; b->ab"))) == \
            Rank1Form(1, 1, 2, 1)

    def test_reconstruction_uniqueness(self, rng):
        # decompose([[nA, mA], [nB, mB]]) recovers (A, B, n, m) exactly.
        for _ in range(300):
            while True:
                n, m = rng.randint(1, 6), rng.randint(1, 6)
                if math.gcd(n, m) == 1:
                    break
            A, B = rng.randint(1, 6), rng.randint(1, 6)
            mat = MorphismMatrix(n * A, m * A, n * B, m * B)
            assert rank1_decompose(mat) == Rank1Form(A, B, n, m)

    def test_block_lengths(self):
        form = rank1_decompose(matrix_of(parse_morphism("a->ab; b->bbaa")))
        assert form.n * form.block_unit == 2
        assert form.m * form.block_unit == 4

    def test_rejects_nonzero_determinant(self):
        with pytest.raises(NotRankOneError):
            rank1_decompose(matrix_of(parse_morphism("a->ab; b->a")))

    def test_rejects_zero_entries(self):
        with pytest.raises(ZeroEntryError):
            rank1_decompose(MorphismMatrix(2, 1, 0, 0))
