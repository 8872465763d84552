"""Exact eventual periodicity of fixed points."""

import math

import numpy as np
import pytest

from abmorph import (
    BinaryMorphism,
    Word,
    decide_periodic,
    default_search_bound,
    eq_eventually_periodic,
    fixed_point_prefix,
    abelian_period_oracle,
    parse_morphism,
    periodic_prefix,
    validate_abelian_period,
)
from abmorph.periodic import _smallest_period
from abmorph.words import _image
from conftest import random_morphism
from oracles import (
    eventually_periodic_prefix,
    naive_apply,
    naive_decide_periodic,
    naive_lcm,
    naive_smallest_period,
)


def W(s):
    return Word.from_str(s)


def random_nonprimitive(rng, max_len=5):
    """Prolongable morphism whose matrix is not primitive: f(b) in b+ or
    f(a) in a+."""
    def word(n):
        return "".join(rng.choice("ab") for _ in range(n))

    if rng.random() < 0.5:
        ia, ib = "a" + word(rng.randint(1, max_len - 1)), "b" * rng.randint(1, 3)
    else:
        ia, ib = "a" * rng.randint(2, max_len), word(rng.randint(1, max_len))
    return parse_morphism(f"a->{ia}; b->{ib}")


def presentation(verdict):
    if not verdict.found:
        return None
    return str(verdict.preperiod), str(verdict.period)


class TestPeriodicPrefix:
    def test_golden(self):
        assert periodic_prefix(W("a"), W("b"), 5) == "abbbb"
        assert periodic_prefix(W(""), W("ab"), 5) == "ababa"
        assert periodic_prefix(W("aab"), W("b"), 2) == "aa"
        assert periodic_prefix(W("a"), W("b"), 0) == ""

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="length must be >= 0"):
            periodic_prefix(W("aab"), W("ab"), -1)

    def test_matches_naive(self, rng):
        for _ in range(100):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            n = rng.randint(0, 40)
            assert periodic_prefix(W(u), W(w), n) == \
                eventually_periodic_prefix(u, w, n)


class TestEqEventuallyPeriodic:
    def test_representation_invariance(self, rng):
        # u w^w == (u w) w^w == u (w w)^w == (u w0) (rot w)^w
        for _ in range(100):
            u = W("".join(rng.choice("ab") for _ in range(rng.randint(0, 5))))
            w = W("".join(rng.choice("ab") for _ in range(rng.randint(1, 5))))
            assert eq_eventually_periodic(u, w, u + w, w)
            assert eq_eventually_periodic(u, w, u, w + w)
            assert eq_eventually_periodic(u, w, u + w[:1], w[1:] + w[:1])

    def test_detects_differences(self):
        assert not eq_eventually_periodic(W(""), W("ab"), W(""), W("ba"))
        assert not eq_eventually_periodic(W("a"), W("b"), W("b"), W("b"))
        assert not eq_eventually_periodic(W(""), W("ab"), W(""), W("abb"))

    def test_same_word_different_split(self):
        # ab(ab)^w == (abab)^w
        assert eq_eventually_periodic(W("ab"), W("ab"), W(""), W("abab"))


class TestDecidePeriodic:
    def test_golden_found(self):
        v = decide_periodic(parse_morphism("a->ab; b->b"))
        assert v.found
        assert (v.preperiod, v.period) == (W("a"), W("b"))
        v = decide_periodic(parse_morphism("a->aba; b->bab"))
        assert (v.preperiod, v.period) == (W(""), W("ab"))
        v = decide_periodic(parse_morphism("a->aa; b->ab"))
        assert (v.preperiod, v.period) == (W(""), W("a"))
        # the candidate starts at letter 1000; its period reaches back to 1
        v = decide_periodic(parse_morphism("a->ab; b->b"), 1, 1000)
        assert (v.preperiod, v.period) == (W("a"), W("b"))

    def test_golden_not_found(self):
        assert not decide_periodic(parse_morphism("a->ab; b->ba")).found
        assert not decide_periodic(parse_morphism("a->ab; b->a")).found
        v = decide_periodic(parse_morphism("a->aab; b->b"), 64, 64)
        assert v.status == "not_found"
        assert (v.max_period, v.max_preperiod) == (64, 64)

    def test_default_bounds_recorded(self):
        f = parse_morphism("a->ab; b->b")
        assert default_search_bound(f) == 36
        v = decide_periodic(f)
        assert v.max_period == 36 and v.max_preperiod == 36

    def test_found_matches_fixed_point(self):
        # The certificate reproduces the fixed point letter for letter.
        for text in ["a->ab; b->b", "a->aba; b->bab", "a->aa; b->ab",
                     "a->ab; b->abab"]:
            f = parse_morphism(text)
            v = decide_periodic(f)
            assert v.found
            n = 2000
            assert periodic_prefix(v.preperiod, v.period, n) == \
                fixed_point_prefix(f, n)

    def test_found_implies_abelian_witness(self):
        for text in ["a->ab; b->b", "a->aba; b->bab"]:
            f = parse_morphism(text)
            v = decide_periodic(f)
            w = fixed_point_prefix(f, 4000)
            r, p = len(v.preperiod), len(v.period)
            assert validate_abelian_period(w, r, p)
            wit = abelian_period_oracle(w, max(p, 1), r)
            assert wit is not None
            assert wit.preperiod <= r and wit.period <= p

    def test_matches_naive_grid(self, rng):
        # non-primitive morphisms as classify sends them, plus general ones
        for i in range(400):
            f = random_nonprimitive(rng) if i % 2 else random_morphism(rng)
            max_p, max_r = rng.randint(1, 6), rng.randint(0, 8)
            expected = naive_decide_periodic(
                str(f.image_a), str(f.image_b), max_p, max_r)
            assert presentation(decide_periodic(f, max_p, max_r)) == expected, f

    def test_matches_naive_grid_default_bounds(self, rng):
        texts = ["a->ab; b->b", "a->aab; b->b", "a->aa; b->ab",
                 "a->abb; b->bb", "a->aaa; b->bab", "a->aaaaaabb; b->b"]
        texts += [random_nonprimitive(rng, 4).to_text() for _ in range(3)]
        for text in texts:
            f = parse_morphism(text)
            bound = default_search_bound(f)
            expected = naive_decide_periodic(
                str(f.image_a), str(f.image_b), bound, bound)
            assert presentation(decide_periodic(f)) == expected, text

    @pytest.mark.parametrize("text, found, letters", [
        ("a->aaaaaabb; b->b", False, 0),
        ("a->aaaaaaab; b->bbb", False, 0),
        ("a->aaaaaaabbbbbbababbbbbb; b->b", False, 0),
        ("a->ab; b->b", True, 3),
        ("a->" + "a" * 300 + "; b->b", True, 300),
    ])
    def test_certifies_at_most_once(self, monkeypatch, text, found, letters):
        # A search certifies one candidate at most, with the shortest
        # preperiod: a spurious certification costs lcm(|w|, |f(w)|) letters
        # and a long preperiod |f(u)|, up to millions on these inputs.
        import abmorph.periodic as periodic

        compared = []

        def counted(u1, w1, u2, w2):
            compared.append(max(len(u1), len(u2)) + math.lcm(len(w1), len(w2)))
            return eq_eventually_periodic(u1, w1, u2, w2)

        monkeypatch.setattr(periodic, "eq_eventually_periodic", counted)
        assert decide_periodic(parse_morphism(text)).found == found
        assert len(compared) == 1 if found else len(compared) <= 1
        assert sum(compared) <= letters

    def test_period_bound_is_inclusive(self):
        # (ab)^omega and a b^omega: the period may equal max_period, not exceed it
        f = parse_morphism("a->aba; b->bab")
        assert presentation(decide_periodic(f, 2, 0)) == ("", "ab")
        assert not decide_periodic(f, 1, 4).found
        g = parse_morphism("a->ab; b->b")
        assert presentation(decide_periodic(g, 1, 1)) == ("a", "b")
        assert not decide_periodic(g, 1, 0).found

    def test_rejects_bad_bounds(self):
        f = parse_morphism("a->ab; b->b")
        with pytest.raises(ValueError):
            decide_periodic(f, max_period=0)
        with pytest.raises(ValueError):
            decide_periodic(f, max_preperiod=-1)

    def test_requires_prolongable(self):
        from abmorph import NotProlongableError

        with pytest.raises(NotProlongableError):
            decide_periodic(parse_morphism("a->ba; b->ab"))


class TestSmallestPeriodStep:
    """decide_periodic's period step: one bytes.find over a tail of exactly
    4 max_period letters, kept when it is a period (Fine-Wilf makes it the
    smallest)."""

    @staticmethod
    def _tail(rng, pre: int, period: int, length: int) -> bytes:
        u = bytes(rng.randrange(2) for _ in range(pre))
        w = bytes(rng.randrange(2) for _ in range(period))
        return (u + w * (length // period + 1))[:length]

    def test_matches_naive_around_the_bound(self, rng):
        for _ in range(1500):
            max_p = rng.randint(1, 40)
            period = max(1, max_p + rng.choice([-1, 0, 1]))
            pre = rng.choice([0, 0, 1, 2, 5])
            s = self._tail(rng, pre, period, 4 * max_p)
            q = naive_smallest_period(s)
            assert _smallest_period(s, max_p) == (q if q <= max_p else None), (s, max_p)

    def test_matches_naive_on_short_periods(self, rng):
        # Periods well below the bound, where an earlier occurrence of the
        # needle could only come from a smaller period.
        for _ in range(500):
            max_p = rng.randint(2, 40)
            s = self._tail(rng, rng.choice([0, 3]), rng.randint(1, max_p), 4 * max_p)
            q = naive_smallest_period(s)
            assert _smallest_period(s, max_p) == (q if q <= max_p else None), (s, max_p)

    def test_skewed_linear_growth_is_pinned(self):
        # f^omega(a) = (a b^300)^omega: the default search finds it at once,
        # with no preperiod and the 301-letter period.
        v = decide_periodic(parse_morphism("a->a" + "b" * 300 + "a; b->b"))
        assert v.status == "periodic"
        assert str(v.preperiod) == ""
        assert len(v.period) == 301
        assert str(v.period) == "a" + "b" * 300


class TestCertificateOnBytes:
    """decide_periodic builds f(u) and f(w) from the images by bytes.replace,
    and compares prefixes of u w^omega as bytes; the certificate's words are
    slices of the fixed-point prefix."""

    @staticmethod
    def _word(rng, n):
        return "".join(rng.choice("ab") for _ in range(n))

    def test_image_matches_apply(self, rng):
        for _ in range(300):
            f = BinaryMorphism(self._word(rng, rng.randint(1, 8)),
                               self._word(rng, rng.randint(1, 8)))
            ia, ib = f.image_a.data.tobytes(), f.image_b.data.tobytes()
            for n in (0, 1, rng.randint(2, 40), rng.randint(41, 300)):
                u = W(self._word(rng, n))
                got = _image(u.data.tobytes(), ia, ib)
                assert got == f.apply(u).data.tobytes(), (f, str(u))
                assert Word._adopt(np.frombuffer(got, dtype=np.uint8)) == \
                    naive_apply(str(f.image_a), str(f.image_b), str(u))

    def test_word_views_match_naive_strings(self, rng):
        # Words that are views into a longer prefix, at an offset and with
        # a stride, as well as whole words.
        base = fixed_point_prefix(parse_morphism("a->ab; b->bbaa"), 600)
        text = str(base)
        for _ in range(300):
            spans = []
            for _ in range(4):
                i = rng.randint(0, 500)
                j = i + rng.randint(0, 12)
                step = rng.choice([1, 1, 2])
                spans.append((i, j, step))
            u1, w1, u2, w2 = (Word._adopt(base.data[i:j:step]) for i, j, step in spans)
            s1, t1, s2, t2 = (text[i:j:step] for i, j, step in spans)
            n = rng.randint(0, 60)
            if len(w1):
                assert periodic_prefix(u1, w1, n) == eventually_periodic_prefix(s1, t1, n)
            if len(w1) and len(w2):
                m = max(len(s1), len(s2)) + naive_lcm(len(t1), len(t2))
                want = eventually_periodic_prefix(s1, t1, m) == eventually_periodic_prefix(s2, t2, m)
                assert eq_eventually_periodic(u1, w1, u2, w2) == want
                # a view against itself, rotated by a whole period
                assert eq_eventually_periodic(u1, w1, u1 + w1, w1)
