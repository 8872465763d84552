"""Words, morphisms, fixed points, conjugation."""

import tracemalloc

import numpy as np
import pytest

from abmorph import (
    BadLetterError,
    BinaryMorphism,
    ErasingImageError,
    MorphismSyntaxError,
    NotProlongableError,
    Word,
    compose,
    conjugate_normalize,
    fixed_point_prefix,
    parikh,
    parse_morphism,
    power_lengths,
    primitive_root,
    square,
)
from abmorph.words import _CHUNK
from conftest import random_morphism
from oracles import (
    last_round_lengths,
    naive_apply,
    naive_fixed_point,
    naive_fixed_point_codes,
    naive_parikh,
    naive_power,
)


class TestWord:
    def test_roundtrip(self):
        for s in ["", "a", "b", "ab", "bbaa", "abab" * 10]:
            assert str(Word.from_str(s)) == s

    def test_equality_accepts_str(self):
        assert Word.from_str("ab") == "ab"
        assert Word.from_str("ab") != "ba"
        assert Word.empty() == ""

    def test_equality_with_other_text_is_false(self):
        w = Word.from_str("ab")
        assert w != "abc"
        assert w != "xy"
        assert w != "é"
        assert not Word.empty() == "c"
        assert w in ["xy", "ab"]
        assert w not in ["xy", "abc"]

    def test_repr_truncates_past_40_letters(self):
        assert repr(Word.from_str("ab" * 20)) == f"Word({'ab' * 20!r})"
        long = "ab" * 20 + "a"
        assert repr(Word.from_str(long)) == f"Word({long[:37] + '...'!r})"
        assert repr(Word.empty()) == "Word('')"

    def test_indexing_and_slicing(self):
        w = Word.from_str("abba")
        assert w[0] == "a"
        assert w[-1] == "a"
        assert w[1:3] == "bb"
        assert isinstance(w[1:3], Word)
        assert len(w) == 4

    def test_iteration(self):
        assert list(Word.from_str("aba")) == ["a", "b", "a"]

    def test_concatenation(self):
        assert Word.from_str("ab") + Word.from_str("ba") == "abba"

    def test_hash_consistency(self):
        assert hash(Word.from_str("ab")) == hash(Word.from_str("ab"))
        assert len({Word.from_str("ab"), Word.from_str("ab")}) == 1

    def test_bad_letters_rejected(self):
        with pytest.raises(BadLetterError):
            Word.from_str("abc")
        with pytest.raises(BadLetterError):
            Word.from_str("a b")

    def test_data_is_readonly(self):
        w = Word.from_str("ab")
        with pytest.raises(ValueError):
            w.data[0] = 1

    @pytest.mark.parametrize("data", [
        [0.5, 1.9],  # a cast first reads these as "ab"
        np.array([257]),  # a cast first wraps this to "b"
        [-1],  # a cast first raises OverflowError
        np.array([0, 2], dtype=np.int8),
        np.array([True, False]),
        ["a"],
    ])
    def test_codes_checked_before_the_cast(self, data):
        with pytest.raises(BadLetterError):
            Word(data)

    def test_integer_codes_of_any_width(self):
        assert Word([]) == ""
        assert Word(np.array([0, 1, 1], dtype=np.int64)) == "abb"
        assert Word(np.array([1, 0], dtype=np.int8)) == "ba"
        assert Word([0, 1]) == "ab"


class TestParikh:
    def test_basic(self):
        assert parikh("abba").as_tuple() == (2, 2)
        assert parikh("").as_tuple() == (0, 0)
        assert parikh("bbb").as_tuple() == (0, 3)

    def test_homomorphism_law(self, rng):
        # parikh(uv) = parikh(u) + parikh(v), exact.
        for _ in range(300):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 30)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 30)))
            assert parikh(u + v) == parikh(u) + parikh(v)

    def test_length_and_subtraction(self):
        p = parikh("aabab")
        assert p.length == 5
        assert (p - parikh("ab")).as_tuple() == (2, 1)


class TestBinaryMorphism:
    def test_apply_matches_naive(self, rng):
        for _ in range(200):
            f = random_morphism(rng)
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
            ia, ib = str(f.image_a), str(f.image_b)
            assert f.apply(u) == naive_apply(ia, ib, u)

    def test_call_alias(self):
        f = parse_morphism("a->ab; b->ba")
        assert f("ab") == f.apply("ab")

    def test_erasing_rejected(self):
        with pytest.raises(ErasingImageError):
            BinaryMorphism("", "b")
        with pytest.raises(ErasingImageError):
            BinaryMorphism("ab", "")

    def test_prolongable(self):
        assert parse_morphism("a->ab; b->b").is_prolongable
        assert not parse_morphism("a->ba; b->ab").is_prolongable
        assert not parse_morphism("a->a; b->ab").is_prolongable
        with pytest.raises(NotProlongableError):
            parse_morphism("a->ba; b->ab").require_prolongable()

    def test_compose_is_function_composition(self, rng):
        for _ in range(100):
            f = random_morphism(rng, prolongable=False)
            g = random_morphism(rng, prolongable=False)
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 15)))
            assert compose(f, g).apply(u) == f.apply(g.apply(u))

    def test_square(self):
        f = parse_morphism("a->ab; b->bbaa")
        assert square(f) == compose(f, f)
        assert square(f).image_a == "abbbaa"

    def test_equality_and_hash(self):
        f = parse_morphism("a->ab; b->ba")
        g = BinaryMorphism("ab", "ba")
        assert f == g and hash(f) == hash(g)
        assert f != parse_morphism("a->ab; b->ab")

    def test_repr(self):
        f = parse_morphism("a->ab; b->bbaa")
        assert repr(f) == "BinaryMorphism('a->ab; b->bbaa')"

    def test_immutable(self):
        f = parse_morphism("a->ab; b->ba")
        with pytest.raises(AttributeError):
            f.image_a = Word.from_str("b")
        with pytest.raises(AttributeError):
            f.other = 1
        assert f.image_a == "ab"


class TestParseMorphism:
    def test_arrow_syntax(self):
        f = parse_morphism("a->ab; b->bbaa")
        assert (str(f.image_a), str(f.image_b)) == ("ab", "bbaa")

    def test_whitespace_and_trailing_semicolon(self):
        assert parse_morphism("  a -> ab ;  b -> ba ; ") == \
            parse_morphism("a->ab; b->ba")

    def test_json_syntax(self):
        f = parse_morphism('{"a": "ab", "b": "bbaa"}')
        assert f == parse_morphism("a->ab; b->bbaa")

    def test_to_text_roundtrip(self, rng):
        for _ in range(50):
            f = random_morphism(rng, prolongable=False)
            assert parse_morphism(f.to_text()) == f

    @pytest.mark.parametrize("bad, err", [
        ("", MorphismSyntaxError),
        ("a->ab", MorphismSyntaxError),
        ("b->ab; a->ba", MorphismSyntaxError),  # rules must come in a, b order
        ("a->ab; b->ba; a->ab", MorphismSyntaxError),
        ("a=>ab; b=>ba", MorphismSyntaxError),
        ("a->ab; b->cd", BadLetterError),
        ('{"a": "ab"}', MorphismSyntaxError),
        ('{"a": 1, "b": "ba"}', MorphismSyntaxError),
        ("a->; b->b", ErasingImageError),
    ])
    def test_rejects_malformed(self, bad, err):
        with pytest.raises(err):
            parse_morphism(bad)


class TestFixedPoint:
    def test_worked_prefix(self):
        f = parse_morphism("a->ab; b->bbaa")
        assert fixed_point_prefix(f, 18) == "abbbaabbaabbaaabab"

    def test_matches_naive(self, rng):
        for _ in range(60):
            f = random_morphism(rng)
            n = rng.randint(1, 400)
            ia, ib = str(f.image_a), str(f.image_b)
            assert fixed_point_prefix(f, n) == naive_fixed_point(ia, ib, n)

    def test_prefix_nesting(self, rng):
        # Any shorter prefix is a prefix of any longer one.
        for _ in range(30):
            f = random_morphism(rng)
            long = fixed_point_prefix(f, 500)
            n = rng.randint(0, 500)
            assert long[:n] == fixed_point_prefix(f, n)

    def test_stationary_tail(self):
        # Images of b may be a single letter; growth then comes from a only.
        f = parse_morphism("a->ab; b->b")
        assert fixed_point_prefix(f, 6) == "abbbbb"
        g = parse_morphism("a->aab; b->b")
        assert fixed_point_prefix(g, 10) == naive_fixed_point("aab", "b", 10)

    def test_zero_length(self):
        f = parse_morphism("a->ab; b->ba")
        assert fixed_point_prefix(f, 0) == ""

    def test_requires_prolongable(self):
        with pytest.raises(NotProlongableError):
            fixed_point_prefix(parse_morphism("a->ba; b->ab"), 5)

    def test_last_round_is_capped(self):
        # Each round expands only the letters whose images reach the
        # requested length; expanding the whole last block peaks near 23.5 MiB.
        f = parse_morphism("a->aaabaaabaaababbb; b->aaababbbabbbabbb")
        tracemalloc.start()
        try:
            w = fixed_point_prefix(f, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) == 10**5
        assert peak <= 4 * 2**20

    def test_fixed_point_is_fixed(self, rng):
        # f(prefix) starts with the prefix itself.
        for _ in range(30):
            f = random_morphism(rng)
            w = fixed_point_prefix(f, 200)
            assert f.apply(w)[:200] == w


class TestPowerLengths:
    def test_zero_is_identity(self):
        f = parse_morphism("a->ab; b->ba")
        assert power_lengths(f, 0) == (1, 1)

    def test_matches_naive(self, rng):
        for _ in range(40):
            f = random_morphism(rng, max_len=4, prolongable=False)
            t = rng.randint(0, 6)
            ia, ib = str(f.image_a), str(f.image_b)
            expected = (len(naive_power(ia, ib, "a", t)),
                        len(naive_power(ia, ib, "b", t)))
            assert power_lengths(f, t) == expected

    def test_worked_example(self):
        f = parse_morphism("a->ab; b->bbaa")
        assert power_lengths(f, 5) == (162, 324)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("u,root", [
        ("abab", "ab"),
        ("aba", "aba"),
        ("aaaa", "a"),
        ("", ""),
        ("abba", "abba"),
        ("ababab", "ab"),
    ])
    def test_golden(self, u, root):
        assert primitive_root(u) == root

    def test_root_properties(self, rng):
        for _ in range(200):
            base = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
            u = base * rng.randint(1, 5)
            r = primitive_root(u)
            assert len(u) % len(r) == 0
            assert str(r) * (len(u) // len(r)) == u
            assert primitive_root(r) == r


class TestConjugateNormalize:
    def test_already_normalized(self):
        f = parse_morphism("a->ab; b->ba")
        res = conjugate_normalize(f)
        assert res.kind == "normalized"
        assert res.morphism == f
        assert res.shift_word == ""
        assert res.power == 1

    def test_shift_identity(self, rng):
        # shift . g(w) == f(w) . shift for every word w.
        cases = 0
        for _ in range(400):
            f = random_morphism(rng, prolongable=False)
            res = conjugate_normalize(f)
            if res.kind != "normalized" or res.power != 1:
                continue
            cases += 1
            g, s = res.morphism, res.shift_word
            w = Word.from_str(
                "".join(rng.choice("ab") for _ in range(rng.randint(0, 12))))
            assert s + g.apply(w) == f.apply(w) + s
        assert cases >= 50

    @pytest.mark.parametrize("text", ["a->ba; b->ab", "a->bba; b->bab"])
    def test_swapped_square(self, text, rng):
        # Images that swap starting letters force passing to the square.
        f = parse_morphism(text)
        res = conjugate_normalize(f)
        assert res.kind == "swapped_square"
        assert res.power == 2
        g, s = res.morphism, res.shift_word
        assert g.image_a[0] == "a" and g.image_b[0] == "b"
        for _ in range(30):
            w = Word.from_str(
                "".join(rng.choice("ab") for _ in range(rng.randint(0, 12))))
            assert s + g.apply(w) == square(f).apply(w) + s

    def test_swapped_square_no_shift(self):
        res = conjugate_normalize(parse_morphism("a->ba; b->ab"))
        assert res.morphism == parse_morphism("a->abba; b->baab")
        assert res.shift_word == ""

    def test_power_of_common_word(self):
        res = conjugate_normalize(parse_morphism("a->abab; b->ab"))
        assert res.kind == "power_of_common_word"

    def test_worked_case(self):
        res = conjugate_normalize(parse_morphism("a->ba; b->bab"))
        assert res.kind == "normalized"
        assert res.morphism == parse_morphism("a->ab; b->bab")
        assert res.shift_word == "bab"
        assert res.power == 1


def _codes(text: str) -> list[int]:
    return ["ab".index(c) for c in text]


class TestInPlaceKernel:
    """The chunked in-place expansion against plain string expansion."""

    def test_lengths_around_chunk_boundaries(self, rng):
        # 0, 1, |f(a)|, and the lengths at which the last round stops at
        # block letter _CHUNK - 1, _CHUNK or _CHUNK + 1.
        checked = 0
        while checked < 4:
            f = random_morphism(rng)
            ia, ib = str(f.image_a), str(f.image_b)
            if ib == "b" and set(ia[1:]) <= {"b"}:
                continue  # stationary b-blocks: the blocks never grow
            images = [_codes(ia), _codes(ib)]
            lengths = [0, 1, len(ia)]
            for m in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
                lengths += last_round_lengths(images, m)
            want = "".join("ab"[c] for c in naive_fixed_point_codes(images, max(lengths)))
            for n in lengths:
                assert fixed_point_prefix(f, n) == want[:n], (f, n)
            checked += 1

    @pytest.mark.parametrize("text", ["a->ab; b->b", "a->abbb; b->b"])
    def test_stationary_tail_past_a_chunk(self, text):
        f = parse_morphism(text)
        for n in (0, 1, len(f.image_a), 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1):
            assert fixed_point_prefix(f, n) == ("a" + "b" * n)[:n]

    def test_slow_growth_past_a_chunk(self):
        f = parse_morphism("a->aab; b->b")
        for n in (3, 2 * _CHUNK - 1, 2 * _CHUNK + 1, 5 * _CHUNK):
            assert fixed_point_prefix(f, n) == naive_fixed_point("aab", "b", n)

    def test_apply_longer_than_a_chunk(self, rng):
        # images of one length, of two lengths, skewed ones, and the empty
        # word, each into a read-only word
        u = "".join(rng.choice("ab") for _ in range(3 * _CHUNK + 5))
        for text, n in [("a->ab; b->ba", len(u)), ("a->abbabaab; b->baababba", len(u)),
                        ("a->ab; b->bbaa", len(u)), (SKEWED, _CHUNK + 5)]:
            f = parse_morphism(text)
            ia, ib = str(f.image_a), str(f.image_b)
            for v in ("", u[:n]):
                got = f.apply(v)
                assert not got.data.flags.writeable, (text, len(v))
                assert got == naive_apply(ia, ib, v), (text, len(v))

    def test_prefix_is_a_read_only_word(self):
        w = fixed_point_prefix(parse_morphism("a->ab; b->ba"), 10)
        assert isinstance(w, Word) and not w.data.flags.writeable
        assert w == "abbabaabba"

    @pytest.mark.parametrize("text", ["a->ab; b->ba", "a->ab; b->a", "a->ab; b->bbaa"])
    def test_memory_per_letter(self, text):
        # The buffer is one byte per letter and the gather temporaries are
        # bounded by the chunk; int64 temporaries as long as the word would
        # peak at 12-19 bytes per letter.
        f = parse_morphism(text)
        n = 2 * 10**6
        tracemalloc.start()
        try:
            w = fixed_point_prefix(f, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) == n
        assert peak / n <= 2.5


SKEWED = "a->a" + "b" * 300 + "a; b->b"


def _expansion_lengths(images: list[list[int]], step: int) -> list[int]:
    """0, 1, |f(a)| and the lengths at which the last round stops around
    the row gather's chunk boundaries (step input letters per gather)."""
    lengths = [0, 1, len(images[0])]
    for m in (step - 1, step, step + 1):
        lengths += last_round_lengths(images, m)
    return lengths


class TestRowGather:
    """The padded image table against naive expansion: images of one
    length are gathered straight into the buffer, skewed ones compressed
    by their padding mask, _CHUNK // width input letters at a time."""

    def test_skewed_images(self):
        f = parse_morphism(SKEWED)
        images = [_codes(str(f.image_a)), _codes(str(f.image_b))]
        lengths = _expansion_lengths(images, _CHUNK // 302)
        lengths += last_round_lengths(images, _CHUNK)
        want = naive_fixed_point_codes(images, max(lengths))
        for n in lengths:
            assert fixed_point_prefix(f, n).data.tolist() == want[:n], n

    @pytest.mark.parametrize("width", [2, 3, 16])
    def test_equal_length_images(self, rng, width):
        for _ in range(3):
            ia = "a" + "".join(rng.choice("ab") for _ in range(width - 1))
            ib = "".join(rng.choice("ab") for _ in range(width))
            f = parse_morphism(f"a->{ia}; b->{ib}")
            images = [_codes(ia), _codes(ib)]
            lengths = _expansion_lengths(images, _CHUNK // width)
            want = naive_fixed_point_codes(images, max(lengths))
            for n in lengths:
                assert fixed_point_prefix(f, n).data.tolist() == want[:n], (f, n)

    def test_skewed_memory_per_letter(self):
        # Rows padded to width 302 and gathered _CHUNK input letters at a
        # time would hold about 40 MB of rows and mask; scaling each gather
        # down by the width keeps them under _CHUNK letters.
        f = parse_morphism(SKEWED)
        n = 10**6
        tracemalloc.start()
        try:
            w = fixed_point_prefix(f, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) == n
        assert peak / n <= 1.5
