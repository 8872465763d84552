"""Words and morphisms as values: coercion, hashing against str, and the
checks a morphism makes when it is built."""

import random
from itertools import product

import pytest

from abmorph import (
    BinaryMorphism,
    ErasingImageError,
    Word,
    conjugate_normalize,
    parikh,
    parse_morphism,
    special_form_exponents,
)
from conftest import random_morphism
from oracles import naive_conjugate_normalize


class TestWordOf:
    def test_word_is_returned_as_is(self):
        w = Word.from_str("abba")
        assert Word.of(w) is w

    def test_str_is_spelled(self):
        assert Word.of("abba") == Word.from_str("abba")
        assert isinstance(Word.of(""), Word)

    @pytest.mark.parametrize("value", [["a", "b"], b"ab", 1, None])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            Word.of(value)


class TestHashAgreesWithEquality:
    def test_word_found_in_str_set(self):
        assert "ab" in {Word.from_str("ab")}

    def test_str_found_in_word_set(self):
        assert Word.from_str("ab") in {"ab"}

    def test_mixed_dict_keys(self):
        d = {Word.from_str("ab"): 1, "ba": 2}
        assert d["ab"] == 1 and d[Word.from_str("ba")] == 2
        d["ab"] = 3
        assert len(d) == 2 and d[Word.from_str("ab")] == 3

    def test_empty_word(self):
        assert "" in {Word.empty()} and Word.empty() in {""}

    def test_morphism_from_str_and_word(self):
        f = BinaryMorphism("ab", "bbaa")
        g = BinaryMorphism(Word.from_str("ab"), Word.from_str("bbaa"))
        assert f == g and hash(f) == hash(g)
        assert len({f, g, parse_morphism("a->ab; b->bbaa")}) == 1


class TestMorphismChecks:
    def test_images_are_words(self):
        f = BinaryMorphism("ab", Word.from_str("ba"))
        assert isinstance(f.image_a, Word) and isinstance(f.image_b, Word)

    def test_list_image_rejected_at_the_call(self):
        with pytest.raises(TypeError):
            BinaryMorphism(["a", "b"], "ba")

    def test_parikh_rejects_a_list(self):
        with pytest.raises(TypeError):
            parikh(["a"])

    @pytest.mark.parametrize("images", [("", "x"), ("x", ""), ("", "")])
    def test_erasing_before_letters(self, images):
        with pytest.raises(ErasingImageError):
            BinaryMorphism(*images)

    def test_parse_agrees(self):
        with pytest.raises(ErasingImageError):
            parse_morphism("a->; b->x")
        with pytest.raises(ErasingImageError):
            parse_morphism('{"a": "ab", "b": ""}')


def _alternating(u: str, first: str) -> bool:
    return len(u) % 2 == 1 and u[0] == first and all(
        x != y for x, y in zip(u, u[1:]))


def test_special_form_exponents_brute_force():
    texts = ["".join(p) for n in range(1, 8) for p in product("ab", repeat=n)]
    words = [(t, Word.from_str(t)) for t in texts]
    special = 0
    for (ta, wa), (tb, wb) in product(words, words):
        expected = None
        if _alternating(ta, "a") and _alternating(tb, "b"):
            expected = ((len(ta) - 1) // 2, (len(tb) - 1) // 2)
            special += 1
        assert special_form_exponents(BinaryMorphism(wa, wb)) == expected
    assert special == 16


def test_conjugate_normalize_matches_shift_loop():
    rng = random.Random(0xC0A1)
    kinds = set()
    for _ in range(400):
        f = random_morphism(rng, max_len=8, prolongable=False)
        res = conjugate_normalize(f)
        got = (res.kind, str(res.morphism.image_a), str(res.morphism.image_b),
               str(res.shift_word), res.power)
        assert got == naive_conjugate_normalize(str(f.image_a), str(f.image_b))
        kinds.add(res.kind)
    assert kinds == {"normalized", "swapped_square", "power_of_common_word"}
