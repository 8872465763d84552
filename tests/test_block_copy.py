"""Block-copy prefix expansion: once the blocks f^j(c) are long, a prefix of
the fixed point is those blocks copied in the order of a short head. Checked
against naive expansion around the switch to block copy and around block
boundaries, and through lift_verify, which reads the same blocks as a
stream."""

import time
import tracemalloc

import numpy as np
import pytest

from abmorph import (
    UniformLift,
    build_lift,
    fixed_point_prefix,
    lift_fixed_prefix,
    lift_verify,
    matrix_of,
    parse_morphism,
    rank1_decompose,
)
from abmorph.words import _BLOCK_FROM, _CHUNK, _block_rounds
from conftest import random_morphism
from oracles import naive_fixed_point, naive_fixed_point_codes, state_switch_lengths


def _images(f):
    return [f.image_a.data, f.image_b.data]


def _lift_of(f):
    return build_lift(f, rank1_decompose(matrix_of(f)))


def _block_ends(images, length: int, want: list[int]) -> list[int]:
    """Where the blocks f^j(c) end in a prefix of `length` letters, read off
    the naive prefix `want`: the running sums of the block sizes of its
    letters. Empty when the prefix is built by rounds."""
    rounds = _block_rounds(images, length)
    if rounds is None:
        return []
    sizes = list(rounds[-1])
    ends, end = [], 0
    for c in want:
        end += sizes[c]
        if end > length:
            return ends
        ends.append(end)
    raise AssertionError("the naive prefix is shorter than the head")


def _lengths(images, want: list[int]) -> list[int]:
    """The lengths around the switch to block copy, and around the first
    block end past the switch and the last block end of the prefixes of
    3/4 and all of `want`, each kept where its neighbours share the block
    plan of that prefix."""
    lengths = [_BLOCK_FROM - 1, _BLOCK_FROM, _BLOCK_FROM + 1]
    for near in (3 * len(want) // 4, len(want) - 2):
        plan = _block_rounds(images, near)
        ends = [e for e in _block_ends(images, near, want) if e > _BLOCK_FROM]
        for e in ends[:1] + ends[-1:]:
            plans = [_block_rounds(images, n) for n in (e - 1, e, e + 1)]
            if all(p is not None and len(p) == len(plan) for p in plans):
                lengths += [e - 1, e, e + 1]
    return sorted(set(n for n in lengths if n < len(want)))


class TestAgainstNaive:
    def test_random_morphisms(self, rng):
        blocked = 0
        for _ in range(8):
            f = random_morphism(rng)
            if str(f.image_b) == "b":
                continue  # b never grows: covered by TestFallbacks
            images = [im.tolist() for im in _images(f)]
            want = naive_fixed_point_codes(images, 2**20)
            lengths = _lengths(_images(f), want)
            blocked += len(lengths) > 3
            for n in lengths:
                got = fixed_point_prefix(f, n)
                assert got.data.tolist() == want[:n], (f, n)
        assert blocked >= 3  # most draws reach block copy

    def test_int32_lift_tables(self):
        # A lift expands by its own k-uniform rows: the rows of all i (k-1)
        # known states past state i per step, then of _CHUNK // k at a time.
        for text, k in [("a->ab; b->ba", 2), ("a->ab; b->bbaa", 3),
                        ("a->aaaaaaabbbbbbb; b->" + "ba" * 7, 14)]:
            lift = _lift_of(parse_morphism(text))
            assert lift.k == k
            lengths = state_switch_lengths(k, _CHUNK)
            want = naive_fixed_point_codes([list(im) for im in lift.images], max(lengths))
            for n in lengths:
                got = lift_fixed_prefix(lift, n)
                assert got.dtype == np.int32
                assert got.tolist() == want[:n], (text, n)

    @pytest.mark.parametrize("text", ["a->ab; b->ba", "a->ab; b->a", "a->ab; b->bbaa"])
    def test_blocks_pay_at_the_bench_size(self, text):
        rounds = _block_rounds(_images(parse_morphism(text)), 10**7)
        assert rounds is not None and len(rounds) > 2


class TestFallbacks:
    """A letter that stops growing keeps the rounds."""

    @pytest.mark.parametrize("text", ["a->aab; b->b", "a->ab; b->b",
                                      "a->a" + "b" * 300 + "a; b->b"])
    def test_non_growing_letter(self, text):
        # found from the sizes within a few rounds, not once the growing
        # letter alone outweighs length / 8 (10**6 rounds for a->ab; b->b)
        f = parse_morphism(text)
        start = time.perf_counter()
        for n in (_BLOCK_FROM, 10**7):
            assert _block_rounds(_images(f), n) is None
        assert time.perf_counter() - start < 1

    def test_aab_b_against_naive(self):
        f = parse_morphism("a->aab; b->b")
        want = naive_fixed_point("aab", "b", 2 * _BLOCK_FROM)
        for n in (_BLOCK_FROM - 1, _BLOCK_FROM, _BLOCK_FROM + 1, 2 * _BLOCK_FROM):
            assert fixed_point_prefix(f, n) == want[:n]

    def test_ab_b_against_closed_form(self):
        # naive expansion adds one letter per round here: quadratic
        f = parse_morphism("a->ab; b->b")
        for n in (_BLOCK_FROM - 1, _BLOCK_FROM, _BLOCK_FROM + 1):
            assert fixed_point_prefix(f, n) == "a" + "b" * (n - 1)

    def test_short_and_already_long(self):
        f = parse_morphism("a->ab; b->ba")
        assert _block_rounds(_images(f), _BLOCK_FROM - 1) is None
        # images of 2**15 letters reach 16 sqrt(2**22) in one round
        g = parse_morphism("a->a" + "b" * (2**15 - 1) + "; b->" + "a" * 2**15)
        assert _block_rounds(_images(g), 2**22) is None


class TestTooLarge:
    @pytest.mark.parametrize("text", ["a->ab; b->ba", "a->ab; b->a", "a->ab; b->bbaa"])
    def test_fails_before_any_block(self, text):
        # the buffer of 10**15 letters is asked for before the blocks
        start = time.perf_counter()
        with pytest.raises(MemoryError):
            fixed_point_prefix(parse_morphism(text), 10**15)
        assert time.perf_counter() - start < 5

    def test_lift_table(self):
        start = time.perf_counter()
        with pytest.raises(MemoryError):
            lift_fixed_prefix(_lift_of(parse_morphism("a->ab; b->bbaa")), 10**15)
        assert time.perf_counter() - start < 5


def _flipped_from(lift: UniformLift, d: int) -> UniformLift:
    """An automaton that outputs the lift's letter at positions of fewer
    than d base-k digits and the other letter from position k^(d-1) on.

    Its states pair a lift state s with the count c of digits read since the
    first nonzero one, capped at d; state 0 is (0, 0), which digit 0 keeps.
    Only lift_verify reads it, so its states are all counted as a's."""
    n, k = lift.size, lift.k
    other = {"a": "b", "b": "a"}

    def state(s: int, c: int) -> int:
        return 0 if c == 0 else 1 + (c - 1) * n + s

    images = [tuple(state(t, int(digit != 0)) for digit, t in enumerate(lift.images[0]))]
    coding = [lift.coding[0]]
    for c in range(1, d + 1):
        for s in range(n):
            images.append(tuple(state(t, min(c + 1, d)) for t in lift.images[s]))
            coding.append(other[lift.coding[s]] if c == d else lift.coding[s])
    return UniformLift(len(images), 0, k, tuple(images), tuple(coding))


class TestVerifyStream:
    @pytest.mark.parametrize("text, d", [("a->ab; b->ba", 20), ("a->ab; b->bbaa", 13)])
    def test_rejects_at_the_first_wrong_letter_past_a_block(self, text, d):
        f = parse_morphism(text)
        lift = _lift_of(f)
        first = lift.k ** (d - 1)
        rounds = _block_rounds(_images(f), first + 1)
        assert rounds is not None and first > rounds[-1][0]  # past f^j(a)
        bad = _flipped_from(lift, d)
        assert lift_verify(f, bad, first)
        for n in (first + 1, first + 2, 4 * first):
            assert not lift_verify(f, bad, n), n
        assert lift_verify(f, lift, 4 * first)

    @pytest.mark.parametrize("text, bound", [("a->ab; b->ba", 0.1), ("a->ab; b->bbaa", 0.12)])
    def test_memory_per_letter_at_scale(self, text, bound):
        # Only the blocks, the F^j rows and one chunk buffer are held; a
        # second 10**7-letter prefix read 1.05 bytes per letter. On
        # a->ab; b->bbaa the row gather of the last block round adds its
        # int64 compress indices, about 0.4 MB at any length.
        f = parse_morphism(text)
        lift = _lift_of(f)
        n = 10**7
        tracemalloc.start()
        try:
            ok = lift_verify(f, lift, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak / n < bound
