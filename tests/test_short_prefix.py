"""The two kernels under every short-prefix scan: prefix expansion by block
concatenation (words._expand_rounds, reached through _expand_prefix below
_BLOCK_FROM letters) and the prefix a-counts taken eight letters per word
(analysis._prefix_counts). Both are checked against naive references, and
their peak memory is pinned with tracemalloc."""

import random
import tracemalloc

import numpy as np
import pytest

from abmorph import (
    Word,
    build_lift,
    fixed_point_prefix,
    lift_fixed_prefix,
    matrix_of,
    parse_morphism,
    rank1_decompose,
)
from abmorph.analysis import _COUNT_CHUNK, _prefix_counts
from abmorph import words
from abmorph.words import _BLOCK_FROM, _BYTE_ROUNDS, _byte_rounds, _expand_prefix, _expand_rounds
from conftest import random_morphism, random_rank1_morphism
from oracles import naive_apply, naive_fixed_point, naive_fixed_point_codes

NAIVE_MAX = 3000  # longest prefix built by the naive references
ROUNDS = 30  # block lengths |f^t(a)| tried, t = 1 .. ROUNDS


def _lengths(block_lengths: list[int]) -> list[int]:
    """0, 1 and |f^t(a)| - 1, |f^t(a)|, |f^t(a)| + 1 for the first ROUNDS
    block lengths up to NAIVE_MAX."""
    out = {0, 1}
    for n in block_lengths[:ROUNDS]:
        if n > NAIVE_MAX:
            break
        out.update((n - 1, n, n + 1))
    return sorted(out)


def _binary_lengths(ia: str, ib: str) -> list[int]:
    sizes, w = [], "a"
    for _ in range(ROUNDS):
        w = naive_apply(ia, ib, w)
        sizes.append(len(w))
        if len(w) > NAIVE_MAX:
            break
    return _lengths(sizes)


def _table_lengths(images: list[list[int]]) -> list[int]:
    sizes, w = [], [0]
    while len(w) <= NAIVE_MAX and len(sizes) < ROUNDS:
        w = [c for s in w for c in images[s]]
        sizes.append(len(w))
    return _lengths(sizes)


def _check_binary(text: str) -> None:
    f = parse_morphism(text)
    ia, ib = str(f.image_a), str(f.image_b)
    images = [f.image_a.data, f.image_b.data]
    want = naive_fixed_point(ia, ib, NAIVE_MAX + 1)
    for n in _binary_lengths(ia, ib):
        got = _expand_prefix(images, n)
        assert got.dtype == np.uint8
        assert str(Word(got)) == want[:n], (text, n)


class TestExpandAgainstNaive:
    """_expand_prefix below _BLOCK_FROM is _expand_rounds: block
    concatenation while the blocks are small, row gathers past that."""

    def test_seeded_binary_morphisms(self, rng):
        for _ in range(150):
            f = random_morphism(rng, max_len=rng.choice([3, 5, 9]))
            if f.lengths() != (1, 1):
                _check_binary(f.to_text())

    @pytest.mark.parametrize("j", [1, 2, 3, 7, 300])
    def test_linear_growth(self, j):
        _check_binary(f"a->a{'b' * j}; b->b")

    @pytest.mark.parametrize("text", ["a->ab; b->a", "a->aab; b->a", "a->abb; b->a",
                                      "a->abab; b->a", "a->aba; b->a"])
    def test_b_maps_to_a(self, text):
        _check_binary(text)

    @pytest.mark.parametrize("text", ["a->ab; b->ba", "a->ab; b->bbaa", "a->aab; b->b",
                                      "a->abbb; b->aab", "a->abbbbbba; b->b"])
    def test_named_morphisms(self, text):
        _check_binary(text)

    def test_skewed_images_give_a_periodic_prefix(self):
        # a->a b^300 a; b->b: f^omega(a) = (a b^300)^omega. A round appends
        # 300 one-letter blocks and a copy of the prefix.
        f = parse_morphism("a->a" + "b" * 300 + "a; b->b")
        n = 10**6
        unit = np.array([0] + [1] * 300, dtype=np.uint8)
        want = np.tile(unit, -(-n // unit.size))[:n]
        assert np.array_equal(fixed_point_prefix(f, n).data, want)

    def test_seeded_rank1_lift_tables(self, rng):
        # Lift tables are k-uniform over many int32 states; their blocks
        # outgrow the concatenation bound, so the last rounds are row gathers.
        for _ in range(25):
            f = random_rank1_morphism(rng)
            form = rank1_decompose(matrix_of(f))
            if form.trace < 2:
                continue
            lift = build_lift(f, form)
            table = [list(row) for row in lift.images]
            want = naive_fixed_point_codes(table, NAIVE_MAX + 1)
            for n in _table_lengths(table):
                got = lift_fixed_prefix(lift, n)
                assert got.dtype == np.int32
                assert got.tolist() == want[:n], (f.to_text(), n)

    def test_seeded_int32_tables(self):
        # Random tables over 3-40 letters, prolongable on letter 0 and
        # growing, with images of different lengths.
        rng = random.Random(19)
        for _ in range(60):
            size = rng.randint(3, 40)
            table = [[rng.randrange(size) for _ in range(rng.randint(1, 4))]
                     for _ in range(size)]
            table[0] = [0] + [rng.randrange(1, size) for _ in range(rng.randint(1, 3))]
            images = [np.array(row, dtype=np.int32) for row in table]
            want = naive_fixed_point_codes(table, NAIVE_MAX + 1)
            if len(want) <= NAIVE_MAX:
                continue  # stops growing before NAIVE_MAX letters
            for n in _table_lengths(table):
                got = _expand_prefix(images, n)
                assert got.dtype == np.int32
                assert got.tolist() == want[:n], (table, n)


class TestExpandMemory:
    """Letter 0's block is the output buffer; the other blocks are cut at
    the letters still to be written, and concatenated only while they hold
    at most `length` bytes."""

    @pytest.mark.parametrize("text", ["a->ab; b->ba", "a->ab; b->a", "a->ab; b->bbaa"])
    def test_fixed_point_prefix_at_1e5(self, text):
        # The buffer is 1 byte per letter, the last two rounds' blocks
        # 0.6-0.9; the row-gather rounds peaked at 5.6-6.8.
        f = parse_morphism(text)
        n = 10**5
        tracemalloc.start()
        try:
            word = fixed_point_prefix(f, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(word) == n
        assert peak / n <= 2.5

    @pytest.mark.parametrize("text,n", [("a->ab; b->ba", 2**16 + 1),
                                        ("a->ab; b->bbaa", 2 * 3**9 + 1)])
    def test_blocks_are_cut_one_letter_past_a_power(self, text, n):
        # n is one letter past |f^t(a)|: the last blocks built are cut to that
        # one letter (1.79 and 1.93 bytes per letter); whole blocks of
        # f^t(b) would read 2.54 and 2.72.
        f = parse_morphism(text)
        tracemalloc.start()
        try:
            fixed_point_prefix(f, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 2.2

    def test_lift_prefix_below_the_block_switch(self):
        # Six int32 states, 4 bytes each, and blocks for the five other
        # states: bounded by `length` letters they peaked at 7.9 bytes per
        # letter; bounded by `length` bytes, at 5.3.
        f = parse_morphism("a->ab; b->bbaa")
        lift = build_lift(f, rank1_decompose(matrix_of(f)))
        n = 4 * 10**5
        assert n < _BLOCK_FROM
        tracemalloc.start()
        try:
            states = lift_fixed_prefix(lift, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.size == n
        assert peak / n <= 6


def _naive_counts(arr: np.ndarray, longest: int) -> tuple[list[int], int]:
    """Exact a-counts of every prefix of arr, and the width in bits that
    _prefix_counts keeps them modulo."""
    bits = 8
    while longest >= 2**bits:
        bits *= 2
    exact = np.concatenate([[0], np.cumsum(arr == 0, dtype=np.int64)])
    return [int(c) % 2**bits for c in exact], bits


class TestPrefixCountsAgainstCumsum:
    """Eight letters per <u8 word, word totals summed by np.cumsum."""

    @pytest.mark.parametrize("longest", [255, 256, 65535, 65536])
    def test_every_short_length(self, longest):
        rng = np.random.default_rng(longest)
        for n in range(18):
            for arr in (rng.integers(0, 2, n).astype(np.uint8), np.zeros(n, np.uint8),
                        np.ones(n, np.uint8)):
                want, bits = _naive_counts(arr, longest)
                got = _prefix_counts(arr, longest)
                assert got.dtype == np.dtype(f"uint{bits}")
                assert got.tolist() == want, (n, arr.tolist())

    @pytest.mark.parametrize("longest", [255, 256, 65535, 65536, None])
    def test_lengths_off_a_word_and_a_pass(self, longest):
        rng = np.random.default_rng(7)
        for n in (9, 63, 1001, _COUNT_CHUNK - 1, _COUNT_CHUNK + 1, 2 * _COUNT_CHUNK + 13):
            arr = rng.integers(0, 2, n).astype(np.uint8)
            want, _ = _naive_counts(arr, n if longest is None else longest)
            assert _prefix_counts(arr, longest).tolist() == want, n

    def test_counts_wrap_past_the_width(self):
        # All a's: uint8 counts pass 255 inside a word and across passes.
        arr = np.zeros(3 * _COUNT_CHUNK + 5, dtype=np.uint8)
        want, _ = _naive_counts(arr, 255)
        assert _prefix_counts(arr, 255).tolist() == want

    def test_int32_input(self):
        # Any integer codes: only code 0 counts.
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 5, 1003).astype(np.int32)
        for longest in (255, 65536):
            want, _ = _naive_counts(arr, longest)
            assert _prefix_counts(arr, longest).tolist() == want

    def test_views_that_are_not_word_aligned(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 2, 2 * _COUNT_CHUNK + 40).astype(np.uint8)
        for arr in (base[3:], base[::3], base[5:-7]):
            want, _ = _naive_counts(arr, 300)
            assert _prefix_counts(arr, 300).tolist() == want

    @pytest.mark.parametrize("longest, dtype", [(255, np.uint8), (65535, np.uint16),
                                                (2**32 - 1, np.uint32)])
    def test_each_width_against_cumsum(self, longest, dtype):
        # The word offsets are spread by one multiply for bytes and by
        # np.repeat for wider counts; lengths 8k - 1, 8k, 8k + 1 on both
        # sides of a pass.
        rng = np.random.default_rng(longest % 1000)
        for n in sorted({8 * k + d for k in (1, 40, _COUNT_CHUNK // 8, _COUNT_CHUNK // 8 + 1)
                         for d in (-1, 0, 1)}):
            arr = rng.integers(0, 2, n).astype(np.uint8)
            got = _prefix_counts(arr, longest)
            want = np.concatenate([[0], np.cumsum(arr == 0, dtype=np.int64)])
            assert got.dtype == dtype
            assert np.array_equal(got, (want % (int(np.iinfo(dtype).max) + 1)).astype(dtype)), n


class TestRoundsFallToRowGathers:
    """Once the blocks of the other letters would pass `length` bytes,
    _expand_rounds drops them and each round is a row gather of the last
    tail. (Tiled linear growth, lift tables and lengths 0, 1 and |f(a)| are
    checked through _expand_prefix above.)"""

    def test_many_state_table(self, monkeypatch):
        # 40 int32 states with 3-letter images: the blocks of the 39 other
        # states soon hold more bytes than the prefix has letters.
        rng = random.Random(21)
        table = [[0, 1, 2]] + [[rng.randrange(40) for _ in range(3)] for _ in range(39)]
        images = [np.array(row, dtype=np.int32) for row in table]
        want = naive_fixed_point_codes(table, NAIVE_MAX)
        gathers = []
        real = words._row_gather

        def counted(images):
            gathers.append(len(images))
            return real(images)

        monkeypatch.setattr(words, "_row_gather", counted)
        for n in (0, 1, 3, 4, 2000, NAIVE_MAX):
            got = _expand_rounds(images, n)
            assert got.dtype == np.int32
            assert got.tolist() == want[:n], n
        assert gathers


def _past_the_byte_phase(table: list[list[int]], itemsize: int) -> int | None:
    """One letter past |f^t(0)| for the least t at which f^t(0) holds more
    than _BYTE_ROUNDS bytes, from the block lengths |f^(t+1)(c)| = sum of
    |f^t(d)| over the letters d of f(c); None when 64 rounds stay short."""
    sizes = [1] * len(table)
    for _ in range(64):
        sizes = [sum(sizes[c] for c in row) for row in table]
        if sizes[0] * itemsize > _BYTE_ROUNDS:
            return sizes[0] + 1
    return None


def _byte_phase_lengths(table: list[list[int]], itemsize: int) -> list[int]:
    """The phase bound in letters minus 1, itself and plus 1, and one letter
    past the first |f^t(0)| that crosses it."""
    bound = _BYTE_ROUNDS // itemsize
    past = _past_the_byte_phase(table, itemsize)
    return [bound - 1, bound, bound + 1] + ([] if past is None else [past])


def _binary_table(f) -> list[list[int]]:
    return [f.image_a.data.tolist(), f.image_b.data.tolist()]


class TestBytePhase:
    """_expand_rounds runs its first rounds on bytes objects while f^t(0)
    holds at most _BYTE_ROUNDS bytes, then hands the word, the blocks and
    the last tail to the numpy rounds: checked on both sides of that bound."""

    @staticmethod
    def _check(text: str) -> None:
        f = parse_morphism(text)
        lengths = _byte_phase_lengths(_binary_table(f), 1)
        want = naive_fixed_point(str(f.image_a), str(f.image_b), max(lengths))
        for n in lengths:
            got = _expand_rounds([f.image_a.data, f.image_b.data], n)
            assert got.dtype == np.uint8 and got.flags.writeable
            assert str(Word(got)) == want[:n], (text, n)
            assert str(fixed_point_prefix(f, n)) == want[:n], (text, n)

    def test_seeded_binary_morphisms(self, rng):
        checked = 0
        while checked < 60:
            f = random_morphism(rng, max_len=rng.choice([3, 5, 9]))
            if _past_the_byte_phase(_binary_table(f), 1) is not None:
                self._check(f.to_text())
                checked += 1

    @pytest.mark.parametrize("text", ["a->ab; b->a", "a->ab; b->ba", "a->aaab; b->abbb",
                                      "a->ab; b->bbaa", "a->abbbbbba; b->b"])
    def test_named_morphisms(self, text):
        self._check(text)

    def test_letter_that_stops_growing(self):
        # b -> b stops growing; f^t(a) still doubles, so the phase ends.
        self._check("a->aab; b->b")

    @pytest.mark.parametrize("j", [1, 2, 7, 300])
    def test_linear_growth_tiles_inside_the_byte_phase(self, j):
        # a->ab^j; b->b: the second round's tail repeats the first, so the
        # rounds stop on bytes and the rest is tiled, whatever the length.
        f = parse_morphism(f"a->a{'b' * j}; b->b")
        images = [f.image_a.data, f.image_b.data]
        rows = [im.tolist() for im in images]
        for n in (j + 2, 300, _BYTE_ROUNDS - 1, _BYTE_ROUNDS, _BYTE_ROUNDS + 1, 10**5):
            if n <= 2 * j + 1:
                continue  # the second round already reaches n
            assert _byte_rounds(images, rows, n)[3], (j, n)
            got = _expand_rounds(images, n)
            assert got.flags.writeable
            assert str(Word(got)) == "a" + "b" * (n - 1), (j, n)

    def test_int32_lift_tables_crossing_the_bound(self, rng):
        # 1024 int32 states fill the phase; the six-state lift of
        # a->ab; b->bbaa and seeded rank-1 lifts cross it.
        lifts = [build_lift(parse_morphism("a->ab; b->bbaa"),
                            rank1_decompose(matrix_of(parse_morphism("a->ab; b->bbaa"))))]
        while len(lifts) < 8:
            f = random_rank1_morphism(rng)
            form = rank1_decompose(matrix_of(f))
            if form.trace >= 2:
                lifts.append(build_lift(f, form))
        for lift in lifts:
            table = [list(row) for row in lift.images]
            lengths = _byte_phase_lengths(table, 4)
            want = naive_fixed_point_codes(table, max(lengths))
            for n in lengths:
                got = lift_fixed_prefix(lift, n)
                assert got.dtype == np.int32 and got.flags.writeable
                assert got.tolist() == want[:n], (table, n)

    def test_seeded_int32_tables_crossing_the_bound(self):
        # Images of different lengths over 3-40 letters, as in
        # TestExpandAgainstNaive, at the lengths around the phase bound.
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            size = rng.randint(3, 40)
            table = [[rng.randrange(size) for _ in range(rng.randint(1, 4))]
                     for _ in range(size)]
            table[0] = [0] + [rng.randrange(1, size) for _ in range(rng.randint(1, 3))]
            lengths = _byte_phase_lengths(table, 4)
            if len(lengths) < 4 or lengths[-1] > 10**5:
                continue
            images = [np.array(row, dtype=np.int32) for row in table]
            want = naive_fixed_point_codes(table, max(lengths))
            for n in lengths:
                got = _expand_rounds(images, n)
                assert got.dtype == np.int32 and got.flags.writeable
                assert got.tolist() == want[:n], (table, n)
            checked += 1

    def test_lift_prefix_inside_the_phase_is_a_writable_int32_array(self):
        f = parse_morphism("a->ab; b->bbaa")
        lift = build_lift(f, rank1_decompose(matrix_of(f)))
        table = [list(row) for row in lift.images]
        for n in (0, 1, 5, 100, _BYTE_ROUNDS // 4):
            states = lift_fixed_prefix(lift, n)
            assert isinstance(states, np.ndarray)
            assert states.dtype == np.int32 and states.size == n
            assert states.flags.writeable
            assert states.tolist() == naive_fixed_point_codes(table, n)
            states[:] = 0  # the caller owns it
