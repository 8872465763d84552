"""The two kernels under every short-prefix scan: prefix expansion by rounds
in one buffer (words._expand_rounds, reached through _expand_prefix below
_BLOCK_FROM letters) and the prefix a-counts taken eight letters per word
(analysis._prefix_counts). Both are checked against naive references, and
their peak memory is pinned with tracemalloc."""

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
    square,
)
from abmorph.analysis import _COUNT_CHUNK, _prefix_counts
from abmorph.words import _BLOCK_FROM, _expand_prefix, _expand_rounds
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


def _block_lengths(table: list[list[int]], longest: int) -> list[int]:
    """0, 1, longest and |f^t(0)| - 1, |f^t(0)|, |f^t(0)| + 1 up to longest,
    from the block lengths |f^(t+1)(c)| = sum of |f^t(d)| over f(c)."""
    out, sizes = {0, 1, longest}, [1] * len(table)
    while sizes[0] < longest:
        sizes = [sum(sizes[c] for c in row) for row in table]
        out.update(n for n in (sizes[0] - 1, sizes[0], sizes[0] + 1) if n <= longest)
    return sorted(out)


class TestExpandAgainstNaive:
    """_expand_prefix below _BLOCK_FROM is _expand_rounds: one slice
    assignment per letter of f(a)[1:] a round, into one buffer."""

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

    def test_seeded_images_up_to_43_letters(self, rng):
        # Images as long as the longest of the bench workloads (the square
        # of a->ababa; b->bababab, 29 and 43 letters), at the block lengths
        # |f^t(a)| and their neighbours up to one letter short of the block
        # copy. a->ab^42; b->a has two tails of one length that differ;
        # a->ab^j; b->b, whose fixed point is a b^omega, is written directly.
        longest = _BLOCK_FROM - 1
        cases = [square(parse_morphism("a->ababa; b->bababab")),
                 parse_morphism("a->a" + "b" * 42 + "; b->a")]
        while len(cases) < 18:
            f = random_morphism(rng, max_len=rng.choice([9, 29, 43]))
            if not (str(f.image_b) == "b" and set(str(f.image_a)[1:]) == {"b"}):
                cases.append(f)  # linear growth would make naive expansion quadratic
        for f in cases:
            table = [f.image_a.data.tolist(), f.image_b.data.tolist()]
            want = naive_fixed_point(str(f.image_a), str(f.image_b), longest)
            for n in _block_lengths(table, longest):
                got = _expand_rounds([f.image_a.data, f.image_b.data], n)
                assert got.flags.writeable
                assert str(Word(got)) == want[:n], (f.to_text(), n)
        for j in (1, 28, 42):
            f = parse_morphism(f"a->a{'b' * j}; b->b")
            for n in (0, 1, j, j + 1, j + 2, 2 * j + 1, 2 * j + 2, 3 * j + 2, longest):
                got = _expand_rounds([f.image_a.data, f.image_b.data], n)
                assert got.flags.writeable
                assert str(Word(got)) == ("a" + "b" * n)[:n], (j, n)

    def test_skewed_images_give_a_periodic_prefix(self):
        # a->a b^300 a; b->b: f^omega(a) = (a b^300)^omega. A round appends
        # 300 one-letter blocks and a copy of the prefix.
        f = parse_morphism("a->a" + "b" * 300 + "a; b->b")
        n = 10**6
        unit = np.array([0] + [1] * 300, dtype=np.uint8)
        want = np.tile(unit, -(-n // unit.size))[:n]
        assert np.array_equal(fixed_point_prefix(f, n).data, want)

    def test_seeded_rank1_lift_tables(self, rng):
        # Lift tables are k-uniform over many int32 states; each round is
        # a row gather of the last tail.
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

class TestExpandMemory:
    """Letter 0's block is the output buffer; letter 1's block is cut at
    the letters still to be written."""

    @pytest.mark.parametrize("text", ["a->ab; b->ba", "a->ab; b->a", "a->ab; b->bbaa"])
    def test_fixed_point_prefix_at_1e5(self, text):
        # The buffer is 1 byte per letter, the last two blocks of b
        # 0.55-0.9; row-gather rounds peaked at 5.6-6.8.
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
        # one letter (1.77 and 1.92 bytes per letter); whole blocks of
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
        # Six int32 states, 4 bytes each, and the row gather's temporaries:
        # 4.9 bytes per letter.
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


EDGE = 4096  # bytes: 4 KiB of letters or of int32 states


def _past_the_edge(table: list[list[int]], itemsize: int) -> int | None:
    """One letter past |f^t(0)| for the least t at which f^t(0) holds more
    than EDGE bytes, from the block lengths |f^(t+1)(c)| = sum of |f^t(d)|
    over the letters d of f(c); None when 64 rounds stay short."""
    sizes = [1] * len(table)
    for _ in range(64):
        sizes = [sum(sizes[c] for c in row) for row in table]
        if sizes[0] * itemsize > EDGE:
            return sizes[0] + 1
    return None


def _edge_lengths(table: list[list[int]], itemsize: int) -> list[int]:
    """EDGE in letters minus 1, itself and plus 1, and one letter past the
    first |f^t(0)| that crosses it."""
    bound = EDGE // itemsize
    past = _past_the_edge(table, itemsize)
    return [bound - 1, bound, bound + 1] + ([] if past is None else [past])


def _binary_table(f) -> list[list[int]]:
    return [f.image_a.data.tolist(), f.image_b.data.tolist()]


class TestBytePhase:
    """_expand_rounds and lift_fixed_prefix at 4 KiB less a letter, 4 KiB
    and a letter more, and one letter past the first |f^t(0)| longer than
    that: the output is writable and agrees with naive expansion."""

    @staticmethod
    def _check(text: str) -> None:
        f = parse_morphism(text)
        lengths = _edge_lengths(_binary_table(f), 1)
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
            if _past_the_edge(_binary_table(f), 1) is not None:
                self._check(f.to_text())
                checked += 1

    @pytest.mark.parametrize("text", ["a->ab; b->a", "a->ab; b->ba", "a->aaab; b->abbb",
                                      "a->ab; b->bbaa", "a->abbbbbba; b->b"])
    def test_named_morphisms(self, text):
        self._check(text)

    def test_letter_that_stops_growing(self):
        # b -> b stops growing; f^t(a) still doubles, past the edge.
        self._check("a->aab; b->b")

    @pytest.mark.parametrize("j", [1, 2, 7, 300])
    def test_linear_growth_tiles_inside_the_byte_phase(self, j):
        # a->ab^j; b->b grows linearly; its fixed point a b^omega is written
        # directly, with no rounds, whatever the length.
        f = parse_morphism(f"a->a{'b' * j}; b->b")
        images = [f.image_a.data, f.image_b.data]
        for n in (j + 2, 300, EDGE - 1, EDGE, EDGE + 1, 10**5):
            if n <= 2 * j + 1:
                continue  # the second round already reaches n
            got = _expand_rounds(images, n)
            assert got.flags.writeable
            assert str(Word(got)) == "a" + "b" * (n - 1), (j, n)

    def test_int32_lift_tables_crossing_the_bound(self, rng):
        # 1024 int32 states fill 4 KiB; the six-state lift of
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
            lengths = _edge_lengths(table, 4)
            want = naive_fixed_point_codes(table, max(lengths))
            for n in lengths:
                got = lift_fixed_prefix(lift, n)
                assert got.dtype == np.int32 and got.flags.writeable
                assert got.tolist() == want[:n], (table, n)

    def test_lift_prefix_inside_the_phase_is_a_writable_int32_array(self):
        f = parse_morphism("a->ab; b->bbaa")
        lift = build_lift(f, rank1_decompose(matrix_of(f)))
        table = [list(row) for row in lift.images]
        for n in (0, 1, 5, 100, EDGE // 4):
            states = lift_fixed_prefix(lift, n)
            assert isinstance(states, np.ndarray)
            assert states.dtype == np.int32 and states.size == n
            assert states.flags.writeable
            assert states.tolist() == naive_fixed_point_codes(table, n)
            states[:] = 0  # the caller owns it
