"""The oracle's tail pass: blocks of periods are ruled out from their last
_TAIL_ROWS disagreement rows before any per-period read. The answers must
stay those of the references, and the blocks' memory must stay bounded."""

import random
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from abmorph import abelian_period_oracle, fixed_point_prefix, parse_morphism
from abmorph.analysis import _TAIL_ROWS, _first_start, _prefix_counts, _tail_drops
from oracles import naive_abelian_period, scan_abelian_period
from test_analysis import planted_word, random_word

# the morphisms whose slices the benchmark's prefix scan hands the oracle
PREFIX_MORPHISMS = ["a->ab; b->ba", "a->ab; b->a", "a->ab; b->bbaa"]
SLICE = 50_000


def pair(witness):
    return None if witness is None else (witness.preperiod, witness.period)


def slices(text, count, seed, length=SLICE, total=10**6):
    """`count` slices of the fixed point at seeded even offsets."""
    word = fixed_point_prefix(parse_morphism(text), total).data
    rng = random.Random(seed)
    return [word[off : off + length] for off in
            (2 * rng.randrange((total - length) // 2) for _ in range(count))]


def shortest_fit(max_period, max_preperiod):
    """Shortest prefix on which the last _TAIL_ROWS rows of max_period lie
    past its loosest limit: rows start at n - (_TAIL_ROWS + 2) p + 1."""
    rows = _TAIL_ROWS + 2
    return max((rows - 1) * max_period + max_preperiod, rows * max_period - 1)


class TestBenchSizeReference:
    @pytest.mark.parametrize("text", PREFIX_MORPHISMS)
    def test_bench_bounds(self, text):
        for piece in slices(text, 2, seed=len(text)):
            assert pair(abelian_period_oracle(piece, 200, 200)) == \
                scan_abelian_period(piece, 200, 200)

    def test_fibonacci_periods_past_the_tail(self):
        # in Fibonacci slices, periods 144 and 233 have classes that agree
        # through all tail rows; at bound 240, (1, 233) is the answer here
        for piece in slices("a->ab; b->a", 2, seed=240):
            drops = list(islice(_tail_drops(_prefix_counts(piece, 240), 240, 240), 240))
            assert not drops[144 - 1] and not drops[233 - 1]
            assert pair(abelian_period_oracle(piece, 240, 240)) == \
                scan_abelian_period(piece, 240, 240)


class TestTailCutoff:
    """Prefixes within 3 letters of the shortest one on which the tail pass
    covers max_period, with flips planted in tail rows _TAIL_ROWS - 1 to
    _TAIL_ROWS + 1, at the loosest limit, and in the head."""

    def test_matches_naive(self, rng):
        for case in range(300):
            max_p, max_r = rng.randint(1, 6), rng.randint(0, 12)
            n = shortest_fit(max_p, max_r) + rng.randint(-3, 3)
            letters = planted_word(rng, rng.randint(0, max_r + 3), rng.randint(1, max_p + 1), n)
            p = rng.randint(1, max_p)
            where = case % 4
            if where == 0:
                row = _TAIL_ROWS - 1 + rng.randint(0, 2)
                i = n - (row + 2) * p - rng.randrange(p)
            elif where == 1:
                i = min(max_r, n - 2 * p) + rng.randint(-2, 2)
            elif where == 2:
                i = rng.randint(0, max_r)
            else:
                i = None
            if i is not None and 0 <= i < n:
                letters[i] = "b" if letters[i] == "a" else "a"
            w = "".join(letters)
            got = pair(abelian_period_oracle(w, max_p, max_r))
            assert got == naive_abelian_period(w, max_p, max_r), (w, max_p, max_r)

    def test_random_words_match_naive(self, rng):
        for _ in range(150):
            max_p, max_r = rng.randint(1, 6), rng.randint(0, 12)
            n = shortest_fit(max_p, max_r) + rng.randint(-3, 3)
            w = random_word(rng, n, n)
            assert pair(abelian_period_oracle(w, max_p, max_r)) == \
                naive_abelian_period(w, max_p, max_r), (w, max_p, max_r)


class TestDroppedPeriods:
    def test_dropped_periods_have_no_start(self, rng):
        """Every period the tail pass drops has no start at its loosest
        limit, so the per-period read it skips would return None."""
        dropped = 0
        words = [piece[:4000] for text in PREFIX_MORPHISMS for piece in slices(text, 2, seed=7)]
        for _ in range(30):
            p = rng.randint(1, 12)
            words.append(np.array(planted_word(rng, rng.randint(0, 40), p, 4000)) == "b")
        for word in words:
            word = np.asarray(word, dtype=np.uint8)
            max_p, max_r = rng.randint(20, 120), rng.randint(0, 200)
            counts = _prefix_counts(word, max_p)
            drops = islice(_tail_drops(counts, max_p, max_r), max_p)
            for p, drop in enumerate(drops, start=1):
                if drop:
                    dropped += 1
                    assert _first_start(counts, p, min(max_r, word.size - 2 * p)) is None
        assert dropped > 1000


class TestTailMemory:
    """Each tail block gathers at most _TAIL_BYTES of counts, so the oracle's
    peak beyond its counts array stays under 1 MiB whatever max_period is;
    one block of every period up to 200 would hold about 1 MB."""

    @pytest.mark.parametrize("text", PREFIX_MORPHISMS + ["random"])
    def test_bench_bounds(self, text):
        if text == "random":
            word = np.random.default_rng(1).integers(0, 2, SLICE).astype(np.uint8)
        else:
            word = slices(text, 1, seed=3)[0]
        self.assert_bounded(word, 200, 200)

    @pytest.mark.parametrize("text", ["a->ab; b->bbaa", "random"])
    def test_wide_periods(self, text):
        n = 2**17
        if text == "random":
            word = np.random.default_rng(2).integers(0, 2, n).astype(np.uint8)
        else:
            word = slices(text, 1, seed=4, length=n)[0]
        self.assert_bounded(word, 4096, 0)

    @staticmethod
    def assert_bounded(word, max_period, max_preperiod):
        counts = _prefix_counts(word, max_period).nbytes
        tracemalloc.start()
        try:
            abelian_period_oracle(word, max_period, max_preperiod)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - counts < 2**20
