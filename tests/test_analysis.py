"""Prefix scanners: abelian period oracle, complexity, paths, progressions."""

import numpy as np
import pytest

from abmorph import (
    EmptySelectionError,
    HorizonTooShortError,
    WrongSpectralCaseError,
    abelian_period_oracle,
    complexity_profile,
    fixed_point_prefix,
    heights_to_csv,
    imbalance_at,
    lattice_path_heights,
    letters_at_progression,
    parse_morphism,
    theta2_one_invariant_check,
    validate_abelian_period,
)
from oracles import (
    naive_abelian_period,
    naive_complexity,
    naive_imbalance,
    naive_is_abelian_period,
)


def random_word(rng, lo, hi, bias=0.5):
    n = rng.randint(lo, hi)
    return "".join("a" if rng.random() < bias else "b" for _ in range(n))


class TestValidateAbelianPeriod:
    def test_golden(self):
        assert validate_abelian_period("baab", 0, 2)
        assert validate_abelian_period("b" + "ab" * 4, 1, 2)
        assert not validate_abelian_period("aabbab", 0, 3)
        assert validate_abelian_period("aabbab", 0, 2) is False  # aa|bb|ab

    def test_matches_naive(self, rng):
        for _ in range(300):
            w = random_word(rng, 10, 60)
            r = rng.randint(0, 5)
            p = rng.randint(1, 8)
            if (len(w) - r) // p < 2:
                continue
            assert validate_abelian_period(w, r, p) == \
                naive_is_abelian_period(w, r, p)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            validate_abelian_period("abab", 0, 0)
        with pytest.raises(ValueError):
            validate_abelian_period("abab", -1, 2)
        with pytest.raises(HorizonTooShortError):
            validate_abelian_period("abab", 1, 2)


class TestAbelianPeriodOracle:
    def test_thue_morse(self):
        w = fixed_point_prefix(parse_morphism("a->ab; b->ba"), 4096)
        wit = abelian_period_oracle(w, 16, 16)
        assert (wit.preperiod, wit.period) == (0, 2)
        assert wit.horizon == 4096

    def test_fibonacci_has_no_small_period(self):
        w = fixed_point_prefix(parse_morphism("a->ab; b->a"), 10**4)
        assert abelian_period_oracle(w, 50, 50) is None

    def test_matches_naive(self, rng):
        for _ in range(150):
            w = random_word(rng, 30, 120, bias=rng.choice([0.3, 0.5, 0.8]))
            max_p, max_r = rng.randint(1, 8), rng.randint(0, 6)
            if len(w) < 2 * max_p + max_r:
                continue
            got = abelian_period_oracle(w, max_p, max_r)
            want = naive_abelian_period(w, max_p, max_r)
            if want is None:
                assert got is None
            else:
                assert (got.preperiod, got.period) == want

    def test_finds_planted_period(self, rng):
        # Plant an abelian-periodic tail behind a junk preperiod.  The word
        # always holds >= 4 complete blocks, so bounds (p, junk) satisfy the
        # oracle's 2*max_period + max_preperiod horizon precondition.
        for _ in range(50):
            p = rng.randint(1, 6)
            block = random_word(rng, p, p)
            blocks = []
            for _ in range(rng.randint(4, 10)):
                letters = list(block)
                rng.shuffle(letters)
                blocks.append("".join(letters))
            junk = random_word(rng, 0, 4)
            w = junk + "".join(blocks)
            wit = abelian_period_oracle(w, p, len(junk))
            assert wit is not None
            assert wit.preperiod <= len(junk) and wit.period <= p
            assert validate_abelian_period(w, wit.preperiod, wit.period)

    def test_horizon_precondition(self):
        with pytest.raises(HorizonTooShortError):
            abelian_period_oracle("abab", 3, 3)

    def test_preperiod_orders_before_period(self):
        # Periods ascend: (1, 2) turns up before (0, 3), which still wins.
        w = "aaaaaaab"
        assert naive_is_abelian_period(w, 1, 2)
        wit = abelian_period_oracle(w, 3, 2)
        assert (wit.preperiod, wit.period) == (0, 3)
        assert naive_abelian_period(w, 3, 2) == (0, 3)


class TestComplexityProfile:
    def test_thue_morse_golden(self):
        w = fixed_point_prefix(parse_morphism("a->ab; b->ba"), 4096)
        prof = complexity_profile(w, 4)
        assert prof.rows() == [(1, 2, 1), (2, 3, 2), (3, 2, 1), (4, 3, 2)]

    def test_matches_naive(self, rng):
        for _ in range(60):
            w = random_word(rng, 20, 80)
            nmax = rng.randint(1, len(w) // 2)
            prof = complexity_profile(w, nmax)
            for n, cx, imb in prof.rows():
                assert cx == naive_complexity(w, n)
                assert imb == naive_imbalance(w, n)

    def test_complexity_is_imbalance_plus_one(self, rng):
        # Sliding a window one step changes the a-count by at most 1, so
        # every intermediate count is realized: complexity = imbalance + 1.
        for _ in range(60):
            w = random_word(rng, 16, 200, bias=rng.choice([0.2, 0.5, 0.9]))
            for n, cx, imb in complexity_profile(w, len(w) // 2).rows():
                assert cx == imb + 1

    def test_csv_shape(self):
        prof = complexity_profile("abababab", 2)
        text = prof.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "length,complexity,imbalance"
        assert lines[1] == "1,2,1"
        assert len(lines) == 3

    def test_precondition(self):
        with pytest.raises(ValueError):
            complexity_profile("abab", 3)


class TestImbalance:
    def test_matches_naive(self, rng):
        for _ in range(80):
            w = random_word(rng, 10, 100)
            n = rng.randint(1, len(w))
            assert imbalance_at(w, n) == naive_imbalance(w, n)

    def test_unbalanced_example(self):
        # Long a-run against long b-run.
        assert imbalance_at("aaaa" + "bbbb", 4) == 4


class TestLatticePath:
    def test_golden(self):
        assert lattice_path_heights("ab").tolist() == [0, 1, 0]
        assert lattice_path_heights("aab").tolist() == [0, 1, 2, 1]
        assert lattice_path_heights("").tolist() == [0]

    def test_steps_are_unit(self, rng):
        for _ in range(40):
            w = random_word(rng, 0, 60)
            h = lattice_path_heights(w)
            assert h.size == len(w) + 1
            assert h[0] == 0
            steps = np.diff(h)
            assert np.all(np.abs(steps) == 1) or steps.size == 0

    def test_csv(self):
        text = heights_to_csv(lattice_path_heights("ab"))
        assert text.strip().split("\n") == ["index,height", "0,0", "1,1", "2,0"]


class TestLettersAtProgression:
    def test_string_input(self):
        assert letters_at_progression("ababab", 0, 2) == {"a"}
        assert letters_at_progression("ababab", 1, 2) == {"b"}
        assert letters_at_progression("abbbbb", 0, 1) == {"a", "b"}

    def test_array_input_returns_codes(self):
        arr = np.array([0, 1, 2, 0, 1, 2, 0], dtype=np.int32)
        assert letters_at_progression(arr, 2, 3) == {2}
        assert letters_at_progression(arr, 0, 3) == {0}

    def test_empty_selection_rejected(self):
        with pytest.raises(EmptySelectionError):
            letters_at_progression("ab", 2, 3)


class TestTheta2OneInvariant:
    THETA2_ONE = ["a->aab; b->bbaab", "a->aab; b->abb", "a->aabab; b->babab"]

    @pytest.mark.parametrize("text", THETA2_ONE)
    def test_invariant_holds(self, text, rng):
        f = parse_morphism(text)
        assert theta2_one_invariant_check(f, "")
        for _ in range(100):
            u = random_word(rng, 0, 30)
            assert theta2_one_invariant_check(f, u)
            assert theta2_one_invariant_check(f, str(f.apply(u)))

    @pytest.mark.parametrize("text", [
        "a->ab; b->ba",      # theta2 = 0
        "a->aaab; b->abbb",  # theta2 = 2
        "a->ab; b->a",       # theta2 irrational
    ])
    def test_wrong_case_rejected(self, text):
        with pytest.raises(WrongSpectralCaseError):
            theta2_one_invariant_check(parse_morphism(text), "ab")


class TestPrefixCountWidth:
    """Without a window bound the prefix counts are exact, in the narrowest
    unsigned dtype above the prefix length (4 bytes for the 99000 letters
    here); counts past the 16-bit range must stay exact."""

    def test_counts_past_int16(self):
        from abmorph.analysis import _prefix_counts

        w = ("a" * 33000 + "b") * 3
        counts = _prefix_counts(fixed_point_prefix(parse_morphism("a->ab; b->ba"), 0).data)
        assert counts.tolist() == [0]
        counts = _prefix_counts(np.frombuffer(w.encode(), dtype=np.uint8) - ord("a"))
        assert counts.itemsize == 4
        assert int(counts[-1]) == 99000
        assert int(counts[33001]) == 33000

    def test_scans_past_int16(self):
        w = ("a" * 33000 + "b") * 3
        assert validate_abelian_period(w, 0, 33001)
        assert not validate_abelian_period(w, 0, 33000)
        assert imbalance_at(w, 33001) == 0
        assert imbalance_at(w, 33000) == 1
        assert imbalance_at("a" * 40000 + "b" * 40000, 40000) == 40000
        witness = abelian_period_oracle("a" * 40000 + "b" * 40000, 2, 40000)
        assert (witness.preperiod, witness.period) == (40000, 1)
        assert complexity_profile(w, 3).complexity.tolist() == [2, 2, 2]


def planted_word(rng, junk, period, length):
    """`junk` random letters, then shuffles of one block of `period` letters,
    cut at `length`: abelian periodic from `junk` on with period `period`."""
    block = list(random_word(rng, period, period))
    letters = list(random_word(rng, junk, junk))
    while len(letters) < length:
        rng.shuffle(block)
        letters += block
    return letters[:length]


class TestOracleEarlyExit:
    """The oracle reads window agreements from the end of the prefix and
    drops a period once every residue class has disagreed there; only
    then does it read the head. Words aimed at each exit must still get
    the naive oracle's answer."""

    def test_matches_naive_at_every_exit(self, rng):
        for case in range(1600):
            max_p, max_r = rng.randint(1, 20), rng.randint(0, 30)
            n = rng.randint(2 * max_p + max_r, 2 * max_p + max_r + 120)
            where = case % 4  # plain random, or a flip near the end / limit / in the head
            if where == 0:
                letters = list(random_word(rng, n, n))
            else:
                letters = planted_word(rng, rng.randint(0, max_r + 3),
                                       rng.randint(1, max_p + 2), n)
                if where == 1:
                    i = rng.randrange(max(0, n - 12), n)
                elif where == 2:
                    i = min(n - 1, max(0, max_r + rng.randint(-6, 6)))
                else:
                    i = rng.randrange(0, max_r + 1)
                if rng.random() < 0.75:
                    letters[i] = "b" if letters[i] == "a" else "a"
            w = "".join(letters)
            got = abelian_period_oracle(w, max_p, max_r)
            got = None if got is None else (got.preperiod, got.period)
            assert got == naive_abelian_period(w, max_p, max_r), (w, max_p, max_r)


def wide_spread(arr, length):
    """imbalance_at from int64 prefix counts: the exact reference."""
    counts = np.concatenate([[0], np.cumsum(arr == 0, dtype=np.int64)])
    win = counts[length:] - counts[:-length]
    return int(win.max() - win.min())


def runs_then_random(width, length, seed):
    """Runs of width + 1 a's and b's, so the windows of `width` letters hold
    from 0 to `width` a's, then random letters up to `length`."""
    tail = np.random.default_rng(seed).integers(0, 2, length - 2 * width - 2)
    return np.concatenate([np.zeros(width + 1), np.ones(width + 1), tail]).astype(np.uint8)


def alternating_runs(width, length):
    """a^width b^width a^width ... cut at `length`: blocks of `width` letters
    after 0 hold width and 0 a's in turn."""
    return np.tile(np.repeat(np.array([0, 1], dtype=np.uint8), width),
                   length // (2 * width) + 1)[:length]


class TestCountWidthBoundaries:
    """Prefix counts are kept modulo 2^8, 2^16, ... according to the widest
    window the caller reads. At each width boundary, on prefixes past 2^16
    letters (so narrow counts wrap many times), window counts stay exact."""

    WIDTHS = [255, 256, 65535, 65536, 65537]
    LONG = 2**17 + 5

    @pytest.mark.parametrize("width", WIDTHS)
    def test_imbalance_at(self, width):
        w = runs_then_random(width, 2 * self.LONG, width)
        assert imbalance_at(w, width) == wide_spread(w, width) == width
        assert imbalance_at(w, width - 1) == wide_spread(w, width - 1) == width - 1

    @pytest.mark.parametrize("width", WIDTHS)
    def test_validate_abelian_period(self, width):
        rng = np.random.default_rng(width)
        nblocks = max(3, self.LONG // width + 1)
        base = (np.arange(width) < width // 3).astype(np.uint8)
        body = rng.permuted(np.tile(base, (nblocks, 1)), axis=1).ravel()
        w = np.concatenate([rng.integers(0, 2, 7).astype(np.uint8), body])
        assert validate_abelian_period(w, 7, width)
        w[-1] ^= 1
        assert not validate_abelian_period(w, 7, width)
        assert not validate_abelian_period(alternating_runs(width, 3 * self.LONG), 0, width)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_oracle(self, width):
        # max_period = width fixes the count width; the answer is at p = 2
        tm = fixed_point_prefix(parse_morphism("a->ab; b->ba"), 2 * width + self.LONG)
        wit = abelian_period_oracle(tm, width, 30)
        assert (wit.preperiod, wit.period) == (0, 2)

    @pytest.mark.parametrize("width", [255, 256])
    def test_oracle_reads_the_widest_window(self, width):
        # blocks of width and 0 a's: only period 2 * width is abelian
        assert abelian_period_oracle(alternating_runs(width, self.LONG), width, 0) is None
        rng = np.random.default_rng(width)
        base = (np.arange(width) < width // 2).astype(np.uint8)
        w = rng.permuted(np.tile(base, (self.LONG // width + 1, 1)), axis=1).ravel()
        wit = abelian_period_oracle(w, width, 0)
        assert (wit.preperiod, wit.period) == (0, width)

    @pytest.mark.parametrize("nmax", [255, 256])
    def test_complexity_profile(self, nmax):
        w = runs_then_random(nmax, self.LONG, nmax)
        prof = complexity_profile(w, nmax)
        assert prof.imbalance.tolist() == [wide_spread(w, n) for n in range(1, nmax + 1)]
        assert prof.imbalance[-1] == nmax
        assert prof.lengths.dtype == prof.complexity.dtype == prof.imbalance.dtype == np.int64
