"""Rank-1 machinery: prefix Parikh queries, pure decision, eventual scan,
block-position residues."""

import math
import time
from itertools import islice

import pytest

from abmorph import (
    CutConfiguration,
    CutDescriptor,
    EventualConditions,
    EventualWitness,
    NotCoprimeError,
    OutOfRangeError,
    block_length,
    block_position_residues,
    build_lift,
    check_pure_at,
    configuration_of,
    decide_pure,
    eventual_check_at,
    eventual_conditions_at,
    eventual_scan,
    fixed_point_prefix,
    matrix_of,
    parikh,
    parse_morphism,
    prefix_parikh,
    rank1_decompose,
    validate_abelian_period,
)
from abmorph.rank1 import _cut_levels, _e_values
from conftest import random_morphism, random_rank1_morphism
from oracles import (
    naive_chunks,
    naive_eventual_conditions,
    naive_parikh,
    naive_power,
    naive_pure,
)


def form_of(f):
    return rank1_decompose(matrix_of(f))


class TestPrefixParikh:
    def test_trivial_levels(self):
        f = parse_morphism("a->ab; b->bbaa")
        assert prefix_parikh(f, "a", 0, 1).as_tuple() == (1, 0)
        assert prefix_parikh(f, "b", 0, 1).as_tuple() == (0, 1)
        assert prefix_parikh(f, "a", 0, 0).as_tuple() == (0, 0)
        assert prefix_parikh(f, "b", 2, 7).as_tuple() == (3, 4)

    def test_matches_naive(self, rng):
        # Against literal string rewriting, all seeds, any morphism.
        for _ in range(150):
            f = random_morphism(rng, max_len=4, prolongable=False)
            seed = rng.choice("ab")
            t = rng.randint(0, 5)
            w = naive_power(str(f.image_a), str(f.image_b), seed, t)
            ell = rng.randint(0, len(w))
            assert prefix_parikh(f, seed, t, ell).as_tuple() == \
                naive_parikh(w[:ell])

    def test_full_length_matches_matrix_power(self, rng):
        for _ in range(60):
            f = random_morphism(rng, max_len=3, prolongable=False)
            t = rng.randint(0, 12)
            m = matrix_of(f).pow(t)
            la = m.m11 + m.m21
            assert prefix_parikh(f, "a", t, la).as_tuple() == (m.m11, m.m21)

    def test_large_level_no_materialization(self):
        # f^40(a) has ~3^40 letters; queries must stay cheap anyway.
        f = parse_morphism("a->ab; b->bbaa")
        got = prefix_parikh(f, "a", 40, 10**12)
        assert got.length == 10**12
        # a-frequency of the fixed point is exactly 1/2
        assert abs(got.count_a - 5 * 10**11) <= 10**6

    def test_out_of_range(self):
        f = parse_morphism("a->ab; b->bbaa")
        with pytest.raises(OutOfRangeError):
            prefix_parikh(f, "a", 1, 3)
        with pytest.raises(OutOfRangeError):
            prefix_parikh(f, "a", 0, 2)
        with pytest.raises(OutOfRangeError):
            prefix_parikh(f, "a", 1, -1)


class TestConfiguration:
    def test_worked_example(self):
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        expected = CutConfiguration(
            a_cuts=(), b_cuts=(CutDescriptor("b", 2),))
        assert configuration_of(f, form, 1) == expected
        assert configuration_of(f, form, 2) == expected  # the cycle

    def test_deterministic(self):
        for text in ["a->ab; b->bbaa", "a->abba; b->ab", "a->ab; b->aabb"]:
            f = parse_morphism(text)
            form = form_of(f)
            for t in (1, 2, 3):
                assert configuration_of(f, form, t) == \
                    configuration_of(f, form, t)

    def test_offsets_within_blocks(self, rng):
        for _ in range(40):
            f = random_rank1_morphism(rng)
            form = form_of(f)
            for t in (1, 2):
                cfg = configuration_of(f, form, t)
                for cut in cfg.a_cuts + cfg.b_cuts:
                    limit = len(f.image(cut.block_letter))
                    assert 0 <= cut.offset < limit


class TestConfigurationCycle:
    """configuration_of walks levels only to the first repeated tuple of
    cut states, then reads level t off the cycle."""

    def test_matches_the_level_walk(self, rng):
        for _ in range(60):
            f = random_rank1_morphism(rng)
            form = form_of(f)
            lift = build_lift(f, form)
            walk = list(islice(_cut_levels(lift, form), 50))
            for t in range(1, 51):
                cuts = [CutDescriptor(*lift.letter_pair(s)) for s in walk[t - 1]]
                want = CutConfiguration(tuple(cuts[: form.n - 1]), tuple(cuts[form.n - 1 :]))
                assert configuration_of(f, form, t) == want, (f, t)

    def test_huge_level_is_read_off_the_cycle(self):
        # cycles of length 1 from level 3 at the latest, and (a->aaabbb) of
        # length 2 from level 2; 10^12 - 48 is a multiple of both
        start = time.perf_counter()
        for text in ["a->ab; b->bbaa", "a->abba; b->ab", "a->ab; b->aabb",
                     "a->aaabbb; b->aabb"]:
            f = parse_morphism(text)
            form = form_of(f)
            assert configuration_of(f, form, 10**12) == configuration_of(f, form, 48)
        assert time.perf_counter() - start < 1.0


class TestCheckPureAt:
    def test_golden(self):
        tm = parse_morphism("a->ab; b->ba")
        assert check_pure_at(tm, form_of(tm), 1)
        f = parse_morphism("a->ab; b->bbaa")
        assert not check_pure_at(f, form_of(f), 1)
        assert not check_pure_at(f, form_of(f), 2)
        g = parse_morphism("a->abba; b->ab")
        assert check_pure_at(g, form_of(g), 1)

    def test_matches_materialized_chunks(self, rng):
        # Chunk Parikh vectors computed on actual strings.
        for _ in range(60):
            f = random_rank1_morphism(rng, max_unit=2, max_mult=3)
            form = form_of(f)
            k = rng.randint(1, 2)
            unit = form.block_unit * form.trace ** (k - 1)
            chunks = []
            for seed, parts in (("a", form.n), ("b", form.m)):
                w = naive_power(str(f.image_a), str(f.image_b), seed, k)
                for i in range(parts):
                    chunks.append(naive_parikh(w[i * unit:(i + 1) * unit]))
            assert check_pure_at(f, form, k) == (len(set(chunks)) == 1)


class TestDecidePure:
    def test_worked_refutation(self):
        v = decide_pure(parse_morphism("a->ab; b->bbaa"))
        assert v.status == "not_pure"
        assert v.cycle_detected
        assert v.iterations_used == 2
        assert v.k is None and v.period is None

    def test_pure_cases(self):
        v = decide_pure(parse_morphism("a->ab; b->ba"))
        assert (v.status, v.k, v.period) == ("pure", 1, 2)
        v = decide_pure(parse_morphism("a->abba; b->ab"))
        assert (v.status, v.k, v.period) == ("pure", 1, 2)

    def test_equal_columns_pure_immediately(self, rng):
        # n = m = 1 means f(a) and f(b) are abelian equivalent already.
        for _ in range(30):
            f = random_rank1_morphism(rng, max_mult=1)
            v = decide_pure(f)
            assert (v.status, v.k) == ("pure", 1)

    def test_resource_cap(self):
        v = decide_pure(parse_morphism("a->ab; b->bbaa"), max_configurations=1)
        assert v.status == "resource_exhausted"
        assert v.iterations_used == 1
        assert not v.cycle_detected

    def test_pure_verdicts_validate_on_prefix(self, rng):
        pure_seen = 0
        for _ in range(80):
            f = random_rank1_morphism(rng)
            v = decide_pure(f, max_configurations=100)
            if v.status != "pure":
                continue
            pure_seen += 1
            if v.period <= 2000:
                w = fixed_point_prefix(f, max(4 * v.period, 4000))
                assert validate_abelian_period(w, 0, v.period)
        assert pure_seen >= 20

    def test_not_pure_has_no_small_pure_period(self, rng):
        # Soundness spot-check: scan the prefix for any pure period <= 64.
        from abmorph import abelian_period_oracle

        refuted = 0
        for _ in range(60):
            f = random_rank1_morphism(rng)
            v = decide_pure(f, max_configurations=100)
            if v.status != "not_pure":
                continue
            refuted += 1
            w = fixed_point_prefix(f, 4096)
            wit = abelian_period_oracle(w, 64, 0)
            assert wit is None or wit.preperiod > 0
        assert refuted >= 10


class TestEventual:
    def test_worked_near_miss(self):
        # At level 1 the offset-1 shift fails only prefix equivalence.
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        assert eventual_check_at(f, form, 1) is None
        conds = eventual_conditions_at(f, form, 1, 1)
        assert conds == EventualConditions(True, True, True, False)
        assert not conds.witness
        assert prefix_parikh(f, "a", 1, 1).as_tuple() == (1, 0)
        assert prefix_parikh(f, "b", 1, 1).as_tuple() == (0, 1)

    def test_positive_witness(self):
        # a->ab; b->aabb is not pure but becomes periodic after one letter.
        f = parse_morphism("a->ab; b->aabb")
        form = form_of(f)
        assert decide_pure(f).status == "not_pure"
        wit = eventual_check_at(f, form, 1)
        assert wit is not None
        assert (wit.k, wit.cut_offset, wit.period) == (1, 1, 2)

    def test_witness_validates_on_prefix(self, rng):
        found = 0
        for _ in range(60):
            f = random_rank1_morphism(rng)
            form = form_of(f)
            if decide_pure(f, max_configurations=50).status != "not_pure":
                continue
            for k in (1, 2):
                wit = eventual_check_at(f, form, k)
                if wit is None or wit.period > 2000:
                    continue
                found += 1
                w = fixed_point_prefix(f, max(4000, 6 * wit.period))
                assert validate_abelian_period(
                    w, wit.cut_offset, wit.period)
        assert found >= 3

    def test_offset_out_of_range(self):
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        with pytest.raises(ValueError):
            eventual_conditions_at(f, form, 1, 2)


class TestEventualScan:
    def test_first_witness_and_level(self):
        f = parse_morphism("a->ab; b->aabb")
        wit, scanned = eventual_scan(f, form_of(f), 8, 10**6)
        assert (wit.k, wit.cut_offset, wit.period, scanned) == (1, 1, 2, 1)

    def test_budget_stops_before_overrun(self):
        # level periods are 2, 6, 18, ...; a budget of 12 covers levels 1-2
        f = parse_morphism("a->ab; b->bbaa")
        assert eventual_scan(f, form_of(f), 8, 12) == (None, 2)
        assert eventual_scan(f, form_of(f), 8, 1) == (None, 0)

    def test_kmax_bounds(self):
        f = parse_morphism("a->ab; b->bbaa")
        assert eventual_scan(f, form_of(f), 0, 10**6) == (None, 0)
        with pytest.raises(ValueError):
            eventual_scan(f, form_of(f), -1, 10**6)


class TestEventualScanBudget:
    def test_negative_budget_rejected(self):
        f = parse_morphism("a->ab; b->bbaa")
        with pytest.raises(ValueError, match="offset_budget must be >= 0"):
            eventual_scan(f, form_of(f), 8, -5)
        assert eventual_scan(f, form_of(f), 8, 0) == (None, 0)


class TestBlockLength:
    def test_counts_cells_of_width_block_unit(self):
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        assert form.block_unit == 2
        assert block_length(f, form, "a") == 1   # |f(a)| = 2 letters
        assert block_length(f, form, "b") == 2   # |f(b)| = 4 letters
        assert block_length(f, form, "ab") == 3
        for u in ("a", "b", "ab", "abba"):
            assert block_length(f, form, u) * form.block_unit \
                == len(f.apply(u))


class TestBlockPositionResidues:
    def naive(self, f, unit, d, horizon):
        w = str(fixed_point_prefix(f, horizon))
        la, lb = f.lengths()
        residues, pos = set(), 0
        for ch in w:
            if ch == "a" and pos + la <= horizon and pos % unit == 0:
                residues.add((pos // unit) % d)
            pos += la if ch == "a" else lb
        return residues

    def test_matches_naive(self, rng):
        for _ in range(40):
            f = random_rank1_morphism(rng, max_unit=2, max_mult=2)
            form = form_of(f)
            t = rng.randint(1, 3)
            d = rng.randint(1, 9)
            if math.gcd(d, form.trace) != 1:
                continue
            horizon = rng.randint(10, 2000)
            unit = form.block_unit * form.trace ** (t - 1)
            assert block_position_residues(f, form, t, d, horizon) == \
                self.naive(f, unit, d, horizon)

    def test_monotone_in_horizon(self):
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        prev = set()
        for horizon in (10, 100, 1000, 10000):
            cur = block_position_residues(f, form, 1, 5, horizon)
            assert prev <= cur
            prev = cur

    def test_full_coverage_small(self):
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        assert block_position_residues(f, form, 1, 5, 3**9) == set(range(5))

    def test_trivial_modulus(self):
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        assert block_position_residues(f, form, 1, 1, 100) == {0}

    def test_coprime_required(self):
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        with pytest.raises(NotCoprimeError):
            block_position_residues(f, form, 1, 6, 100)

    def test_units_around_the_period_shortcut(self, rng):
        # from t = horizon.bit_length() on the unit is horizon + 1 without
        # computing the period; the levels just below must still use it
        checked = 0
        for _ in range(60):
            f = random_rank1_morphism(rng, max_unit=1, max_mult=2)
            form = form_of(f)
            horizon = rng.randint(len(f.image_a), 200)
            edge = horizon.bit_length()
            for t in range(max(1, edge - 3), edge + 2):
                d = rng.choice([d for d in range(1, 8)
                                if math.gcd(d, form.trace) == 1])
                unit = form.block_unit * form.trace ** (t - 1)
                assert block_position_residues(f, form, t, d, horizon) == \
                    self.naive(f, unit, d, horizon), (f, t, d, horizon)
                checked += 1
        assert checked >= 200

    def test_short_horizons(self):
        # a block counts only when it ends inside the horizon, and a unit
        # past every int64 still aligns the first block
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        assert block_position_residues(f, form, 1, 5, 1) == set()
        assert block_position_residues(f, form, 1, 5, 2) == {0}
        assert block_position_residues(f, form, 60, 5, 1000) == {0}
        with pytest.raises(ValueError):
            block_position_residues(f, form, 1, 5, -1)


class TestPureAgainstMaterializedWords:
    """decide_pure and configuration_of against chunks and cuts read off
    the materialized f^t(a) and f^t(b)."""

    def test_matches_naive_pure(self, rng):
        statuses, seen = set(), set()
        while len(seen) < 300:
            f = random_rank1_morphism(rng, max_unit=2, max_mult=3)
            if f.to_text() in seen:
                continue
            seen.add(f.to_text())
            form = form_of(f)
            image_a, image_b = str(f.image_a), str(f.image_b)
            # as many levels as keep f^t(x) below 4000 letters, at most 6
            longest, cap = max(f.lengths()), 1
            while cap < 6 and longest * form.trace ** cap <= 4000:
                cap += 1
            want = naive_pure(image_a, image_b, cap)
            assert decide_pure(f, max_configurations=cap).to_json() == want
            statuses.add(want["status"])
            for t in range(1, want["iterations_used"] + 1):
                cfg = configuration_of(f, form, t)
                got = tuple(
                    tuple((c.block_letter, c.offset) for c in cuts)
                    for cuts in (cfg.a_cuts, cfg.b_cuts)
                )
                assert got == naive_chunks(image_a, image_b, t)[2], (f, t)
        assert statuses == {"pure", "not_pure", "resource_exhausted"}

    def test_pure_level_is_the_first_balanced_one(self, rng):
        pure = refuted = 0
        for _ in range(150):
            f = random_rank1_morphism(rng)
            form = form_of(f)
            v = decide_pure(f, max_configurations=100)
            if v.status == "pure":
                pure += 1
                assert check_pure_at(f, form, v.k)
                assert not any(check_pure_at(f, form, t) for t in range(1, v.k))
            elif v.status == "not_pure":
                # the repeated level is as unbalanced as its first visit
                refuted += 1
                assert not any(
                    check_pure_at(f, form, t)
                    for t in range(1, v.iterations_used + 1))
        assert pure >= 20 and refuted >= 20


def lift_state_at(lift, seed, t, ell):
    """State of position ell of f^t(seed), t >= 1: ell = q k^(t-1) + r, and
    the state is reached from (seed, q) by the t-1 base-k digits of r."""
    digits = []
    for _ in range(t - 1):
        ell, d = divmod(ell, lift.k)
        digits.append(d)
    state = ell if seed == "a" else lift.image_length_a + ell
    for d in reversed(digits):
        state = lift.images[state][d]
    return state


class TestEValues:
    def test_identity_against_prefix_parikh(self, rng):
        # Before a position in state s: (A+B) |prefix|_a - A ell = e(s).
        for _ in range(400):
            f = random_rank1_morphism(rng)
            form = form_of(f)
            lift = build_lift(f, form)
            e = _e_values(lift, form)
            seed, t = rng.choice("ab"), rng.randint(1, 12)
            length = len(f.image(seed)) * form.trace ** (t - 1)
            for ell in [rng.randrange(length) for _ in range(5)]:
                state = lift_state_at(lift, seed, t, ell)
                count_a = prefix_parikh(f, seed, t, ell).count_a
                assert form.block_unit * count_a - form.A * ell == e[state]
            # e is 0 at both ends of f^t(seed)
            assert e[lift_state_at(lift, seed, t, 0)] == 0
            whole = prefix_parikh(f, seed, t, length)
            assert form.block_unit * whole.count_a == form.A * length


class TestLevelBounds:
    """Levels start at 1 and the configuration cap at 0, for every entry."""

    def test_period_per_level(self):
        form = form_of(parse_morphism("a->ab; b->bbaa"))
        assert [form.period(k) for k in (1, 2, 3)] == [2, 6, 18]
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                form.period(k)

    @pytest.mark.parametrize("k", [0, -1])
    def test_levels_below_one_are_rejected(self, k):
        f = parse_morphism("a->ab; b->bbaa")
        form = form_of(f)
        with pytest.raises(ValueError, match="k must be >= 1"):
            eventual_check_at(f, form, k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            eventual_conditions_at(f, form, k, 0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            check_pure_at(f, form, k)

    def test_negative_configuration_cap(self):
        f = parse_morphism("a->ab; b->bbaa")
        with pytest.raises(ValueError, match="max_configurations"):
            decide_pure(f, max_configurations=-1)
        v = decide_pure(f, max_configurations=0)
        assert (v.status, v.iterations_used) == ("resource_exhausted", 0)


def rank1_levels(rng, count, max_letters=3000):
    """count seeded (f, form, k, f^k(a), f^k(b)) with period * max(n, m),
    the length of the longer word, at most max_letters."""
    levels = []
    while len(levels) < count:
        f = random_rank1_morphism(rng)
        form = form_of(f)
        k = 1
        while form.period(k) * max(form.n, form.m) <= max_letters:
            words = [naive_power(str(f.image_a), str(f.image_b), x, k)
                     for x in "ab"]
            levels.append((f, form, k, *words))
            k += 1
    return levels[:count]


class TestEventualAgainstMaterializedWords:
    """eventual_conditions_at, check_pure_at and eventual_check_at against
    the conditions read off the materialized, cyclically shifted words."""

    def test_conditions_match_naive(self, rng):
        for f, form, k, wa, wb in rank1_levels(rng, 300):
            period = form.period(k)
            for c in {0, period - 1, *(rng.randrange(period) for _ in range(4))}:
                got = eventual_conditions_at(f, form, k, c)
                assert got == EventualConditions(*naive_eventual_conditions(
                    wa, wb, c)), (f, k, c)
            assert check_pure_at(f, form, k) == \
                all(naive_eventual_conditions(wa, wb, 0))

    def test_scan_returns_the_first_witness(self, rng):
        found = 0
        for f, form, k, wa, wb in rank1_levels(rng, 300):
            period = form.period(k)
            first = next((c for c in range(period)
                          if all(naive_eventual_conditions(wa, wb, c))), None)
            want = None if first is None else EventualWitness(k, first, period)
            assert eventual_check_at(f, form, k) == want, (f, k)
            found += first is not None
        assert 50 <= found < 300
