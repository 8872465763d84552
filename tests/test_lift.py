"""Uniform lift to an extended alphabet and its base-k automaton."""

import json
import tracemalloc

import numpy as np
import pytest

from abmorph import (
    DegenerateTraceError,
    Rank1Form,
    UniformLift,
    build_lift,
    dfao_dot,
    dfao_eval,
    dfao_table,
    fixed_point_prefix,
    is_bijective,
    lift_fixed_prefix,
    lift_verify,
    matrix_of,
    parse_morphism,
    rank1_decompose,
)
from abmorph.lift import _power_rows
from abmorph.words import _CHUNK
from conftest import random_rank1_morphism
from oracles import last_round_lengths, naive_fixed_point_codes, state_switch_lengths


def lift_of(text):
    f = parse_morphism(text)
    return f, build_lift(f, rank1_decompose(matrix_of(f)))


class TestBuildLift:
    def test_worked_example(self):
        f, lift = lift_of("a->ab; b->bbaa")
        assert lift.k == 3
        assert lift.size == 6
        assert (lift.image_length_a, lift.image_length_b) == (2, 4)
        # States are (a,0), (a,1), (b,0), ..., (b,3) in display order 1..6.
        assert lift.images == (
            (0, 1, 2), (3, 4, 5), (2, 3, 4), (5, 2, 3), (4, 5, 0), (1, 0, 1))
        assert lift.coding == ("a", "b", "b", "b", "a", "a")

    def test_state_labels(self):
        _, lift = lift_of("a->ab; b->bbaa")
        assert lift.letter_pair(0) == ("a", 0)
        assert lift.letter_pair(2) == ("b", 0)
        assert lift.state_label(5) == "b3"

    def test_thue_morse(self):
        _, lift = lift_of("a->ab; b->ba")
        assert lift.k == 2
        assert lift.images == ((0, 1), (2, 3), (2, 3), (0, 1))
        assert lift.coding == ("a", "b", "b", "a")

    def test_images_are_uniform_and_in_range(self, rng):
        for _ in range(40):
            f = random_rank1_morphism(rng)
            lift = build_lift(f, rank1_decompose(matrix_of(f)))
            assert lift.size == sum(f.lengths())
            for img in lift.images:
                assert len(img) == lift.k
                assert all(0 <= s < lift.size for s in img)
            assert lift.images[0][0] == 0  # prolongable on the first state

    @pytest.mark.parametrize("k", [0, 1])
    def test_degenerate_trace_rejected_at_construction(self, k):
        # base-k digits with k < 2 never end: dfao_eval and the expansions
        # would loop forever
        with pytest.raises(DegenerateTraceError):
            UniformLift(1, 1, k, ((0,) * k, (1,) * k), ("a", "b"))

    def test_degenerate_forms_rejected(self):
        f = parse_morphism("a->ab; b->a")
        with pytest.raises(DegenerateTraceError):
            build_lift(f, Rank1Form(1, 1, 1, 1))
        with pytest.raises(DegenerateTraceError):
            build_lift(parse_morphism("a->ab; b->b"), Rank1Form(1, 0, 1, 1))


class TestBijectivity:
    def test_golden(self):
        _, lift = lift_of("a->ab; b->bbaa")
        assert is_bijective(lift)
        _, lift = lift_of("a->ab; b->ba")
        assert not is_bijective(lift)
        _, lift = lift_of("a->abba; b->ab")
        assert not is_bijective(lift)


class TestLiftFixedPoint:
    def test_prefix_golden(self):
        # h(0)=(0,1,2), h(1)=(3,4,5), h(2)=(4,5,0), h(3)=(1,2,3): expanding
        # the first four states of the lifted fixed point gives these 12.
        _, lift = lift_of("a->abba; b->ab")
        assert lift_fixed_prefix(lift, 12).tolist() == \
            [0, 1, 2, 3, 4, 5, 4, 5, 0, 1, 2, 3]

    def test_verify_worked_example(self):
        f, lift = lift_of("a->ab; b->bbaa")
        assert lift_verify(f, lift, 10**4)

    def test_verify_random(self, rng):
        for _ in range(25):
            f = random_rank1_morphism(rng)
            lift = build_lift(f, rank1_decompose(matrix_of(f)))
            assert lift_verify(f, lift, 3000)

    def test_states_in_range(self):
        _, lift = lift_of("a->ab; b->bbaa")
        arr = lift_fixed_prefix(lift, 5000)
        assert arr.min() >= 0 and arr.max() < lift.size


class TestDfaoEval:
    def test_initial(self):
        f, lift = lift_of("a->ab; b->bbaa")
        assert dfao_eval(lift, 0) == "a"

    def test_agrees_with_fixed_point(self):
        f, lift = lift_of("a->ab; b->bbaa")
        w = str(fixed_point_prefix(f, 2000))
        for n in range(2000):
            assert dfao_eval(lift, n) == w[n]

    def test_agrees_random(self, rng):
        for _ in range(10):
            f = random_rank1_morphism(rng)
            lift = build_lift(f, rank1_decompose(matrix_of(f)))
            w = str(fixed_point_prefix(f, 500))
            for n in range(0, 500, 7):
                assert dfao_eval(lift, n) == w[n]


class TestDfaoExport:
    def test_table_structure(self):
        _, lift = lift_of("a->ab; b->bbaa")
        table = dfao_table(lift)
        assert table["base"] == 3
        assert table["initial"] == 1
        assert table["bijective"] is True
        assert len(table["states"]) == 6
        first = table["states"][0]
        assert first == {"id": 1, "pair": "a0", "output": "a",
                         "next": [1, 2, 3]}
        assert json.dumps(table)  # JSON-serializable

    def test_dot_golden_edges(self):
        _, lift = lift_of("a->ab; b->bbaa")
        dot = dfao_dot(lift)
        assert dot.startswith("digraph")
        assert "__start" in dot and "q1" in dot
        # state 6 maps to (2, 1, 2): grouped edges q6->q1 on digit 1,
        # q6->q2 on digits 0 and 2
        assert 'q6 -> q1 [label="1"]' in dot
        assert 'q6 -> q2 [label="0,2"]' in dot

    def test_dot_deterministic(self):
        _, lift = lift_of("a->ab; b->bbaa")
        assert dfao_dot(lift) == dfao_dot(lift)
        table1 = json.dumps(dfao_table(lift), sort_keys=True)
        table2 = json.dumps(dfao_table(lift), sort_keys=True)
        assert table1 == table2


class TestLiftKernel:
    """The int32 lift alphabet through the chunked in-place expansion."""

    def test_matches_naive_around_chunk_boundaries(self, rng):
        for _ in range(3):
            f = random_rank1_morphism(rng)
            lift = build_lift(f, rank1_decompose(matrix_of(f)))
            images = [list(im) for im in lift.images]
            lengths = [0, 1, lift.k]
            for m in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
                lengths += last_round_lengths(images, m)
            lengths += state_switch_lengths(lift.k, _CHUNK)
            want = naive_fixed_point_codes(images, max(lengths))
            for n in lengths:
                got = lift_fixed_prefix(lift, n)
                assert got.dtype.name == "int32"
                assert got.tolist() == want[:n], (f, n)
            assert lift_verify(f, lift, max(lengths))

    def test_more_than_256_states_against_naive(self):
        # 400 states need the int32 table; the lift is 200-uniform, so
        # each gather reads _CHUNK // 200 states.
        f, lift = lift_of("a->" + "ab" * 100 + "; b->" + "ba" * 100)
        images = [list(im) for im in lift.images]
        step = _CHUNK // lift.k
        lengths = [0, 1, lift.k]
        for m in (step - 1, step, step + 1):
            lengths += last_round_lengths(images, m)
        want = naive_fixed_point_codes(images, max(lengths))
        for n in lengths:
            got = lift_fixed_prefix(lift, n)
            assert got.dtype.name == "int32"
            assert got.tolist() == want[:n], n
        assert lift_verify(f, lift, max(lengths))

    def test_memory_per_letter(self):
        # int32 states are 4 bytes per letter; int64 gather temporaries as
        # long as the prefix would peak near 17.
        _, lift = lift_of("a->ab; b->bbaa")
        n = 2 * 10**6
        tracemalloc.start()
        try:
            states = lift_fixed_prefix(lift, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.size == n
        assert peak / n <= 6

    def test_verify_memory_per_letter(self):
        # The coded images of ceil(n / k) states: 4/k bytes per letter for
        # the states, then the coded letters, the letter prefix and the
        # comparison, 1 byte each. Coding n states held 5.3.
        f, lift = lift_of("a->ab; b->bbaa")
        n = 2 * 10**6
        tracemalloc.start()
        try:
            ok = lift_verify(f, lift, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak / n <= 3.5

    def test_verify_stops_at_the_first_wrong_letter(self):
        # Flip the output of one state: the check passes exactly on the
        # prefixes that end before that state first appears.
        f, lift = lift_of("a->ab; b->bbaa")
        for s in range(lift.size):
            coding = list(lift.coding)
            coding[s] = "b" if coding[s] == "a" else "a"
            bad = UniformLift(lift.image_length_a, lift.image_length_b,
                              lift.k, lift.images, tuple(coding))
            first = lift_fixed_prefix(lift, 200).tolist().index(s)
            assert lift_verify(f, bad, first)
            assert not lift_verify(f, bad, first + 1)


class TestVerifyChunks:
    """lift_verify expands narrow states and compares chunk by chunk."""

    @pytest.mark.parametrize("text", ["a->ab; b->bbaa", "a->ab; b->ba"])
    def test_memory_per_letter_at_scale(self, text):
        # The letter prefix (1 byte per letter), then ceil(n / k) uint8
        # states; coding and comparing n letters at once held 3.0.
        f, lift = lift_of(text)
        n = 10**7
        tracemalloc.start()
        try:
            ok = lift_verify(f, lift, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak / n <= 2.0

    def test_lengths_around_a_chunk(self):
        f, lift = lift_of("a->ab; b->bbaa")
        for n in (0, 1, _CHUNK * lift.k - 1, _CHUNK * lift.k,
                  _CHUNK * lift.k + 1):
            assert lift_verify(f, lift, n)

    def test_more_than_256_states(self):
        # 400 states do not fit uint8 state ids: the int32 path.
        f, lift = lift_of("a->" + "ab" * 100 + "; b->" + "ba" * 100)
        assert lift.size == 400
        assert lift_verify(f, lift, 10**5)
        coding = list(lift.coding)
        coding[399] = "b" if coding[399] == "a" else "a"
        bad = UniformLift(lift.image_length_a, lift.image_length_b,
                          lift.k, lift.images, tuple(coding))
        first = lift_fixed_prefix(lift, 10**4).tolist().index(399)
        assert lift_verify(f, bad, first)
        assert not lift_verify(f, bad, first + 1)


def power_width(lift):
    """k^j for the largest j >= 1 with size * k^j <= _CHUNK, else k."""
    width = lift.k
    while lift.size * width * lift.k <= _CHUNK:
        width *= lift.k
    return width


# Thue-Morse (4 states, 2-uniform), a->ab; b->bbaa (6, 3), a 10-state
# 5-uniform lift, a 28-state 14-uniform one, and 400 states, 200-uniform:
# 400 * 200 > _CHUNK, so the table budget keeps j = 1.
POWER_LIFTS = ["a->ab; b->ba", "a->ab; b->bbaa", "a->aabbb; b->bbaab",
               "a->aaaaaaabbbbbbb; b->" + "ba" * 7,
               "a->" + "ab" * 100 + "; b->" + "ba" * 100]


@pytest.fixture(scope="module", params=POWER_LIFTS, ids=lambda t: t[:16])
def power_case(request):
    """(f, lift, k^j, lengths, naive states): the lengths sit at k, at k^j,
    at the first chunk boundary of lift_verify, (_CHUNK // k^j) * k^j,
    where the last round of the telescoping expansion x = 0 y F(y) ...
    stops around _CHUNK // k tail states, and at 3^12, the default horizon
    of `abmorph residues`."""
    f, lift = lift_of(request.param)
    images = [list(im) for im in lift.images]
    width = power_width(lift)
    edge = (_CHUNK // width) * width
    lengths = [0, 1, 3**12] + [n + d for n in (lift.k, width, edge) for d in (-1, 0, 1)]
    for m in (_CHUNK // lift.k - 1, _CHUNK // lift.k, _CHUNK // lift.k + 1):
        lengths += last_round_lengths(images, m)
    want = naive_fixed_point_codes(images, max(lengths))
    return f, lift, width, lengths, want


class TestPowerRows:
    """lift_fixed_prefix and lift_verify read k^j letters per state."""

    def test_table_width(self, power_case):
        _, lift, width, _, _ = power_case
        _, rows = _power_rows(lift, 1)
        assert rows.shape == (lift.size, width)
        if lift.size == 400:
            assert width == lift.k == 200

    def test_fixed_prefix_against_naive(self, power_case):
        _, lift, _, lengths, want = power_case
        for n in lengths:
            got = lift_fixed_prefix(lift, n)
            assert got.dtype.name == "int32" and got.flags.writeable
            assert got.tolist() == want[:n], n

    def test_verify_against_naive(self, power_case):
        f, lift, _, lengths, want = power_case
        coded = "".join(lift.coding[s] for s in want)
        assert str(fixed_point_prefix(f, len(coded))) == coded
        for n in lengths:
            assert lift_verify(f, lift, n), n

    def test_flipped_coding_fails_at_the_first_wrong_letter(self, power_case):
        # Each flipped state first shows at letter p, inside F^j row p // k^j;
        # the check must pass on p letters and fail from p + 1 on, also when
        # it reads several rows and chunks.
        f, lift, width, lengths, want = power_case
        for s in sorted({0, 1, lift.size // 2, lift.size - 1}):
            coding = list(lift.coding)
            coding[s] = "b" if coding[s] == "a" else "a"
            bad = UniformLift(lift.image_length_a, lift.image_length_b,
                              lift.k, lift.images, tuple(coding))
            p = want.index(s)
            assert lift_verify(f, bad, p), s
            for n in (p + 1, width + p + 1, max(lengths)):
                assert not lift_verify(f, bad, n), (s, n)

    @pytest.mark.parametrize("text", ["a->ab; b->ba", "a->ab; b->bbaa"])
    def test_verify_memory_at_scale(self, text):
        # The letter prefix peaks near 1.05 bytes per letter; the coded F^j
        # rows, the states and the buffer add under _CHUNK bytes each.
        f, lift = lift_of(text)
        n = 10**7
        tracemalloc.start()
        try:
            ok = lift_verify(f, lift, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak / n <= 1.1
