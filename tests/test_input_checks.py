"""Input checks that the behaviour tests never trip: each rejects a bad
argument with its own error type and message."""

import numpy as np
import pytest

from abmorph import (
    BadLetterError,
    BinaryMorphism,
    HorizonTooShortError,
    MorphismMatrix,
    MorphismSyntaxError,
    OutOfRangeError,
    Word,
    abelian_period_oracle,
    block_position_residues,
    build_lift,
    complexity_profile,
    configuration_of,
    dfao_eval,
    eq_eventually_periodic,
    imbalance_at,
    imbalance_evidence,
    lattice_path_heights,
    letters_at_progression,
    lift_fixed_prefix,
    matrix_of,
    parse_morphism,
    periodic_prefix,
    prefix_parikh,
    rank1_decompose,
    validate_abelian_period,
)


def rank1_case():
    f = parse_morphism("a->ab; b->bbaa")
    form = rank1_decompose(matrix_of(f))
    return f, form, build_lift(f, form)


class TestWords:
    def test_two_dimensional_data(self):
        with pytest.raises(ValueError, match="word data must be one-dimensional"):
            Word(np.zeros((2, 2), dtype=np.uint8))

    def test_non_ascii_letter(self):
        with pytest.raises(BadLetterError, match="non-ascii symbol in word"):
            Word.from_str("aé")

    def test_comparison_with_a_non_word(self):
        w = Word.of("ab")
        assert w.__eq__(3) is NotImplemented
        assert (w == 3) is False

    def test_image_of_a_letter_outside_the_alphabet(self):
        f = BinaryMorphism("ab", "ba")
        with pytest.raises(BadLetterError, match="letter 'c' is not in the alphabet"):
            f.image("c")

    def test_broken_json_morphism(self):
        with pytest.raises(MorphismSyntaxError, match="bad JSON morphism"):
            parse_morphism('{"a": "ab", "b": ')


class TestMatrices:
    def test_negative_power(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            MorphismMatrix(1, 1, 1, 0).pow(-1)


class TestRank1:
    def test_prefix_parikh_seed_outside_the_alphabet(self):
        f, _, _ = rank1_case()
        with pytest.raises(ValueError, match="seed must be 'a' or 'b'"):
            prefix_parikh(f, "c", 1, 0)

    def test_prefix_parikh_negative_level(self):
        f, _, _ = rank1_case()
        with pytest.raises(ValueError, match="t must be >= 0"):
            prefix_parikh(f, "a", -1, 0)

    def test_configuration_at_level_zero(self):
        f, form, _ = rank1_case()
        with pytest.raises(ValueError, match="t must be >= 1"):
            configuration_of(f, form, 0)

    def test_residues_mod_zero(self):
        f, form, _ = rank1_case()
        with pytest.raises(ValueError, match="d must be >= 1"):
            block_position_residues(f, form, 1, 0, 100)


class TestLift:
    def test_negative_prefix_length(self):
        _, _, lift = rank1_case()
        with pytest.raises(ValueError, match="length must be >= 0"):
            lift_fixed_prefix(lift, -1)

    def test_negative_position(self):
        _, _, lift = rank1_case()
        with pytest.raises(OutOfRangeError, match="position must be >= 0"):
            dfao_eval(lift, -1)

    @pytest.mark.parametrize("state", [-1, 6])
    def test_state_out_of_range(self, state):
        _, _, lift = rank1_case()
        with pytest.raises(OutOfRangeError, match=rf"state {state} outside \[0, 6\)"):
            lift.letter_pair(state)


class TestPeriodic:
    def test_periodic_prefix_empty_period(self):
        with pytest.raises(ValueError, match="period word must be nonempty"):
            periodic_prefix(Word.of("a"), Word.empty(), 3)

    @pytest.mark.parametrize("w1, w2", [("", "ab"), ("ab", "")])
    def test_eventually_periodic_empty_period(self, w1, w2):
        u = Word.of("a")
        with pytest.raises(ValueError, match="period words must be nonempty"):
            eq_eventually_periodic(u, Word.of(w1), u, Word.of(w2))


class TestClassify:
    def test_evidence_target_below_one(self):
        # a->aa; b->ab has imbalance 0 everywhere, which a target of 0 would
        # count as reached; the report schema asks for a target of at least 1.
        with pytest.raises(ValueError, match="target must be >= 1"):
            imbalance_evidence(parse_morphism("a->aa; b->ab"), 100, 0)


class TestAnalysis:
    def test_window_longer_than_the_prefix(self):
        with pytest.raises(
            HorizonTooShortError, match="window length 5 does not fit in a prefix of 4"
        ):
            imbalance_at("abba", 5)

    def test_progression_step_zero(self):
        with pytest.raises(ValueError, match=r"need r >= 0 and d >= 1"):
            letters_at_progression("abba", 0, 0)

    @pytest.mark.parametrize("scan", [
        lambda arr: validate_abelian_period(arr, 0, 1),
        lambda arr: abelian_period_oracle(arr, 1, 0),
        lambda arr: imbalance_at(arr, 1),
        lambda arr: complexity_profile(arr, 1),
        lattice_path_heights,
        lambda arr: letters_at_progression(arr, 0, 1),
    ])
    def test_two_dimensional_prefix(self, scan):
        with pytest.raises(ValueError, match="prefix must be one-dimensional"):
            scan(np.zeros((2, 4), dtype=np.uint8))
