"""Command-line behavior: exit codes, formats, determinism, batch mode."""

import json
import time
from functools import lru_cache

import pytest

from abmorph import ClassifyOptions, classify, parse_morphism, verdict_report
from abmorph.cli import _build_parser, _options_from, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_definite_json(self, capsys):
        code, out, err = run(capsys, "classify", "a->ab; b->ba")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["answer"] == "PureAbelianPeriodic"
        assert report["witnesses"]["pure"]["k"] == 1
        assert report["witnesses"]["pure"]["period"] == "2"

    def test_unknown_exits_2(self, capsys):
        code, out, _ = run(capsys, "classify", "a->ab; b->bbaa")
        assert code == 2
        report = json.loads(out)
        assert report["answer"] == "Unknown"
        assert report["witnesses"]["pure"]["status"] == "not_pure"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "classify", "a->ab; b->ba",
                           "--format", "text")
        assert code == 0
        assert "answer: PureAbelianPeriodic" in out
        assert "claimed abelian period: preperiod 0, period 2" in out

    def test_morphism_from_file(self, capsys, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("a->ab; b->ba")
        code, out, _ = run(capsys, "classify", str(p))
        assert code == 0
        assert json.loads(out)["morphism"]["text"] == "a->ab; b->ba"

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", "a->ab; b->ba",
                           "-o", str(dest))
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["answer"] == "PureAbelianPeriodic"

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "classify", "a->aab; b->bbaab")
        _, second, _ = run(capsys, "classify", "a->aab; b->bbaab")
        assert first == second

    def test_corpus_mode(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "# corpus with a comment and a blank line\n"
            "\n"
            "a->ab; b->ba\n"
            "a->aba; b->bab\n"
            "a->ab; b->a\n"
        )
        code, out, _ = run(capsys, "classify", "--corpus", str(corpus))
        assert code == 0
        reports = json.loads(out)
        assert [r["answer"] for r in reports] == [
            "PureAbelianPeriodic", "AbelianPeriodic", "NotAbelianPeriodic"]

    def test_corpus_with_unknown_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a->ab; b->ba\na->ab; b->bbaa\n")
        code, out, _ = run(capsys, "classify", "--corpus", str(corpus))
        assert code == 2
        assert len(json.loads(out)) == 2

    def test_missing_morphism(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 1
        assert err.startswith("abmorph:")


class TestErrorPaths:
    def test_bad_morphism(self, capsys):
        code, _, err = run(capsys, "classify", "a->xy; b->b")
        assert code == 1 and "abmorph:" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "classify", "a->ab; b->ba", "--nope")
        assert code == 1 and err != ""

    def test_wrong_format_for_verb(self, capsys):
        code, _, err = run(capsys, "prefix", "a->ab; b->ba",
                           "--length", "5", "--format", "dot")
        assert code == 1 and err != ""

    def test_non_rank1_lift(self, capsys):
        code, _, err = run(capsys, "lift", "a->ab; b->a")
        assert code == 1 and "abmorph:" in err

    def test_non_prolongable(self, capsys):
        code, _, err = run(capsys, "pure", "a->ba; b->ab")
        assert code == 1 and "abmorph:" in err

    def test_non_coprime_residues(self, capsys):
        code, _, err = run(capsys, "residues", "a->ab; b->bbaa",
                           "--t", "1", "--d", "6")
        assert code == 1 and "abmorph:" in err

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "prefix", "a->ab; b->ba")
        assert code == 1 and err != ""

    @pytest.mark.parametrize("argv", [
        ("prefix", "a->ab; b->ba", "--length", "-1"),
        ("path", "a->ab; b->ba", "--length", "-2"),
        ("complexity", "a->ab; b->ba", "--nmax", "0"),
        ("residues", "a->ab; b->bbaa", "--t", "0", "--d", "5"),
        ("classify", "a->aab; b->b", "--max-period", "0"),
        ("oracle", "a->ab; b->ba", "--max-period", "0"),
        ("eventual", "a->ab; b->bbaa", "--kmax", "-3"),
        ("classify", "a->ab; b->bbaa", "--kmax", "-3"),
    ], ids=" ".join)
    def test_bad_values_are_reported(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("abmorph:")


class TestPrefixCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "prefix", "a->ab; b->bbaa",
                           "--length", "18")
        assert code == 0
        assert out == "abbbaabbaabbaaabab\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "prefix", "a->ab; b->ba",
                           "--length", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"length": 4, "morphism": "a->ab; b->ba",
                           "prefix": "abba"}


class TestComplexityCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "complexity", "a->ab; b->ba",
                           "--nmax", "4", "--horizon", "4096")
        assert code == 0
        assert out == ("length,complexity,imbalance\n"
                       "1,2,1\n2,3,2\n3,2,1\n4,3,2\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "complexity", "a->ab; b->ba",
                           "--nmax", "2", "--horizon", "1024",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0] == {"length": 1, "complexity": 2,
                                      "imbalance": 1}


class TestPathCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "path", "a->ab; b->ba", "--length", "2")
        assert code == 0
        assert out == "index,height\n0,0\n1,1\n2,0\n"


class TestLiftAndDfao:
    def test_lift_text(self, capsys):
        code, out, _ = run(capsys, "lift", "a->ab; b->bbaa",
                           "--format", "text")
        assert code == 0
        assert "uniform lift, block length 3, 6 states" in out
        assert "state 1 (a0) -> [1 2 3] / a" in out
        assert "bijective: yes" in out

    def test_dfao_dot(self, capsys):
        code, out, _ = run(capsys, "dfao", "a->ab; b->bbaa")
        assert code == 0
        assert out.startswith("digraph")
        assert 'q6 -> q2 [label="0,2"]' in out

    def test_dfao_json(self, capsys):
        code, out, _ = run(capsys, "dfao", "a->ab; b->bbaa",
                           "--format", "json")
        assert code == 0
        table = json.loads(out)
        assert table["base"] == 3 and table["initial"] == 1


class TestOracleCommand:
    def test_witness_found(self, capsys):
        code, out, _ = run(capsys, "oracle", "a->ab; b->ba",
                           "--horizon", "4096",
                           "--max-period", "16", "--max-preperiod", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"] == {"preperiod": 0, "period": 2}

    def test_no_witness_exits_2(self, capsys):
        code, out, _ = run(capsys, "oracle", "a->ab; b->a",
                           "--horizon", "4096",
                           "--max-period", "20", "--max-preperiod", "20",
                           "--format", "text")
        assert code == 2
        assert out == "no abelian period within bounds\n"


class TestPeriodicCommand:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "periodic", "a->ab; b->b")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "periodic"
        assert payload["preperiod_word"] == "a"
        assert payload["period_word"] == "b"

    def test_not_found_exits_2(self, capsys):
        code, out, _ = run(capsys, "periodic", "a->ab; b->ba",
                           "--format", "text")
        assert code == 2
        assert "no periodic presentation" in out


class TestEventualCommand:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "eventual", "a->ab; b->aabb")
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"] == {"k": 1, "cut_offset": "1",
                                      "period": "2"}

    def test_no_witness_exits_2(self, capsys):
        code, out, _ = run(capsys, "eventual", "a->ab; b->bbaa",
                           "--kmax", "3")
        assert code == 2
        assert json.loads(out)["witness"] is None

    def test_reports_levels_scanned(self, capsys):
        _, out, _ = run(capsys, "eventual", "a->ab; b->bbaa", "--kmax", "3")
        assert json.loads(out)["k_scanned"] == 3
        _, out, _ = run(capsys, "eventual", "a->ab; b->bbaa", "--kmax", "3",
                        "--format", "text")
        assert out == "no eventual witness for k <= 3\n"


@lru_cache(maxsize=None)
def _report(text):
    f = parse_morphism(text)
    return verdict_report(f, classify(f))


class TestSerializerAgreement:
    """The pure, periodic and eventual verbs print the report's witnesses."""

    @pytest.mark.parametrize("verb,text,section", [
        ("pure", "a->ab; b->aabb", "pure"),
        ("pure", "a->ab; b->bbaa", "pure"),
        ("periodic", "a->ab; b->b", "periodicity"),
    ])
    def test_verb_matches_report(self, capsys, verb, text, section):
        _, out, _ = run(capsys, verb, text)
        witness = _report(text)["witnesses"][section]
        assert json.loads(out) == {"morphism": text, **witness}

    @pytest.mark.parametrize("text", ["a->ab; b->aabb", "a->ab; b->bbaa"])
    def test_eventual_matches_report(self, capsys, text):
        _, out, _ = run(capsys, "eventual", text)
        payload, report = json.loads(out), _report(text)
        assert payload["morphism"] == text
        assert payload["witness"] == report["witnesses"]["eventual"]
        if payload["witness"] is None:
            assert payload["k_scanned"] == report["bounds"]["eventual_k_scanned"]


class TestPureCommand:
    def test_pure(self, capsys):
        code, out, _ = run(capsys, "pure", "a->ab; b->ba")
        assert code == 0
        assert json.loads(out)["status"] == "pure"

    def test_exhausted_exits_2(self, capsys):
        code, out, _ = run(capsys, "pure", "a->ab; b->bbaa",
                           "--max-configurations", "1")
        assert code == 2
        assert json.loads(out)["status"] == "resource_exhausted"


class TestResiduesCommand:
    def test_complete(self, capsys):
        code, out, _ = run(capsys, "residues", "a->ab; b->bbaa",
                           "--t", "1", "--d", "5", "--horizon", str(3**10),
                           "--format", "text")
        assert code == 0
        assert out == "residues mod 5: 0 1 2 3 4\ncomplete: yes\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "residues", "a->ab; b->bbaa",
                           "--t", "1", "--d", "5", "--horizon", str(3**10))
        assert code == 0
        payload = json.loads(out)
        assert payload["residues"] == [0, 1, 2, 3, 4]
        assert payload["complete"] is True


class TestDefaults:
    def test_bounds_default_to_classify_options(self):
        parser = _build_parser()
        defaults = ClassifyOptions()
        args = parser.parse_args(["classify", "a->ab; b->ba"])
        assert _options_from(args) == defaults
        args = parser.parse_args(["pure", "a->ab; b->ba"])
        assert args.max_configurations == defaults.max_configurations
        args = parser.parse_args(["eventual", "a->ab; b->ba"])
        assert args.kmax == defaults.eventual_k_max


class TestRejectedInputs:
    def test_morphism_and_corpus_together(self, capsys, tmp_path):
        # the positional argument used to be dropped without being parsed
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a->ab; b->ba\n")
        for morphism in ("a->xy; b->b", "a->ab; b->ba"):
            code, out, err = run(capsys, "classify", morphism,
                                 "--corpus", str(corpus))
            assert code == 1 and out == ""
            assert err.startswith("abmorph:")

    @pytest.mark.parametrize("verb", ["pure", "classify"])
    def test_negative_configuration_cap(self, capsys, verb):
        code, out, err = run(capsys, verb, "a->ab; b->bbaa",
                             "--max-configurations", "-1")
        assert code == 1 and out == ""
        assert err == "abmorph: max_configurations must be >= 0\n"


# Each of these asks numpy for one array of at least 4 * 10**14 bytes, above
# the 2**47-byte user address space of x86-64, so the allocation fails at
# once on any 64-bit host and nothing is ever held.
TOO_LARGE = [
    ["prefix", "a->ab; b->ba", "--length", str(10**15)],
    ["path", "a->ab; b->ba", "--length", str(10**15)],
    ["oracle", "a->ab; b->ba", "--horizon", str(10**15)],
    ["complexity", "a->ab; b->ba", "--nmax", "4", "--horizon", str(10**15)],
    ["residues", "a->ab; b->bbaa", "--t", "1", "--d", "5",
     "--horizon", str(10**15)],
    ["classify", "a->aab; b->b", "--horizon", str(10**15)],
    ["periodic", "a->ab; b->b", "--max-period", str(10**14)],
]


class TestTooLargeForMemory:
    @pytest.mark.parametrize("argv", TOO_LARGE, ids=lambda a: a[0])
    def test_exits_1_with_a_message(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("abmorph:")
        assert "Traceback" not in err


class TestResiduesAtHugeArguments:
    def test_level_past_the_horizon_returns_at_once(self, capsys):
        # the period (A+B) trace^(t-1) has about 1.6e12 bits at t = 10**12;
        # past the horizon only the cap matters, so it is never computed
        outs = []
        for t in (60, 10**12):
            start = time.perf_counter()
            code, out, err = run(capsys, "residues", "a->ab; b->bbaa",
                                 "--t", str(t), "--d", "5", "--horizon", "100")
            assert time.perf_counter() - start < 5
            assert code == 0 and err == ""
            outs.append(json.loads(out)["residues"])
        assert outs == [[0], [0]]

    def test_huge_modulus_builds_no_residue_list(self, capsys):
        # completeness used to compare with list(range(d)): 8e15 bytes here
        d = 10**15 + 1  # coprime to the trace 3
        code, out, err = run(capsys, "residues", "a->ab; b->bbaa",
                             "--t", "1", "--d", str(d), "--horizon", "100")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["complete"] is False and 0 < len(payload["residues"]) < 100
