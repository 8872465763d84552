"""End-to-end classification: branch coverage, options, reports, schema."""

import json
import tracemalloc
from fractions import Fraction

import jsonschema
import pytest

from abmorph import (
    ANSWER_ABELIAN_PERIODIC,
    ANSWER_NOT_ABELIAN_PERIODIC,
    ANSWER_UNKNOWN,
    CERTAINTY_BOUNDED_SEARCH,
    CERTAINTY_PROVED,
    REASON_EVENTUAL_WITNESS,
    REASON_MINUS_ONE,
    REASON_PURE_REFUTED_OPEN,
    REASON_RESOURCE_EXHAUSTED,
    VERDICT_REPORT_SCHEMA,
    ClassifyOptions,
    classify,
    fixed_point_prefix,
    imbalance_at,
    imbalance_evidence,
    letter_frequencies,
    parse_morphism,
    special_form_exponents,
    square,
    validate_abelian_period,
    verdict_report,
)
from abmorph.classify import _cover
from conftest import random_morphism
from oracles import naive_fixed_point


class TestSpecialFormExponents:
    @pytest.mark.parametrize("text,expected", [
        ("a->aba; b->bab", (1, 1)),
        ("a->ababa; b->bababab", (2, 3)),
        ("a->a; b->bab", (0, 1)),
        ("a->ab; b->bab", None),     # even |f(a)|
        ("a->aab; b->bab", None),    # no alternation
        ("a->aba; b->abb", None),    # f(b) must start with b
        ("a->bab; b->aba", None),
    ])
    def test_golden(self, text, expected):
        assert special_form_exponents(parse_morphism(text)) == expected


class TestCorpusBranches:
    def test_expected_triples(self, corpus):
        for entry in corpus:
            v = classify(parse_morphism(entry.text))
            got = (v.answer, v.certainty, v.reason)
            want = (entry.answer, entry.certainty, entry.reason)
            assert got == want, f"{entry.text}: {got} != {want}"

    def test_claimed_periods(self, corpus):
        for entry in corpus:
            v = classify(parse_morphism(entry.text))
            if entry.claimed is None:
                assert v.claimed_period is None
                assert v.claimed_preperiod is None
            else:
                assert (v.claimed_preperiod, v.claimed_period) == entry.claimed

    def test_claimed_periods_validate_on_prefix(self, corpus):
        for entry in corpus:
            if entry.claimed is None:
                continue
            f = parse_morphism(entry.text)
            r, p = entry.claimed
            assert validate_abelian_period(fixed_point_prefix(f, 10**4), r, p)

    def test_square_preserves_answer(self, corpus):
        for entry in corpus:
            f = parse_morphism(entry.text)
            assert classify(square(f)).answer == classify(f).answer

    def test_is_abelian_periodic_mapping(self, corpus):
        mapping = {
            "PureAbelianPeriodic": True,
            "AbelianPeriodic": True,
            "NotAbelianPeriodic": False,
            "Unknown": None,
        }
        for entry in corpus:
            v = classify(parse_morphism(entry.text))
            assert v.is_abelian_periodic == mapping[entry.answer]


class TestBranchDetails:
    def test_theta2_minus_one(self):
        v = classify(parse_morphism("a->ab; b->aa"))
        assert v.answer == ANSWER_NOT_ABELIAN_PERIODIC
        assert v.certainty == CERTAINTY_PROVED
        assert v.reason == REASON_MINUS_ONE
        assert v.spectral.theta2_value == -1
        assert v.evidence is None  # no imbalance scan for this reason

    def test_eventual_witness_positive(self):
        v = classify(parse_morphism("a->ab; b->aabb"))
        assert v.answer == ANSWER_ABELIAN_PERIODIC
        assert v.reason == REASON_EVENTUAL_WITNESS
        assert (v.claimed_preperiod, v.claimed_period) == (1, 2)
        assert v.pure is not None and v.pure.status == "not_pure"
        assert v.eventual is not None and v.eventual.k == 1
        f = parse_morphism("a->ab; b->aabb")
        assert validate_abelian_period(fixed_point_prefix(f, 10**4), 1, 2)

    def test_frequencies_attached_for_primitive(self, corpus):
        for entry in corpus:
            f = parse_morphism(entry.text)
            v = classify(f)
            if v.spectral.primitive:
                assert v.frequencies is not None
            else:
                assert v.frequencies is None

    def test_evidence_reaches_target(self):
        # The two spectral refutations and the non-primitive bounded search
        # carry a discrepancy certificate that hits the default target of 4.
        for text, kind in [("a->aaab; b->abbb", "theta2_power"),
                           ("a->aab; b->bbaab", "theta2_one_cycle"),
                           ("a->aab; b->b", "theta2_one_cycle")]:
            v = classify(parse_morphism(text))
            assert v.evidence is not None
            assert v.evidence.kind == kind
            assert abs(v.evidence.delta) >= 4
        # alpha = 1/2: the loop (a, 1) weighs 1/2 and takes 8 turns
        cert = classify(parse_morphism("a->aab; b->b")).evidence
        assert (cert.k, cert.entry, cert.loop, cert.weight, cert.delta) == (
            8, None, ("a", 1), Fraction(1, 2), 4)

    def test_evidence_matches_window_scan(self, rng):
        # The same geometric scan, one imbalance_at call per window length.
        def scan(f, horizon, target):
            prefix = fixed_point_prefix(f, horizon)
            best = (1, 0)
            ell = 1
            while ell <= horizon // 2:
                im = imbalance_at(prefix, ell)
                if im > best[1]:
                    best = (ell, im)
                    if im >= target:
                        return ell, im, True
                ell = max(ell + 1, (ell * 181) // 128)
            return best + (False,)

        for _ in range(60):
            f = random_morphism(rng, max_len=7)
            horizon = rng.choice([2, 3, 50, 1000, 10**4])
            target = rng.randint(1, 8)
            ev = imbalance_evidence(f, horizon, target)
            assert (ev.window_length, ev.imbalance, ev.reached) == \
                scan(f, horizon, target), f
            assert (ev.horizon, ev.target) == (horizon, target)

    def test_proved_never_depends_on_horizon(self, corpus):
        for entry in corpus:
            v = classify(parse_morphism(entry.text))
            if v.certainty == CERTAINTY_PROVED:
                assert "horizon" not in dict(v.bounds)

    def test_bounded_search_records_bounds(self, corpus):
        for entry in corpus:
            v = classify(parse_morphism(entry.text))
            if v.certainty == CERTAINTY_BOUNDED_SEARCH:
                assert v.bounds


class TestOutcomeRows:
    """One case per reason: what the reason means for the answer, the
    certainty, the evidence and the claimed abelian period."""

    @pytest.mark.parametrize("text,opts,reason,answer,certainty,evidence", [
        ("a->aba; b->bab", None, "SpecialFormABAB",
         "AbelianPeriodic", "Proved", False),
        ("a->ab; b->ba", None, "ChunksEquivalent",
         "PureAbelianPeriodic", "Proved", False),
        ("a->ab; b->aabb", None, "EventualWitnessFound",
         "AbelianPeriodic", "Proved", False),
        ("a->aaab; b->abbb", None, "Theta2AbsGtOne_Unbalanced",
         "NotAbelianPeriodic", "Proved", True),
        ("a->ab; b->a", None, "IrrationalFrequencies",
         "NotAbelianPeriodic", "Proved", False),
        ("a->aab; b->bbaab", None, "Theta2One_FormFails",
         "NotAbelianPeriodic", "Proved", True),
        ("a->ab; b->aa", None, "Theta2MinusOne",
         "NotAbelianPeriodic", "Proved", False),
        ("a->ab; b->b", None, "NonPrimitive_PeriodicCertificate",
         "AbelianPeriodic", "Proved", False),
        ("a->aab; b->b", None, "NonPrimitive_NoPeriodFound",
         "NotAbelianPeriodic", "BoundedSearch", True),
        ("a->ab; b->bbaa", ClassifyOptions(eventual_k_max=3),
         "Rank1_PureRefuted_EventualOpen", "Unknown", "BoundedSearch", False),
        ("a->ab; b->bbaa", ClassifyOptions(max_configurations=1),
         "ResourceExhausted", "Unknown", "BoundedSearch", False),
    ])
    def test_reason_row(self, text, opts, reason, answer, certainty, evidence):
        f = parse_morphism(text)
        v = classify(f, opts)
        assert (v.reason, v.answer, v.certainty) == (reason, answer, certainty)
        assert (v.evidence is not None) == evidence
        periodic = answer in ("AbelianPeriodic", "PureAbelianPeriodic")
        assert (v.claimed_period is not None) == periodic
        assert (v.claimed_preperiod is not None) == periodic
        if periodic:
            prefix = fixed_point_prefix(f, 10**4)
            assert validate_abelian_period(
                prefix, v.claimed_preperiod, v.claimed_period
            )
        jsonschema.validate(verdict_report(f, v), VERDICT_REPORT_SCHEMA)


class TestOptions:
    def test_resource_exhaustion(self):
        opts = ClassifyOptions(max_configurations=1)
        v = classify(parse_morphism("a->ab; b->bbaa"), opts)
        assert v.answer == ANSWER_UNKNOWN
        assert v.reason == REASON_RESOURCE_EXHAUSTED
        assert dict(v.bounds)["max_configurations"] == 1

    def test_eventual_scan_disabled(self):
        opts = ClassifyOptions(eventual_k_max=0)
        v = classify(parse_morphism("a->ab; b->aabb"), opts)
        assert v.answer == ANSWER_UNKNOWN
        assert v.reason == REASON_PURE_REFUTED_OPEN
        assert dict(v.bounds)["eventual_k_scanned"] == 0

    def test_offset_budget_limits_scan(self):
        opts = ClassifyOptions(eventual_offset_budget=1)
        v = classify(parse_morphism("a->ab; b->bbaa"), opts)
        assert v.answer == ANSWER_UNKNOWN
        assert dict(v.bounds)["eventual_k_scanned"] == 0

    def test_k_scanned_under_default_budget(self):
        v = classify(parse_morphism("a->ab; b->bbaa"))
        scanned = dict(v.bounds)["eventual_k_scanned"]
        # period at level k is 2 * 3^(k-1); the 10^6 budget covers levels
        # 1..8 (sum ~ 6561*... < 10^6), but eventual_k_max=8 stops first
        assert scanned == 8

    def test_periodicity_bounds_forwarded(self):
        opts = ClassifyOptions(max_period=10, max_preperiod=7)
        v = classify(parse_morphism("a->aab; b->b"), opts)
        assert v.periodicity.max_period == 10
        assert v.periodicity.max_preperiod == 7

    def test_requires_prolongable(self):
        from abmorph import NotProlongableError

        with pytest.raises(NotProlongableError):
            classify(parse_morphism("a->ba; b->ab"))


class TestVerdictReport:
    def test_schema_is_valid(self):
        jsonschema.Draft7Validator.check_schema(VERDICT_REPORT_SCHEMA)

    def test_corpus_reports_validate(self, corpus):
        for entry in corpus:
            f = parse_morphism(entry.text)
            report = verdict_report(f, classify(f))
            jsonschema.validate(report, VERDICT_REPORT_SCHEMA)

    def test_special_cases_validate(self):
        cases = [
            ("a->ab; b->aabb", None),                        # eventual witness
            ("a->ab; b->aa", None),                          # theta2 = -1
            ("a->ab; b->bbaa", ClassifyOptions(max_configurations=1)),
        ]
        for text, opts in cases:
            f = parse_morphism(text)
            report = verdict_report(f, classify(f, opts))
            jsonschema.validate(report, VERDICT_REPORT_SCHEMA)

    def test_round_trip(self, corpus):
        for entry in corpus:
            f = parse_morphism(entry.text)
            report = verdict_report(f, classify(f))
            again = json.loads(json.dumps(report))
            assert again == report
            jsonschema.validate(again, VERDICT_REPORT_SCHEMA)

    def test_big_numbers_are_strings(self):
        f = parse_morphism("a->ab; b->aabb")
        report = verdict_report(f, classify(f))
        claimed = report["witnesses"]["claimed_abelian_period"]
        assert claimed == {"preperiod": "1", "period": "2"}
        assert report["witnesses"]["eventual"]["period"] == "2"

    def test_reports_are_deterministic(self, corpus):
        for entry in corpus:
            f = parse_morphism(entry.text)
            a = json.dumps(verdict_report(f, classify(f)), sort_keys=True)
            b = json.dumps(verdict_report(f, classify(f)), sort_keys=True)
            assert a == b

    @pytest.mark.parametrize("text,attr,path", [
        ("a->ab; b->aabb", "spectral", ("spectral",)),
        ("a->ab; b->aabb", "rank1", ("rank1",)),
        ("a->ab; b->aabb", "frequencies", ("frequencies",)),
        ("a->ab; b->aabb", "pure", ("witnesses", "pure")),
        ("a->ab; b->aabb", "eventual", ("witnesses", "eventual")),
        ("a->ab; b->b", "periodicity", ("witnesses", "periodicity")),
        ("a->aab; b->b", "evidence", ("evidence",)),
    ])
    def test_to_json_keys_match_schema(self, text, attr, path):
        part = getattr(classify(parse_morphism(text)), attr)
        schema = VERDICT_REPORT_SCHEMA
        for key in path:
            schema = schema["properties"][key]
        if "anyOf" in schema:
            schema = schema["anyOf"][1]
        assert list(part.to_json()) == schema["required"]

    @pytest.mark.parametrize("text,kind", [
        ("a->abbb; b->aab", "irrational_frequencies"),
        ("a->aaab; b->abbb", "theta2_power"),
        ("a->aab; b->bbaab", "theta2_one_cycle"),
    ])
    def test_certificate_keys_match_schema(self, text, kind):
        # the certificate is the evidence schema's one object
        part = classify(parse_morphism(text)).evidence
        assert part.kind == kind
        schema = VERDICT_REPORT_SCHEMA["properties"]["evidence"]["anyOf"][1]
        assert list(part.to_json()) == schema["required"]

    def test_answer_fields_match_verdict(self, corpus):
        for entry in corpus:
            f = parse_morphism(entry.text)
            v = classify(f)
            report = verdict_report(f, v)
            assert report["answer"] == v.answer
            assert report["certainty"] == v.certainty
            assert report["reason"] == v.reason
            assert report["bounds"] == dict(v.bounds)


class TestBoundsCheckedOnConstruction:
    """ClassifyOptions rejects a bad bound when it is built, so no route and
    no input can accept it. No evidence reads a prefix, so a horizon is no
    option at all."""

    @pytest.mark.parametrize("bounds, error, message", [
        (dict(horizon=-5), TypeError, "unexpected keyword argument 'horizon'"),
        (dict(eventual_k_max=-2), ValueError, "k_max must be >= 0"),
        (dict(eventual_offset_budget=-5), ValueError, "offset_budget must be >= 0"),
        (dict(max_configurations=-1), ValueError, "max_configurations must be >= 0"),
        (dict(max_period=0), ValueError, "bounds must allow at least one candidate"),
        (dict(max_preperiod=-1), ValueError, "bounds must allow at least one candidate"),
    ], ids=["horizon", "k_max", "offset_budget", "max_configurations", "max_period",
            "max_preperiod"])
    def test_rejected(self, bounds, error, message):
        with pytest.raises(error, match=message):
            ClassifyOptions(**bounds)

    # one morphism per route: non-primitive, spectral (Fibonacci), rank-1 pure
    # (Thue-Morse) and rank-1 not pure
    @pytest.mark.parametrize("text", ["a->aab; b->b", "a->ab; b->a", "a->ab; b->ba",
                                      "a->ab; b->bbaa"])
    def test_zero_bounds_are_legal(self, text):
        opts = ClassifyOptions(eventual_k_max=0, eventual_offset_budget=0,
                               max_configurations=0, max_preperiod=0, max_period=1)
        assert classify(parse_morphism(text), opts).answer is not None


class TestRouteFrequencies:
    """classify takes the frequencies from the incidence matrix it already
    built; they are the ones letter_frequencies(f) reports."""

    def test_frequencies_equal_letter_frequencies(self, corpus, rng):
        texts = [entry.text for entry in corpus]
        texts += [random_morphism(rng).to_text() for _ in range(40)]
        for text in texts:
            f = parse_morphism(text)
            v = classify(f, ClassifyOptions(eventual_offset_budget=100))
            if v.spectral.primitive:
                assert v.frequencies == letter_frequencies(f), text


class TestEvidencePastByteWindows:
    """imbalance_evidence reads windows of up to 255 letters from one-byte
    counts and builds wider counts only when its grid passes 255."""

    @staticmethod
    def _scan(f, horizon, target):
        # The geometric scan, one imbalance_at call per window length.
        prefix = fixed_point_prefix(f, horizon)
        best = (1, 0)
        ell = 1
        while ell <= horizon // 2:
            im = imbalance_at(prefix, ell)
            if im > best[1]:
                best = (ell, im)
                if im >= target:
                    return ell, im, True
            ell = max(ell + 1, (ell * 181) // 128)
        return best + (False,)

    # a->abb; b->baab has windows past 255 whose a-counts straddle a multiple
    # of 256: one-byte counts there would read a spread of 255 at 5254.
    @pytest.mark.parametrize("text, window", [("a->abaa; b->baab", 466),
                                              ("a->aaaba; b->abaab", 3716),
                                              ("a->abb; b->baab", 10505)])
    def test_matches_window_scan_at_1e5(self, text, window):
        f = parse_morphism(text)
        ev = imbalance_evidence(f, 10**5, 4)
        assert (ev.window_length, ev.imbalance, ev.reached) == self._scan(f, 10**5, 4)
        assert ev.window_length == window

    def test_unreached_target_scans_every_width(self):
        # Thue-Morse never passes imbalance 2: the grid runs to horizon / 2.
        f = parse_morphism("a->ab; b->ba")
        ev = imbalance_evidence(f, 10**5, 4)
        assert (ev.window_length, ev.imbalance, ev.reached) == self._scan(f, 10**5, 4)
        assert not ev.reached


class TestEvidenceCover:
    """_cover gives a prefix of at most n letters that holds every window of
    s[0:n] up to `longest` letters, so imbalance_evidence scans it instead
    of the whole horizon."""

    EDGE = [
        "a->abbb; b->a",  # a one-letter image that grows later
        "a->aab; b->b",   # b stops growing: no saving
        "a->aa; b->ab",   # s = a^omega
        "a->ab; b->ba",   # uniform images
    ]

    @staticmethod
    def _factors(s, m):
        return {s[i : i + m] for i in range(len(s) - m + 1)}

    # longest 3 needs blocks of 2 letters: blocks of 1 would let a window of
    # 3 letters span three blocks (Fibonacci, a->ab; b->a, misses aba).
    @pytest.mark.parametrize("longest", [2, 3, 16, 255])
    def test_every_window_occurs_in_the_cover(self, rng, longest):
        texts = self.EDGE + [random_morphism(rng).to_text() for _ in range(8)]
        for text in texts:
            f = parse_morphism(text)
            s = naive_fixed_point(str(f.image_a), str(f.image_b), 10**4)
            for n in (2, 3, 50, 997, 10**4):
                c = _cover(f, n, longest)
                assert c <= n
                for m in sorted({1, 2, longest - 1, longest}):
                    if 1 <= m <= n:
                        assert self._factors(s[:n], m) <= self._factors(s[:c], m), (
                            text, n, longest, m)

    def test_a_letter_that_stops_growing_keeps_the_horizon(self):
        f = parse_morphism("a->aab; b->b")
        assert _cover(f, 10**4, 16) == 10**4
        assert _cover(f, 10**5, 255) == 10**5

    def test_a_window_past_255_reads_the_horizon(self):
        f = parse_morphism("a->aaab; b->abbb")
        assert _cover(f, 10**5, 10**5 // 2) == 10**5

    @pytest.mark.parametrize("text", ["a->aaab; b->abbb", "a->aab; b->bbaab",
                                      "a->abbb; b->aab"])
    def test_golden_refutations_read_a_few_thousand_letters(self, text):
        assert _cover(parse_morphism(text), 10**5, 255) < 10**4


class TestEvidenceAtLargeHorizons:
    """The cover leaves the evidence as the whole-horizon window scan gives
    it, and keeps its cost bounded as the horizon grows."""

    GOLDEN_REFUTATIONS = ["a->aaab; b->abbb", "a->aab; b->bbaab", "a->aab; b->b",
                          "a->abbb; b->aab"]

    def test_matches_window_scan_at_1e5(self, rng):
        texts = self.GOLDEN_REFUTATIONS + [random_morphism(rng, max_len=7).to_text()
                                           for _ in range(30)]
        for text in texts:
            f = parse_morphism(text)
            ev = imbalance_evidence(f, 10**5, 4)
            assert ev.horizon == 10**5
            assert (ev.window_length, ev.imbalance, ev.reached) == (
                TestEvidencePastByteWindows._scan(f, 10**5, 4)), text

    def test_horizon_1e8_in_bounded_memory(self):
        f = parse_morphism("a->aaab; b->abbb")
        tracemalloc.start()
        try:
            ev = imbalance_evidence(f, 10**8, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ev.window_length, ev.imbalance, ev.reached) == (7, 5, True)
        assert ev.horizon == 10**8
        assert peak < 2 * 2**20
