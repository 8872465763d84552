"""Discrepancy certificates of the two proved spectral refutations,
re-checked on an independent path.

Delta(w) = |w|_a - alpha |w|, alpha the a-frequency. A certificate's level k
and Delta are re-read from prefix_parikh(f, "a", k, x), the descent of f^k(a)
through exact matrix powers, at the length x it names or, for a theta2 = 1
loop, at the length of its digit path summed here from matrix powers.
classify must reach these reasons without expanding a prefix, whatever the
horizon.
"""

import importlib
import itertools
import json
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import jsonschema
import pytest

from abmorph import (
    REASON_GT_ONE_UNBALANCED,
    REASON_ONE_FORM_FAILS,
    VERDICT_REPORT_SCHEMA,
    BinaryMorphism,
    ClassifyOptions,
    DiscrepancyCertificate,
    classify,
    letter_frequencies,
    matrix_of,
    parse_morphism,
    power_lengths,
    prefix_parikh,
    spectral_profile,
    verdict_report,
)
from conftest import random_morphism

# the package binds `classify` to the function, so fetch the modules by name
classify_module = importlib.import_module("abmorph.classify")
words_module = importlib.import_module("abmorph.words")

TARGET = 4
PROVED = (REASON_GT_ONE_UNBALANCED, REASON_ONE_FORM_FAILS)


def delta(f, alpha, k, x):
    """Delta(s[:x]) from the Parikh vector of the length-x prefix of f^k(a)."""
    v = prefix_parikh(f, "a", k, x)
    return v.count_a - alpha * (v.count_a + v.count_b)


def spectral_morphisms(total):
    """Every morphism prolongable on a with |f(a)| + |f(b)| <= total that
    classify sends down the spectral route: primitive, theta2 != 0."""
    for la in range(2, total):
        for lb in range(1, total - la + 1):
            for tail in itertools.product("ab", repeat=la - 1):
                for image_b in itertools.product("ab", repeat=lb):
                    f = BinaryMorphism("a" + "".join(tail), "".join(image_b))
                    prof = spectral_profile(matrix_of(f))
                    if prof.primitive and prof.theta2_value != 0:
                        yield f


@pytest.fixture(scope="module")
def census_certificates():
    """(f, verdict) for every proved spectral refutation up to 11 letters."""
    out = []
    for f in spectral_morphisms(11):
        v = classify(f)
        if v.reason in PROVED:
            out.append((f, v))
    return out


def pumped(cert, turns):
    """The digit path of a theta2 = 1 certificate: its entry edge from a, if
    any, then its loop `turns` times."""
    entry = [] if cert.entry is None else [("a", cert.entry)]
    return entry + [cert.loop] * turns


def path_length(f, path):
    """x of the digit path: the sum over its edges (c, i), j-th of k, of
    |f^(k-j)(f(c)[:i])|, from matrix powers."""
    k, x = len(path), 0
    for j, (c, i) in enumerate(path, 1):
        head = str(f.image(c))[:i]
        la, lb = power_lengths(f, k - j)
        x += head.count("a") * la + head.count("b") * lb
    return x


def h(f, alpha, c, i):
    """h(c, i) = Delta(f(c)[:i]), the weight of the edge c -> f(c)[i]."""
    head = str(f.image(c))[:i]
    return head.count("a") - alpha * len(head)


class TestCensusCertificates:
    """Every proved spectral refutation up to |f(a)| + |f(b)| = 11."""

    def test_reason_counts(self, census_certificates):
        kinds = Counter((v.reason, v.evidence.kind) for _, v in census_certificates)
        assert kinds == {
            (REASON_GT_ONE_UNBALANCED, "irrational_frequencies"): 3791,
            (REASON_GT_ONE_UNBALANCED, "theta2_power"): 458,
            (REASON_ONE_FORM_FAILS, "theta2_one_cycle"): 636,
        }

    def test_certificates_recheck_by_prefix_parikh(self, census_certificates):
        for f, v in census_certificates:
            cert = v.evidence
            if cert.kind == "irrational_frequencies":
                assert not v.frequencies.rational
                assert (cert.k, cert.length, cert.delta) == (None, None, None)
                continue
            alpha = v.frequencies.rational_a
            if cert.kind == "theta2_one_cycle":
                path = pumped(cert, cert.k - (cert.entry is not None))
                x = path_length(f, path)
            else:
                x = cert.length
            assert delta(f, alpha, cert.k, x) == cert.delta, f.to_text()
            assert abs(cert.delta) >= TARGET

    def test_theta2_power_is_the_least_level(self, census_certificates):
        for f, v in census_certificates:
            cert = v.evidence
            if cert.kind != "theta2_power":
                continue
            theta2, alpha = v.spectral.theta2_value, v.frequencies.rational_a
            assert cert.length == power_lengths(f, cert.k)[0]
            assert cert.delta == theta2**cert.k * (1 - alpha)
            assert abs(theta2 ** (cert.k - 1) * (1 - alpha)) < TARGET

    def test_theta2_one_cycles(self, census_certificates):
        # a loop is found for every theta2 = 1 refutation, entered from a by
        # the first b of f(a) when it is at b, and the least number of turns
        # reaches the target
        for f, v in census_certificates:
            cert = v.evidence
            if v.reason != REASON_ONE_FORM_FAILS:
                continue
            alpha = v.frequencies.rational_a
            assert cert.loop is not None, f.to_text()
            c, i = cert.loop
            assert str(f.image(c))[i] == c
            if c == "a":
                assert cert.entry is None
            else:
                assert cert.entry == str(f.image_a).index("b")
            assert cert.weight == h(f, alpha, c, i) != 0
            assert cert.length is None
            turns = cert.k - (cert.entry is not None)
            assert turns >= 1
            start = 0 if cert.entry is None else h(f, alpha, "a", cert.entry)
            assert cert.delta == start + turns * cert.weight
            assert turns == 1 or abs(start + (turns - 1) * cert.weight) < TARGET


class TestIdentities:
    def test_delta_of_images_scales_by_theta2(self, rng):
        # Delta(f^k(a)) = theta2^k (1 - alpha) on primitive morphisms with
        # rational frequencies (integer theta2, zero included)
        checked = 0
        while checked < 400:
            f = random_morphism(rng, max_len=6)
            prof = spectral_profile(matrix_of(f))
            if not prof.primitive or prof.theta2_value is None:
                continue
            alpha = letter_frequencies(f).rational_a
            for k in range(1, 6):
                x = power_lengths(f, k)[0]
                assert delta(f, alpha, k, x) == prof.theta2_value**k * (1 - alpha), (
                    f.to_text(), k)
            checked += 1

    # loops at a, then loops at b entered from a
    @pytest.mark.parametrize("text", ["a->aab; b->bbaab", "a->aab; b->abb",
                                      "a->aba; b->abb", "a->aba; b->aabbb"])
    def test_one_more_turn_adds_the_cycle_weight(self, text):
        f = parse_morphism(text)
        v = classify(f)
        assert v.reason == REASON_ONE_FORM_FAILS
        cert, alpha = v.evidence, v.frequencies.rational_a
        for turns in (1, 2, 3):
            steps = []
            for r in (turns, turns + 1):
                path = pumped(cert, r)
                steps.append(delta(f, alpha, len(path), path_length(f, path)))
            assert steps[1] - steps[0] == cert.weight


class TestNoPrefix:
    """The certificates are exact arithmetic on f's images and matrix."""

    TEXTS = ["a->aaab; b->abbb", "a->abbb; b->aab", "a->aab; b->bbaab"]

    @pytest.mark.parametrize("text", TEXTS)
    def test_no_window_scan_and_no_expansion(self, text, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("expanded a prefix")

        monkeypatch.setattr(classify_module, "imbalance_evidence", refuse)
        monkeypatch.setattr(classify_module, "fixed_point_prefix", refuse)
        monkeypatch.setattr(words_module, "fixed_point_prefix", refuse)
        monkeypatch.setattr(words_module, "_expand_prefix", refuse)
        f = parse_morphism(text)
        v = classify(f)
        assert v.reason in PROVED and v.evidence is not None
        verdict_report(f, v)

    @pytest.mark.parametrize("text", TEXTS)
    def test_report_ignores_the_horizon(self, text):
        f = parse_morphism(text)
        reports = [json.dumps(verdict_report(f, classify(f, ClassifyOptions(horizon=h))),
                              sort_keys=True) for h in (0, 10**5, 10**8)]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("text", TEXTS + ["a->aab; b->b", "a->ab; b->b",
                                              "a->ab; b->a", "a->ab; b->aa"])
    def test_one_matrix_per_classification(self, text, monkeypatch):
        # the route's matrix serves the certificate and the report
        calls = []

        def counted(f):
            calls.append(f)
            return matrix_of(f)

        monkeypatch.setattr(classify_module, "matrix_of", counted)
        f = parse_morphism(text)
        report = verdict_report(f, classify(f))
        assert len(calls) == 1
        assert report["matrix"] == [list(row) for row in matrix_of(f).rows()]


class TestLargeDenominator:
    """theta2 = 1 with alpha = 1/(n + 2): f(a) = a b^n a b, f(b) = a b^(n+2).
    The loop (a, n + 1) weighs 1/(n + 2), so the pumped prefix takes
    4(n + 2) turns and has hundreds or thousands of digits."""

    @staticmethod
    def morphism(n):
        return parse_morphism(f"a->a{'b' * n}ab; b->a{'b' * (n + 2)}")

    def test_pumped_prefix_rechecks(self):
        f = self.morphism(29)
        v = classify(f)
        cert = v.evidence
        assert (cert.k, cert.entry, cert.loop, cert.weight) == (124, None, ("a", 30),
                                                                Fraction(1, 31))
        x = path_length(f, pumped(cert, cert.k))
        assert len(str(x)) > 150
        assert delta(f, v.frequencies.rational_a, cert.k, x) == cert.delta == 4

    def test_report_validates(self):
        # a thousand-letter image: 4004 turns, a prefix of about 12,000 digits
        # that the report does not write out
        f = self.morphism(999)
        v = classify(f)
        assert v.reason == REASON_ONE_FORM_FAILS
        cert = v.evidence
        assert (cert.k, cert.length, cert.delta, cert.loop) == (4004, None, 4, ("a", 1000))
        report = verdict_report(f, v)
        jsonschema.validate(report, VERDICT_REPORT_SCHEMA)
        assert json.loads(json.dumps(report))["evidence"] == cert.to_json()


class TestCertificateJson:
    CERTIFICATES = [
        DiscrepancyCertificate("irrational_frequencies"),
        DiscrepancyCertificate("theta2_power", 70, 2**70 + 1, Fraction(-2**69, 3)),
        DiscrepancyCertificate("theta2_one_cycle", 3, None, Fraction(9, 2), 2, ("b", 3),
                               Fraction(3, 2)),
    ]

    @pytest.mark.parametrize("cert", CERTIFICATES, ids=lambda c: c.kind)
    def test_keys_are_fields_in_declaration_order(self, cert):
        assert list(cert.to_json()) == [f.name for f in fields(cert)]
        assert cert.to_json() is not cert.to_json()

    def test_exact_strings_and_loop_list(self):
        assert self.CERTIFICATES[1].to_json() == {
            "kind": "theta2_power", "k": 70, "length": "1180591620717411303425",
            "delta": "-590295810358705651712/3", "entry": None, "loop": None,
            "weight": None}
        j = self.CERTIFICATES[2].to_json()
        assert (j["length"], j["entry"], j["loop"], j["weight"]) == (None, 2, ["b", 3], "3/2")
        assert json.loads(json.dumps(j)) == j
