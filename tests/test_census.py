"""Census: every prolongable binary morphism with |f(a)| + |f(b)| <= 7,
classified at the bench's offset budget. The count per reason is pinned,
every claimed abelian period is re-checked on a long prefix, every eventual
witness by the lift-free witness test, and each square must get the same
answer."""

import hashlib
import itertools
import json
from collections import Counter

import pytest

from abmorph import (
    CERTAINTY_PROVED,
    BinaryMorphism,
    ClassifyOptions,
    classify,
    eventual_conditions_at,
    fixed_point_prefix,
    square,
    validate_abelian_period,
    verdict_report,
)

OPTIONS = ClassifyOptions(eventual_offset_budget=2 * 10**4)

REASON_COUNTS = {
    "ChunksEquivalent": 19,
    "EventualWitnessFound": 2,
    "IrrationalFrequencies": 197,
    "NonPrimitive_NoPeriodFound": 79,
    "NonPrimitive_PeriodicCertificate": 134,
    "Rank1_PureRefuted_EventualOpen": 2,
    "SpecialFormABAB": 1,
    "Theta2AbsGtOne_Unbalanced": 53,
    "Theta2MinusOne": 24,
    "Theta2One_FormFails": 5,
}

# sha256 of the census reports, each json.dumps(verdict_report(g, v),
# sort_keys=True) and a newline, for every morphism f and then f^2: any
# change to a report byte shows here
REPORTS_SHA256 = "a3b288217abcd683002a63956cbdd9fac6ed8c8dbfd6708e604c1576d219b1ac"


def _words(n: int):
    return ("".join(letters) for letters in itertools.product("ab", repeat=n))


def census_morphisms(total: int) -> list[BinaryMorphism]:
    """All morphisms prolongable on a with |f(a)| + |f(b)| <= total."""
    return [BinaryMorphism("a" + tail, image_b)
            for la in range(2, total)
            for lb in range(1, total - la + 1)
            for tail in _words(la - 1)
            for image_b in _words(lb)]


@pytest.fixture(scope="module")
def census():
    """(f, verdict of f, verdict of f^2) for every census morphism."""
    return [(f, classify(f, OPTIONS), classify(square(f), OPTIONS))
            for f in census_morphisms(7)]


def test_reason_counts(census):
    assert len(census) == 516
    assert Counter(v.reason for _, v, _ in census) == REASON_COUNTS
    assert sum(v.certainty == CERTAINTY_PROVED for _, v, _ in census) == 435


def test_claimed_periods_hold_on_a_long_prefix(census):
    claimed = 0
    for f, v, _ in census:
        if v.claimed_period is None:
            continue
        r, p = v.claimed_preperiod, v.claimed_period
        prefix = fixed_point_prefix(f, max(2 * 10**4, r + 2 * p))
        assert validate_abelian_period(prefix, r, p), (f, v.reason, r, p)
        claimed += 1
    assert claimed == sum(n for reason, n in REASON_COUNTS.items() if reason in (
        "ChunksEquivalent", "EventualWitnessFound",
        "NonPrimitive_PeriodicCertificate", "SpecialFormABAB"))


def test_eventual_witnesses_hold(census):
    witnesses = [(f, v) for f, v, _ in census if v.eventual is not None]
    assert len(witnesses) == REASON_COUNTS["EventualWitnessFound"]
    for f, v in witnesses:
        w = v.eventual
        assert eventual_conditions_at(f, v.rank1, w.k, w.cut_offset).witness, f


def test_squares_get_the_same_answer(census):
    for f, v, v2 in census:
        assert v2.answer == v.answer, (f, v.reason, v2.reason)


def test_report_bytes_are_pinned(census):
    digest = hashlib.sha256()
    for f, v, v2 in census:
        for g, verdict in ((f, v), (square(f), v2)):
            text = json.dumps(verdict_report(g, verdict), sort_keys=True)
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == REPORTS_SHA256
