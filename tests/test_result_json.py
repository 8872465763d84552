"""The flat result types serialize their dataclass fields in declaration order.

Periods and cut offsets can exceed 53 bits, so they are exact decimal strings;
every other field keeps its type. Each to_json() returns a fresh dict, so a
caller that edits it cannot change what the instance serializes next.
"""

from dataclasses import fields

import pytest

from abmorph import (
    EventualWitness,
    ImbalanceEvidence,
    PureVerdict,
    Rank1Form,
    SpectralProfile,
)

BIG = 2**70 + 1

RESULTS = [
    SpectralProfile(3, 2, 1, "integer", 1, "one", True),
    Rank1Form(1, 2, 3, 1),
    PureVerdict("pure", 4, BIG, 4, False),
    PureVerdict("not_pure", None, None, 7, True),
    EventualWitness(5, BIG, BIG + 2),
    ImbalanceEvidence(64, 3, 4096, 8, False),
]


@pytest.mark.parametrize("result", RESULTS, ids=lambda r: type(r).__name__)
def test_keys_are_fields_in_declaration_order(result):
    names = [f.name for f in fields(result)]
    assert list(result.to_json())[: len(names)] == names


def test_rank1_form_appends_derived_values():
    form = Rank1Form(1, 2, 3, 1)
    assert form.to_json() == {"A": 1, "B": 2, "n": 3, "m": 1, "trace": 5, "block_unit": 3}


def test_pure_verdict_period_is_exact_decimal_string():
    j = PureVerdict("pure", 4, BIG, 9, False).to_json()
    assert j == {"status": "pure", "k": 4, "period": "1180591620717411303425",
                 "iterations_used": 9, "cycle_detected": False}
    assert type(j["k"]) is int and type(j["iterations_used"]) is int
    assert int(j["period"]) == BIG
    assert PureVerdict("not_pure", None, None, 7, True).to_json()["period"] is None


def test_eventual_witness_offset_and_period_are_exact_decimal_strings():
    j = EventualWitness(5, BIG, BIG + 2).to_json()
    assert j == {"k": 5, "cut_offset": "1180591620717411303425",
                 "period": "1180591620717411303427"}
    assert type(j["k"]) is int


@pytest.mark.parametrize("result", RESULTS, ids=lambda r: type(r).__name__)
def test_editing_the_result_leaves_the_instance_alone(result):
    first = result.to_json()
    want = dict(first)
    for key in list(first):
        first[key] = "edited"
    first["extra"] = 1
    assert result.to_json() == want
    assert result.to_json() is not result.to_json()
