"""Routing and verdicts for the abelian-periodicity classification.

The decision tree branches on primitivity and the second eigenvalue. All
positive answers and all spectral refutations are proofs; the remaining
outcomes are explicitly bounded searches, and Unknown is a first-class
answer because the rank-1 eventual case has no known scan bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .analysis import _prefix_counts, _window_spread
from .matrices import (
    ABS_EQ_ONE,
    ABS_EQ_ZERO,
    ABS_GT_ONE,
    ABS_IN_OPEN_UNIT_INTERVAL,
    THETA2_INTEGER,
    THETA2_IRRATIONAL,
    THETA2_ZERO,
    FrequencyReport,
    Rank1Form,
    SpectralProfile,
    _frequencies_of,
    matrix_of,
    rank1_decompose,
    spectral_profile,
)
from .periodic import PeriodicityVerdict, _check_search_bounds, decide_periodic
from .rank1 import EventualWitness, PureVerdict, decide_pure, eventual_scan
from .words import BinaryMorphism, _ladder, fixed_point_prefix

__all__ = [
    "Verdict",
    "ClassifyOptions",
    "ImbalanceEvidence",
    "classify",
    "special_form_exponents",
    "imbalance_evidence",
    "verdict_report",
    "VERDICT_REPORT_SCHEMA",
    "ANSWER_ABELIAN_PERIODIC",
    "ANSWER_PURE_ABELIAN_PERIODIC",
    "ANSWER_NOT_ABELIAN_PERIODIC",
    "ANSWER_UNKNOWN",
    "CERTAINTY_PROVED",
    "CERTAINTY_BOUNDED_SEARCH",
    "REASON_SPECIAL_FORM",
    "REASON_CHUNKS_EQUIVALENT",
    "REASON_EVENTUAL_WITNESS",
    "REASON_GT_ONE_UNBALANCED",
    "REASON_IRRATIONAL_FREQUENCIES",
    "REASON_ONE_FORM_FAILS",
    "REASON_MINUS_ONE",
    "REASON_NONPRIMITIVE_PERIODIC",
    "REASON_NONPRIMITIVE_NO_PERIOD",
    "REASON_PURE_REFUTED_OPEN",
    "REASON_RESOURCE_EXHAUSTED",
]

ANSWER_ABELIAN_PERIODIC = "AbelianPeriodic"
ANSWER_PURE_ABELIAN_PERIODIC = "PureAbelianPeriodic"
ANSWER_NOT_ABELIAN_PERIODIC = "NotAbelianPeriodic"
ANSWER_UNKNOWN = "Unknown"

CERTAINTY_PROVED = "Proved"
CERTAINTY_BOUNDED_SEARCH = "BoundedSearch"

REASON_SPECIAL_FORM = "SpecialFormABAB"
REASON_CHUNKS_EQUIVALENT = "ChunksEquivalent"
REASON_EVENTUAL_WITNESS = "EventualWitnessFound"
REASON_GT_ONE_UNBALANCED = "Theta2AbsGtOne_Unbalanced"
REASON_IRRATIONAL_FREQUENCIES = "IrrationalFrequencies"
REASON_ONE_FORM_FAILS = "Theta2One_FormFails"
REASON_MINUS_ONE = "Theta2MinusOne"
REASON_NONPRIMITIVE_PERIODIC = "NonPrimitive_PeriodicCertificate"
REASON_NONPRIMITIVE_NO_PERIOD = "NonPrimitive_NoPeriodFound"
REASON_PURE_REFUTED_OPEN = "Rank1_PureRefuted_EventualOpen"
REASON_RESOURCE_EXHAUSTED = "ResourceExhausted"

# The whole outcome policy, one row per reason: the answer and certainty the
# reason implies, and whether the verdict carries imbalance evidence. The
# router in classify picks only the reason and its witnesses.
OUTCOMES = {
    REASON_SPECIAL_FORM: (ANSWER_ABELIAN_PERIODIC, CERTAINTY_PROVED, False),
    REASON_CHUNKS_EQUIVALENT: (ANSWER_PURE_ABELIAN_PERIODIC, CERTAINTY_PROVED, False),
    REASON_EVENTUAL_WITNESS: (ANSWER_ABELIAN_PERIODIC, CERTAINTY_PROVED, False),
    REASON_GT_ONE_UNBALANCED: (ANSWER_NOT_ABELIAN_PERIODIC, CERTAINTY_PROVED, True),
    REASON_IRRATIONAL_FREQUENCIES: (ANSWER_NOT_ABELIAN_PERIODIC, CERTAINTY_PROVED, False),
    REASON_ONE_FORM_FAILS: (ANSWER_NOT_ABELIAN_PERIODIC, CERTAINTY_PROVED, True),
    REASON_MINUS_ONE: (ANSWER_NOT_ABELIAN_PERIODIC, CERTAINTY_PROVED, False),
    REASON_NONPRIMITIVE_PERIODIC: (ANSWER_ABELIAN_PERIODIC, CERTAINTY_PROVED, False),
    REASON_NONPRIMITIVE_NO_PERIOD: (
        ANSWER_NOT_ABELIAN_PERIODIC,
        CERTAINTY_BOUNDED_SEARCH,
        True,
    ),
    REASON_PURE_REFUTED_OPEN: (ANSWER_UNKNOWN, CERTAINTY_BOUNDED_SEARCH, False),
    REASON_RESOURCE_EXHAUSTED: (ANSWER_UNKNOWN, CERTAINTY_BOUNDED_SEARCH, False),
}
REASONS = tuple(OUTCOMES)
ANSWERS = tuple(dict.fromkeys(answer for answer, _, _ in OUTCOMES.values()))
CERTAINTIES = tuple(dict.fromkeys(certainty for _, certainty, _ in OUTCOMES.values()))

# imbalance a window scan tries to reach before it stops early
EVIDENCE_TARGET = 4


def special_form_exponents(f: BinaryMorphism) -> tuple[int, int] | None:
    """Exponents (k, m) when f(a) = a(ba)^k and f(b) = b(ab)^m, else None.

    Both images must alternate letters, start with their own letter, and have
    odd length. Fixed points of this family equal (ab)^omega."""
    k, m = (len(f.image_a) - 1) // 2, (len(f.image_b) - 1) // 2
    if f.image_a == "a" + "ba" * k and f.image_b == "b" + "ab" * m:
        return (k, m)
    return None


@dataclass(frozen=True)
class ClassifyOptions:
    """Bounds for the searches a classification may run.

    eventual_k_max limits the eventual-witness level scan; the offset budget
    caps the total cut offsets tried across levels (the per-level offset
    count is the period and grows geometrically). horizon is the prefix
    length used for imbalance evidence; below 2 it gives none."""

    eventual_k_max: int = 8
    eventual_offset_budget: int = 10**6
    horizon: int = 10**5
    max_period: int | None = None
    max_preperiod: int | None = None
    max_configurations: int = 10**6

    def __post_init__(self) -> None:
        # checked here, not on the route that uses a bound, so a bad bound is
        # rejected whatever morphism (or empty corpus) the options meet
        for name, value in (
            ("horizon", self.horizon),
            ("k_max", self.eventual_k_max),
            ("offset_budget", self.eventual_offset_budget),
            ("max_configurations", self.max_configurations),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        _check_search_bounds(self.max_period, self.max_preperiod)


@dataclass(frozen=True)
class ImbalanceEvidence:
    """Largest window-count spread found by a geometric window-length scan.

    Supporting measurement only: no verdict's correctness rests on it."""

    window_length: int
    imbalance: int
    horizon: int
    target: int
    reached: bool

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class Verdict:
    """A reason with the witnesses and bounds behind it.

    The answer and certainty are the reason's row in OUTCOMES; the claimed
    abelian period is read off the witness of a periodic answer."""

    reason: str
    spectral: SpectralProfile
    rank1: Rank1Form | None = None
    pure: PureVerdict | None = None
    eventual: EventualWitness | None = None
    periodicity: PeriodicityVerdict | None = None
    special_form: tuple[int, int] | None = None
    frequencies: FrequencyReport | None = None
    evidence: ImbalanceEvidence | None = None
    bounds: tuple[tuple[str, int], ...] = ()

    @property
    def answer(self) -> str:
        return OUTCOMES[self.reason][0]

    @property
    def certainty(self) -> str:
        return OUTCOMES[self.reason][1]

    def _claim(self) -> tuple[int, int] | None:
        """(preperiod, period) of the periodic witness, if there is one."""
        if self.special_form is not None:
            return (0, 2)
        if self.eventual is not None:
            return (self.eventual.cut_offset, self.eventual.period)
        if self.pure is not None and self.pure.period is not None:
            return (0, self.pure.period)
        if self.periodicity is not None and self.periodicity.found:
            return (len(self.periodicity.preperiod), len(self.periodicity.period))
        return None

    @property
    def claimed_preperiod(self) -> int | None:
        claim = self._claim()
        return None if claim is None else claim[0]

    @property
    def claimed_period(self) -> int | None:
        claim = self._claim()
        return None if claim is None else claim[1]

    @property
    def is_abelian_periodic(self) -> bool | None:
        if self.answer in (ANSWER_ABELIAN_PERIODIC, ANSWER_PURE_ABELIAN_PERIODIC):
            return True
        if self.answer == ANSWER_NOT_ABELIAN_PERIODIC:
            return False
        return None


def _cover(f: BinaryMorphism, n: int, longest: int) -> int:
    """A prefix length of at most n whose prefix of s = f^omega(a) holds
    every window of at most `longest` letters of s[0:n]; n itself when a
    letter stops growing, or the two blocks below pass n letters first.

    With k the least level at which f^k(a) and f^k(b) both have at least
    longest - 1 letters, s = f^k(s) is the blocks f^k(s_j) in order, and a
    window of at most `longest` letters that starts in block j ends by block
    j + 1, so it lies in f^k(s_j s_j+1). A window of s[0:n] starts in a block
    j < n / min|f^k(c)|, so its pair s_j s_j+1 lies in the first
    ceil(n / min|f^k(c)|) + 2 letters of s and first occurs by i, the last
    first occurrence of a 2-letter factor there: the window occurs in
    f^k(s[0:i+2]), the prefix of |s[0:i+2]|_a |f^k(a)| + |s[0:i+2]|_b |f^k(b)|
    letters."""
    rounds = _ladder([f.image_a.data, f.image_b.data], longest - 1, n)
    if rounds is None:
        return n
    la, lb = rounds[-1]
    head = fixed_point_prefix(f, -(-n // min(la, lb)) + 2).data.tobytes()
    i = max(head.find(pair) for pair in (b"\0\0", b"\0\1", b"\1\0", b"\1\1"))
    bs = head.count(1, 0, i + 2)
    return min(n, (i + 2 - bs) * la + bs * lb)


def imbalance_evidence(
    f: BinaryMorphism, horizon: int, target: int
) -> ImbalanceEvidence | None:
    """Scan window lengths on a geometric grid (ratio ~sqrt(2)) for a window
    count spread of s[0:horizon] reaching `target` >= 1; keep the best seen
    otherwise.

    Windows of up to 255 letters are read from one-byte prefix counts (a
    window's count is exact under wrapping subtraction modulo 256); wider
    counts are built only when the grid passes 255, so a target reached
    within 255 letters (the golden refutations reach it at 5-16) never
    builds them.

    Each stage scans only the prefix _cover finds: every window of
    s[0:horizon] up to the stage's widest lies in two consecutive blocks
    f^k(x) f^k(y) of s = f^k(s), so in the first occurrence of the pair xy
    (the two-block argument of factor complexity). That prefix, a part of
    s[0:horizon], has exactly the windows of s[0:horizon] up to that width,
    so the spreads and the reported `horizon` are those of the whole
    horizon. At the
    default 10^5 letters the first stage reads a few thousand letters (the
    166 evidence morphisms of the seed-1 bench corpus: median 3,884, p90
    9,540); a letter that stops growing, and the stage past 255, read all
    of them."""
    if target < 1:
        raise ValueError("target must be >= 1")
    if horizon < 2:
        return None
    n = horizon

    def counts_upto(longest: int):
        return _prefix_counts(fixed_point_prefix(f, _cover(f, n, longest)).data, longest)

    longest = 255
    counts = counts_upto(longest)
    best_len, best_im = 1, 0
    ell = 1
    while ell <= n // 2:
        if ell > longest:
            longest = n // 2
            counts = counts_upto(longest)
        im = _window_spread(counts, ell)
        if im > best_im:
            best_len, best_im = ell, im
            if im >= target:
                return ImbalanceEvidence(ell, im, n, target, True)
        ell = max(ell + 1, (ell * 181) // 128)
    return ImbalanceEvidence(best_len, best_im, n, target, False)


def classify(f: BinaryMorphism, options: ClassifyOptions | None = None) -> Verdict:
    """Decide abelian periodicity of f^omega(a), as far as proofs or the
    configured bounds allow.

    Non-primitive morphisms are settled by the certified periodicity search.
    Primitive morphisms with nonzero second eigenvalue are either the
    alternating special family (abelian periodic) or refuted by their
    spectral class. The remaining rank-1 case runs the pure decision and
    then a bounded scan for an eventual witness. A verdict whose reason's
    row asks for it then gets imbalance evidence."""
    opts = options or ClassifyOptions()
    verdict = _route(f, opts)
    if OUTCOMES[verdict.reason][2]:
        evidence = imbalance_evidence(f, opts.horizon, EVIDENCE_TARGET)
        verdict = replace(verdict, evidence=evidence)
    return verdict


def _route(f: BinaryMorphism, opts: ClassifyOptions) -> Verdict:
    """The reason for f and the witnesses and bounds behind it. The primitive
    and rank-1 outcomes name the witnesses they share once, as partial Verdicts."""
    f.require_prolongable()
    mat = matrix_of(f)
    prof = spectral_profile(mat)

    if not prof.primitive:
        pv = decide_periodic(f, opts.max_period, opts.max_preperiod)
        bounds = (
            ("max_preperiod", pv.max_preperiod),
            ("max_period", pv.max_period),
        )
        if pv.found:
            return Verdict(
                REASON_NONPRIMITIVE_PERIODIC, prof, periodicity=pv, bounds=bounds
            )
        return Verdict(
            REASON_NONPRIMITIVE_NO_PERIOD,
            prof,
            periodicity=pv,
            bounds=bounds + (("horizon", opts.horizon),),
        )

    primitive = partial(Verdict, spectral=prof, frequencies=_frequencies_of(mat))

    if prof.theta2_kind != THETA2_ZERO:
        form_km = special_form_exponents(f)
        if form_km is not None:
            return primitive(REASON_SPECIAL_FORM, special_form=form_km)
        if prof.theta2_abs_class == ABS_GT_ONE:
            reason = REASON_GT_ONE_UNBALANCED
        elif prof.theta2_abs_class == ABS_IN_OPEN_UNIT_INTERVAL:
            reason = REASON_IRRATIONAL_FREQUENCIES
        else:
            assert prof.theta2_abs_class == ABS_EQ_ONE
            reason = (
                REASON_ONE_FORM_FAILS if prof.theta2_value == 1 else REASON_MINUS_ONE
            )
        return primitive(reason)

    form = rank1_decompose(mat)
    pure = decide_pure(f, max_configurations=opts.max_configurations)
    rank1 = partial(primitive, rank1=form, pure=pure)
    if pure.status == "pure":
        return rank1(REASON_CHUNKS_EQUIVALENT)
    if pure.status == "resource_exhausted":
        bounds = (("max_configurations", opts.max_configurations),)
        return rank1(REASON_RESOURCE_EXHAUSTED, bounds=bounds)

    k_max, budget = opts.eventual_k_max, opts.eventual_offset_budget
    witness, k_scanned = eventual_scan(f, form, k_max, budget)
    if witness is not None:
        return rank1(REASON_EVENTUAL_WITNESS, eventual=witness)
    bounds = (
        ("eventual_k_max", k_max),
        ("eventual_k_scanned", k_scanned),
        ("eventual_offset_budget", budget),
    )
    return rank1(REASON_PURE_REFUTED_OPEN, bounds=bounds)


def _to_json(x) -> dict | None:
    return None if x is None else x.to_json()


def verdict_report(f: BinaryMorphism, verdict: Verdict) -> dict:
    """JSON-ready report for a classification.

    Each part comes from its result type's to_json. Numbers that can exceed
    53 bits (periods, offsets) are decimal strings so the report survives
    tools with double-precision JSON parsers; exact rationals are "p/q"
    strings."""
    from . import __version__

    special = verdict.special_form
    claim = verdict._claim()
    claimed = None
    if claim is not None:
        claimed = {"preperiod": str(claim[0]), "period": str(claim[1])}
    return {
        "meta": {"tool": "abmorph", "version": __version__},
        "morphism": {
            "a": str(f.image_a),
            "b": str(f.image_b),
            "text": f.to_text(),
        },
        "matrix": [list(row) for row in matrix_of(f).rows()],
        "spectral": verdict.spectral.to_json(),
        "rank1": _to_json(verdict.rank1),
        "answer": verdict.answer,
        "certainty": verdict.certainty,
        "reason": verdict.reason,
        "witnesses": {
            "pure": _to_json(verdict.pure),
            "eventual": _to_json(verdict.eventual),
            "periodicity": _to_json(verdict.periodicity),
            "special_form": None
            if special is None
            else {"k": special[0], "m": special[1]},
            "claimed_abelian_period": claimed,
        },
        "frequencies": _to_json(verdict.frequencies),
        "bounds": dict(verdict.bounds),
        "evidence": _to_json(verdict.evidence),
    }


def _nullable(schema: dict) -> dict:
    return {"anyOf": [{"type": "null"}, schema]}


def _obj(**properties) -> dict:
    """Closed object schema; every property is required, in the given order."""
    return {
        "type": "object",
        "additionalProperties": False,
        "required": list(properties),
        "properties": properties,
    }


_DECIMAL = {"type": "string", "pattern": "^-?[0-9]+$"}
_FRACTION = {"type": "string", "pattern": "^-?[0-9]+/[0-9]+$"}
_FREQUENCY = _obj(rational_part=_FRACTION, sqrt_coefficient=_FRACTION)

VERDICT_REPORT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_obj(
        meta=_obj(tool={"const": "abmorph"}, version={"type": "string"}),
        morphism=_obj(
            a={"type": "string", "pattern": "^[ab]+$"},
            b={"type": "string", "pattern": "^[ab]+$"},
            text={"type": "string"},
        ),
        matrix={
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {"type": "integer", "minimum": 0},
            },
        },
        spectral=_obj(
            trace={"type": "integer"},
            determinant={"type": "integer"},
            discriminant={"type": "integer", "minimum": 0},
            theta2_kind={"enum": [THETA2_ZERO, THETA2_INTEGER, THETA2_IRRATIONAL]},
            theta2_value=_nullable({"type": "integer"}),
            theta2_abs_class={
                "enum": [ABS_EQ_ZERO, ABS_IN_OPEN_UNIT_INTERVAL, ABS_EQ_ONE, ABS_GT_ONE]
            },
            primitive={"type": "boolean"},
        ),
        rank1=_nullable(
            _obj(
                A={"type": "integer", "minimum": 1},
                B={"type": "integer", "minimum": 1},
                n={"type": "integer", "minimum": 1},
                m={"type": "integer", "minimum": 1},
                trace={"type": "integer", "minimum": 2},
                block_unit={"type": "integer", "minimum": 2},
            )
        ),
        answer={"enum": list(ANSWERS)},
        certainty={"enum": list(CERTAINTIES)},
        reason={"enum": list(REASONS)},
        witnesses=_obj(
            pure=_nullable(
                _obj(
                    status={"enum": ["pure", "not_pure", "resource_exhausted"]},
                    k=_nullable({"type": "integer", "minimum": 1}),
                    period=_nullable(_DECIMAL),
                    iterations_used={"type": "integer", "minimum": 0},
                    cycle_detected={"type": "boolean"},
                )
            ),
            eventual=_nullable(
                _obj(
                    k={"type": "integer", "minimum": 1},
                    cut_offset=_DECIMAL,
                    period=_DECIMAL,
                )
            ),
            periodicity=_nullable(
                _obj(
                    status={"enum": ["periodic", "not_found"]},
                    preperiod_word=_nullable({"type": "string", "pattern": "^[ab]*$"}),
                    period_word=_nullable({"type": "string", "pattern": "^[ab]+$"}),
                    max_preperiod={"type": "integer", "minimum": 0},
                    max_period={"type": "integer", "minimum": 1},
                )
            ),
            special_form=_nullable(
                _obj(
                    k={"type": "integer", "minimum": 0},
                    m={"type": "integer", "minimum": 0},
                )
            ),
            claimed_abelian_period=_nullable(
                _obj(preperiod=_DECIMAL, period=_DECIMAL)
            ),
        ),
        frequencies=_nullable(
            _obj(
                discriminant={"type": "integer", "minimum": 0},
                rational={"type": "boolean"},
                a=_FREQUENCY,
                b=_FREQUENCY,
            )
        ),
        bounds={"type": "object", "additionalProperties": {"type": "integer"}},
        evidence=_nullable(
            _obj(
                window_length={"type": "integer", "minimum": 1},
                imbalance={"type": "integer", "minimum": 0},
                horizon={"type": "integer", "minimum": 2},
                target={"type": "integer", "minimum": 1},
                reached={"type": "boolean"},
            )
        ),
    ),
}
