"""Routing and verdicts for the abelian-periodicity classification.

The decision tree branches on primitivity and the second eigenvalue. All
positive answers and all spectral refutations are proofs; the remaining
outcomes are explicitly bounded searches, and Unknown is a first-class
answer because the rank-1 eventual case has no known scan bound.

The refutations for |theta2| > 1 and theta2 = 1 carry a discrepancy
certificate: Delta(w) = |w|_a - alpha |w|, alpha the a-frequency, is the
left theta2-eigenvector applied to the Parikh vector of w, so
Delta(f(w)) = theta2 Delta(w), and an abelian periodic word has bounded Delta
over its prefixes. The certificate is exact arithmetic on f's images and
matrix and expands no prefix (balance theory of substitutive words:
Adamczewski, Balances for fixed points of primitive substitutions, TCS 2003).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    MorphismMatrix,
    Rank1Form,
    SpectralProfile,
    _frequencies_of,
    _ratio,
    matrix_of,
    rank1_decompose,
    spectral_profile,
)
from .periodic import PeriodicityVerdict, _check_search_bounds, decide_periodic
from .rank1 import EventualWitness, PureVerdict, decide_pure, eventual_scan
from .words import BinaryMorphism, ParikhVector, _ladder, fixed_point_prefix

__all__ = [
    "Verdict",
    "ClassifyOptions",
    "ImbalanceEvidence",
    "DiscrepancyCertificate",
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
# reason implies. The router in classify picks only the reason, its witnesses
# and its evidence.
OUTCOMES = {
    REASON_SPECIAL_FORM: (ANSWER_ABELIAN_PERIODIC, CERTAINTY_PROVED),
    REASON_CHUNKS_EQUIVALENT: (ANSWER_PURE_ABELIAN_PERIODIC, CERTAINTY_PROVED),
    REASON_EVENTUAL_WITNESS: (ANSWER_ABELIAN_PERIODIC, CERTAINTY_PROVED),
    REASON_GT_ONE_UNBALANCED: (ANSWER_NOT_ABELIAN_PERIODIC, CERTAINTY_PROVED),
    REASON_IRRATIONAL_FREQUENCIES: (ANSWER_NOT_ABELIAN_PERIODIC, CERTAINTY_PROVED),
    REASON_ONE_FORM_FAILS: (ANSWER_NOT_ABELIAN_PERIODIC, CERTAINTY_PROVED),
    REASON_MINUS_ONE: (ANSWER_NOT_ABELIAN_PERIODIC, CERTAINTY_PROVED),
    REASON_NONPRIMITIVE_PERIODIC: (ANSWER_ABELIAN_PERIODIC, CERTAINTY_PROVED),
    REASON_NONPRIMITIVE_NO_PERIOD: (
        ANSWER_NOT_ABELIAN_PERIODIC,
        CERTAINTY_BOUNDED_SEARCH,
    ),
    REASON_PURE_REFUTED_OPEN: (ANSWER_UNKNOWN, CERTAINTY_BOUNDED_SEARCH),
    REASON_RESOURCE_EXHAUSTED: (ANSWER_UNKNOWN, CERTAINTY_BOUNDED_SEARCH),
}
REASONS = tuple(OUTCOMES)
ANSWERS = tuple(dict.fromkeys(answer for answer, _ in OUTCOMES.values()))
CERTAINTIES = tuple(dict.fromkeys(certainty for _, certainty in OUTCOMES.values()))

# |Delta| a certificate's prefix reaches, and the imbalance a window scan
# tries to reach before it stops early
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
    length of the window evidence of NonPrimitive_NoPeriodFound; below 2 it
    gives none. The discrepancy certificates of the spectral refutations
    read no prefix, so the horizon leaves them alone."""

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

    The evidence of NonPrimitive_NoPeriodFound, a bounded search. Supporting
    measurement only: no verdict's correctness rests on it."""

    window_length: int
    imbalance: int
    horizon: int
    target: int
    reached: bool

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class DiscrepancyCertificate:
    """Horizon-free proof that Delta(w) = |w|_a - alpha |w| is unbounded over
    the prefixes of s = f^omega(a), so s is not abelian periodic.

    kind "irrational_frequencies": |theta2| > 1 with theta2 irrational; the
    frequencies are irrational, which refutes, and the verdict's
    FrequencyReport holds them. Every other field is None.

    kind "theta2_power": theta2 an integer with |theta2| >= 2, so
    Delta(f^k(a)) = theta2^k (1 - alpha). k is the least level with
    |Delta| >= EVIDENCE_TARGET, length = |f^k(a)| and delta = Delta(f^k(a)).
    With alpha = p/q, k <= log2(4q) + 1, so length stays a short number.

    kind "theta2_one_cycle": theta2 = 1, so whole images keep Delta, and
    Delta(s[:x]) is the sum of h(c, i) = Delta(f(c)[:i]) over the digit path
    of x, edges (c, i) from a, each to the node f(c)[i]. loop = (c, i) is a
    loop, f(c)[i] = c, of h `weight` != 0 (one always exists, see
    _certificate); entry is None when c = a, else the offset of the first b
    of f(a), the edge from a into the loop. The digit path of entry, then
    the loop r >= 1 times, has k digits and names a prefix of f^k(a) with
    delta = Delta, r the least with |delta| >= EVIDENCE_TARGET; one more
    turn adds `weight` (digit paths: Allouche-Shallit, Automatic Sequences,
    2003). length stays None: r grows with alpha's denominator and the
    prefix like the Perron eigenvalue to the power r, thousands of digits
    for images of a thousand letters, and entry, loop and k fix it."""

    kind: str
    k: int | None = None
    length: int | None = None
    delta: Fraction | None = None
    entry: int | None = None
    loop: tuple[str, int] | None = None
    weight: Fraction | None = None

    def to_json(self) -> dict:
        """Lengths are decimal strings, Delta values "p/q" strings and the
        loop a [letter, offset] list."""

        def ratio(x):
            return None if x is None else _ratio(x)

        return {
            **vars(self),
            "length": None if self.length is None else str(self.length),
            "delta": ratio(self.delta),
            "loop": None if self.loop is None else list(self.loop),
            "weight": ratio(self.weight),
        }


@dataclass(frozen=True)
class Verdict:
    """A reason with the witnesses and bounds behind it.

    The answer and certainty are the reason's row in OUTCOMES; the claimed
    abelian period is read off the witness of a periodic answer. matrix is
    f's incidence matrix, built once by classify."""

    reason: str
    spectral: SpectralProfile
    matrix: MorphismMatrix
    rank1: Rank1Form | None = None
    pure: PureVerdict | None = None
    eventual: EventualWitness | None = None
    periodicity: PeriodicityVerdict | None = None
    special_form: tuple[int, int] | None = None
    frequencies: FrequencyReport | None = None
    evidence: ImbalanceEvidence | DiscrepancyCertificate | None = None
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
    every window of at most `longest` letters of s[0:n]; n itself when
    f(b) = b (b's block stays one letter), or the two blocks below pass n
    letters first.

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
    horizon. At the default 10^5 letters, where both letters grow, the
    first stage reads a few thousand letters (under 10^4 on the golden
    refutations); f(b) = b, and the stage past 255, read all of them.
    classify attaches it to NonPrimitive_NoPeriodFound only. f must be
    prolongable on a (NotProlongableError otherwise): _cover's ladder ends
    because f^k(a) grows every round."""
    f.require_prolongable()
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


def _certificate(
    f: BinaryMorphism, mat: MorphismMatrix, prof: SpectralProfile, alpha: Fraction
) -> DiscrepancyCertificate:
    """The discrepancy certificate of a |theta2| > 1 or theta2 = 1
    refutation; alpha is the a-frequency, rational unless theta2 is
    irrational.

    Delta is kept scaled by alpha = p/q's denominator: q Delta(w) =
    (q - p) |w|_a - p |w|_b, an integer."""
    if prof.theta2_kind == THETA2_IRRATIONAL:
        return DiscrepancyCertificate("irrational_frequencies")
    p, q = alpha.numerator, alpha.denominator

    def scaled(v: ParikhVector) -> int:
        return (q - p) * v.count_a - p * v.count_b

    target = EVIDENCE_TARGET * q
    if prof.theta2_value != 1:
        v, k = ParikhVector(1, 0), 0
        while abs(scaled(v)) < target:
            v, k = mat.apply(v), k + 1
        return DiscrepancyCertificate(
            "theta2_power", k, v.length, Fraction(scaled(v), q)
        )

    # theta2 = 1: the first loop of nonzero weight, at a by offset, else at b
    # entered by the first a -> b edge (f(a)[:i] = a^i there)
    image_a = str(f.image_a)
    entry, start = None, 0
    found = _first_loop("a", image_a, scaled)
    if found is None:
        entry = image_a.index("b")
        start = scaled(ParikhVector(entry, 0))
        found = _first_loop("b", str(f.image_b), scaled)
    # Some loop weighs nonzero, so no cycle through both letters is needed.
    # Suppose not: h = 0 at every a of f(a) and every b of f(b). h steps by
    # 1 - alpha over an a and by -alpha over a b, so f(a) has no aa, f(b) has
    # no bb and starts with b (a b after an a-run would have h > 0).
    # theta2 = 1 means (m11 - 1)(m22 - 1) = m12 m21 > 0, so f(a) has two a's
    # and f(b) two b's: f(a) has a b-run between two a's, of (1 - alpha) /
    # alpha letters, and f(b) an a-run between two b's, of alpha / (1 - alpha).
    # Both are 1, alpha = 1/2, f(a) = a(ba)^k b^t and f(b) = b(ab)^m a^u.
    # (1, 1) is then the Perron vector: equal row sums give t = u, and
    # trace = row sum + 1 gives u = 0, the special form, routed before this.
    assert found is not None, "theta2 = 1 with every loop balanced is the special form"
    loop, weight = found
    turns = 1
    while abs(start + turns * weight) < target:
        turns += 1
    return DiscrepancyCertificate(
        "theta2_one_cycle",
        turns if entry is None else turns + 1,
        None,
        Fraction(start + turns * weight, q),
        entry,
        loop,
        Fraction(weight, q),
    )


def _first_loop(c: str, image: str, scaled) -> tuple[tuple[str, int], int] | None:
    """The first loop (c, i), image[i] = c, whose head image[:i] has nonzero
    scaled Delta, with that scaled Delta; None when every loop at c is
    balanced."""
    count_a = 0
    for i, x in enumerate(image):
        if x == c:
            weight = scaled(ParikhVector(count_a, i - count_a))
            if weight:
                return (c, i), weight
        count_a += x == "a"
    return None


def classify(f: BinaryMorphism, options: ClassifyOptions | None = None) -> Verdict:
    """Decide abelian periodicity of f^omega(a), as far as proofs or the
    configured bounds allow.

    Non-primitive morphisms are settled by the certified periodicity search;
    when it finds no period, the verdict carries window evidence on a
    `horizon`-letter prefix. Primitive morphisms with nonzero second
    eigenvalue are either the alternating special family (abelian periodic)
    or refuted by their spectral class; the |theta2| > 1 and theta2 = 1
    refutations carry a discrepancy certificate, which reads no prefix. The
    remaining rank-1 case runs the pure decision and then a bounded scan for
    an eventual witness. One incidence matrix serves every step and the
    report; the primitive and rank-1 outcomes name the witnesses they share
    once, as partial Verdicts."""
    opts = options or ClassifyOptions()
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
                REASON_NONPRIMITIVE_PERIODIC, prof, mat, periodicity=pv, bounds=bounds
            )
        return Verdict(
            REASON_NONPRIMITIVE_NO_PERIOD,
            prof,
            mat,
            periodicity=pv,
            evidence=imbalance_evidence(f, opts.horizon, EVIDENCE_TARGET),
            bounds=bounds + (("horizon", opts.horizon),),
        )

    freqs = _frequencies_of(mat)
    primitive = partial(Verdict, spectral=prof, matrix=mat, frequencies=freqs)

    if prof.theta2_kind != THETA2_ZERO:
        form_km = special_form_exponents(f)
        if form_km is not None:
            return primitive(REASON_SPECIAL_FORM, special_form=form_km)
        if prof.theta2_abs_class == ABS_IN_OPEN_UNIT_INTERVAL:
            return primitive(REASON_IRRATIONAL_FREQUENCIES)
        if prof.theta2_value == -1:
            return primitive(REASON_MINUS_ONE)
        # |theta2| > 1 or theta2 = 1
        if prof.theta2_value == 1:
            reason = REASON_ONE_FORM_FAILS
        else:
            reason = REASON_GT_ONE_UNBALANCED
        return primitive(reason, evidence=_certificate(f, mat, prof, freqs.rational_a))

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
        "matrix": [list(row) for row in verdict.matrix.rows()],
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
        # the window evidence of a bounded search, or a discrepancy certificate
        evidence={
            "anyOf": [
                {"type": "null"},
                _obj(
                    window_length={"type": "integer", "minimum": 1},
                    imbalance={"type": "integer", "minimum": 0},
                    horizon={"type": "integer", "minimum": 2},
                    target={"type": "integer", "minimum": 1},
                    reached={"type": "boolean"},
                ),
                _obj(
                    kind={
                        "enum": [
                            "irrational_frequencies",
                            "theta2_power",
                            "theta2_one_cycle",
                        ]
                    },
                    k=_nullable({"type": "integer", "minimum": 1}),
                    length=_nullable(_DECIMAL),
                    delta=_nullable(_FRACTION),
                    entry=_nullable({"type": "integer", "minimum": 1}),
                    loop=_nullable(
                        {
                            "type": "array",
                            "items": [
                                {"enum": ["a", "b"]},
                                {"type": "integer", "minimum": 1},
                            ],
                            "minItems": 2,
                            "maxItems": 2,
                        }
                    ),
                    weight=_nullable(_FRACTION),
                ),
            ]
        },
    ),
}
