"""Seeded inputs for the benchmark workloads.

Everything here is plain Python on morphism texts: the library sees only the
finished inputs. The same seed always gives the same inputs.

The cost of classifying one morphism is heavy-tailed: a few inputs (the
non-primitive ones without a period, and the rank-1 ones whose eventual scan
runs out of budget) take 0.1-2 s while most take under a millisecond. A
seeded draw that may or may not contain such an input would make wall time
depend on the seed more than on the code, so the heavy inputs are a fixed
list in every workload and the seeded draws come from strata of the tests'
random families that hold no such input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Copy of the golden corpus in tests/conftest.py: (text, answer, certainty,
# reason, claimed (preperiod, period) or None).
GOLDEN = [
    ("a->ab; b->ba", "PureAbelianPeriodic", "Proved", "ChunksEquivalent", (0, 2)),
    ("a->aba; b->bab", "AbelianPeriodic", "Proved", "SpecialFormABAB", (0, 2)),
    ("a->ab; b->a", "NotAbelianPeriodic", "Proved", "IrrationalFrequencies", None),
    ("a->aab; b->bbaab", "NotAbelianPeriodic", "Proved", "Theta2One_FormFails", None),
    ("a->aaab; b->abbb", "NotAbelianPeriodic", "Proved", "Theta2AbsGtOne_Unbalanced", None),
    ("a->ab; b->b", "AbelianPeriodic", "Proved", "NonPrimitive_PeriodicCertificate", (1, 1)),
    ("a->aab; b->b", "NotAbelianPeriodic", "BoundedSearch", "NonPrimitive_NoPeriodFound", None),
    ("a->ab; b->bbaa", "Unknown", "BoundedSearch", "Rank1_PureRefuted_EventualOpen", None),
    ("a->abba; b->ab", "PureAbelianPeriodic", "Proved", "ChunksEquivalent", (0, 2)),
    ("a->ababa; b->bababab", "AbelianPeriodic", "Proved", "SpecialFormABAB", (0, 2)),
]

# Non-primitive morphisms with no eventually periodic fixed point: the
# periodicity search scans its whole (preperiod, period) range, whose size
# grows with |f(a)| + |f(b)|.
NO_PERIOD_TAIL = ["a->aab; b->" + "b" * j for j in range(2, 6)]

# More members of the rank-1 family whose eventual scan ends Unknown at the
# benchmark budget. With a->ab; b->bbaa and its square, two are stopped by the
# level cap and two by the offset budget.
RANK1_OPEN = ["a->aabb; b->ba", "a->ab; b->bbbaaa"]

# abelian_period_oracle's max_period and max_preperiod on every slice
ORACLE_BOUND = 200
# DFAO positions: half below Sizes.dfao_low, half in [dfao_low, DFAO_HIGH)
DFAO_HIGH = 10**12

PREFIX_MORPHISMS = [
    ("thue_morse", "a->ab; b->ba"),
    ("fibonacci", "a->ab; b->a"),
    ("ab_bbaa", "a->ab; b->bbaa"),
]


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does. FULL is the benchmark; TINY serves the
    self-test."""

    tails: bool = True  # squares of the golden corpus and the heavy lists
    # Most draws are primitive and finish on the spectral path in well under
    # a millisecond, so the median latency sits inside that group.
    general_per_cell: tuple = (("primitive", 27), ("non_primitive", 3))
    rank1_per_stratum: int = 150
    prefix_letters: int = 10**7
    oracle_slices: int = 12
    oracle_letters: int = 50_000
    complexity_slices: int = 24
    complexity_letters: int = 100_000
    complexity_nmax: int = 200
    dfao_batches: int = 4
    dfao_batch: int = 500
    dfao_low: int = 10**6


FULL = Sizes()
TINY = Sizes(
    tails=False,
    general_per_cell=(("primitive", 1),),
    rank1_per_stratum=1,
    prefix_letters=20_000,
    oracle_slices=2,
    oracle_letters=2_000,
    complexity_slices=2,
    complexity_letters=2_000,
    complexity_nmax=20,
    dfao_batches=1,
    dfao_batch=20,
    dfao_low=10_000,
)


def images(text: str) -> tuple[str, str]:
    """(f(a), f(b)) of a morphism written 'a->WORD; b->WORD'."""
    parts = dict(p.strip().split("->") for p in text.split(";"))
    return parts["a"], parts["b"]


def square_text(text: str) -> str:
    ia, ib = images(text)
    img = {"a": ia, "b": ib}
    sq = {c: "".join(img[d] for d in img[c]) for c in "ab"}
    return f"a->{sq['a']}; b->{sq['b']}"


def _counts(ia: str, ib: str) -> tuple[int, int, int, int]:
    """Incidence matrix entries (m11, m12, m21, m22); columns are Parikh
    vectors of the images."""
    return ia.count("a"), ib.count("a"), ia.count("b"), ib.count("b")


def _general_stratum(ia: str, ib: str) -> str | None:
    """Stratum of a light member of the general family, "primitive" or
    "non_primitive". None for rank-1 members (they belong to rank1_eventual)
    and for growing non-primitive ones (f(b) in b+, f(a) with two a's and a
    b), whose periodicity search finds nothing and scans to the bound."""
    m11, m12, m21, m22 = _counts(ia, ib)
    if m11 * m22 - m12 * m21 == 0:
        return None
    square = (m11 * m11 + m12 * m21, m11 * m12 + m12 * m22, m21 * m11 + m22 * m21, m21 * m12 + m22 * m22)
    if min(m11, m12, m21, m22) > 0 or min(square) > 0:
        return "primitive"  # for 2x2 matrices M or M^2 positive decides it
    if set(ib) == {"b"} and m11 >= 2 and m21 >= 1:
        return None
    return "non_primitive"


def general_draw(rng: random.Random, per_cell: dict[str, int]) -> list[str]:
    """The tests' random_morphism family (f(a) starts with a, |f(a)| in 2..5,
    |f(b)| in 1..5): for each (|f(a)|, |f(b)|) cell, per_cell[stratum] light
    draws of each stratum."""
    out = []
    for la in range(2, 6):
        for lb in range(1, 6):
            want = dict(per_cell)
            while any(want.values()):
                ia = "a" + "".join(rng.choice("ab") for _ in range(la - 1))
                ib = "".join(rng.choice("ab") for _ in range(lb))
                stratum = _general_stratum(ia, ib)
                if want.get(stratum):
                    out.append(f"a->{ia}; b->{ib}")
                    want[stratum] -= 1
    return out


# (n, m) column ratios and (A, B) block compositions of the random_rank1_morphism
# family (tests/conftest.py) whose members all settle within a few ms at the
# benchmark budget: A != B and n + m <= 3.
RANK1_STRATA = [
    (n, m, A, B)
    for n, m in ((1, 1), (1, 2), (2, 1))
    for A in range(1, 4)
    for B in range(1, 4)
    if A != B
]


def rank1_draw(rng: random.Random, per_stratum: int) -> list[str]:
    out = []
    for n, m, A, B in RANK1_STRATA:
        for _ in range(per_stratum):
            a_rest = ["a"] * (n * A - 1) + ["b"] * (n * B)
            b_letters = ["a"] * (m * A) + ["b"] * (m * B)
            rng.shuffle(a_rest)
            rng.shuffle(b_letters)
            out.append("a->a%s; b->%s" % ("".join(a_rest), "".join(b_letters)))
    return out


@dataclass(frozen=True)
class ClassifyInputs:
    texts: list[str]
    # index -> (answer, certainty, reason, claimed) for golden entries; the
    # squares carry only the answer, which squaring preserves
    expected: dict[int, tuple]


def classify_mix(seed: int, sizes: Sizes) -> ClassifyInputs:
    rng = random.Random(seed)
    texts = [g[0] for g in GOLDEN]
    expected = {i: g[1:] for i, g in enumerate(GOLDEN)}
    if sizes.tails:
        for i, g in enumerate(GOLDEN):
            expected[len(texts)] = (g[1], None, None, None)
            texts.append(square_text(g[0]))
        texts += NO_PERIOD_TAIL
    texts += general_draw(rng, dict(sizes.general_per_cell))
    return ClassifyInputs(texts, expected)


def rank1_eventual(seed: int, sizes: Sizes) -> ClassifyInputs:
    rng = random.Random(seed)
    bbaa = GOLDEN[7]
    texts = [bbaa[0]]
    expected = {0: bbaa[1:]}
    if sizes.tails:
        texts.append(square_text(bbaa[0]))
        expected[1] = (bbaa[1], None, None, None)
        texts += RANK1_OPEN
    texts += rank1_draw(rng, sizes.rank1_per_stratum)
    return ClassifyInputs(texts, expected)


@dataclass(frozen=True)
class PrefixJob:
    name: str
    text: str
    oracle_offsets: list[int]
    complexity_offsets: list[int]
    dfao_positions: list[list[int]]  # one list per batch


def _even_offsets(rng: random.Random, count: int, span: int, total: int) -> list[int]:
    # even starts keep Thue-Morse's (0, 2) abelian period aligned with the slice
    return [2 * rng.randrange((total - span) // 2 + 1) for _ in range(count)]


def prefix_scan(seed: int, sizes: Sizes) -> list[PrefixJob]:
    rng = random.Random(seed)
    jobs = []
    for name, text in PREFIX_MORPHISMS:
        n = sizes.prefix_letters
        oracle = _even_offsets(rng, sizes.oracle_slices, sizes.oracle_letters, n)
        cx = _even_offsets(rng, sizes.complexity_slices, sizes.complexity_letters, n)
        batches = []
        for _ in range(sizes.dfao_batches):
            half = sizes.dfao_batch // 2
            low = [rng.randrange(sizes.dfao_low) for _ in range(half)]
            high = [rng.randrange(sizes.dfao_low, DFAO_HIGH) for _ in range(sizes.dfao_batch - half)]
            batches.append(low + high)
        jobs.append(PrefixJob(name, text, oracle, cx, batches))
    return jobs
