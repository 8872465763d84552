"""The three workloads: one pass over the inputs, and the correctness gate.

A pass is a closed loop: one client, one process, each operation starts when
the previous one has finished. Every operation yields one JSON text; the gate
checks those texts after the timed passes.

Library functions are always looked up on their module at call time
(`lib.classify.classify`), so the rebinding done by tracing.instrument takes
effect.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import importlib
import io
import json
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
from tracing import instrument

# The ROADMAP sweep setting. At the library default (10**6) the square of
# a->ab; b->bbaa alone takes over a minute; the CLI cannot set this bound.
OFFSET_BUDGET = 2 * 10**4
# A claimed abelian period is re-checked on about this many letters ...
WITNESS_LETTERS = 20_000
# ... and refused as unverifiable when two blocks need more than this.
WITNESS_MAX_LETTERS = 10**7

LAYERS = ("words", "matrices", "rank1", "periodic", "analysis", "lift", "classify", "cli")


class Lib:
    """The abmorph layer modules, looked up by attribute at call time."""

    def __init__(self) -> None:
        for name in LAYERS:
            setattr(self, name, importlib.import_module("abmorph." + name))


# The shared host this benchmark was tuned on (2-core Intel Xeon VM) runs
# interpreter code at two speeds about 1.5x apart, in phases of seconds to
# minutes. calibrate(), a fixed piece of interpreter work, is sampled every
# CALIBRATION_EVERY_S between operations to track the phase. Each operation's
# time is divided by the mean of the samples just before and just after it
# and multiplied by CALIBRATION_REF_S, what calibrate() takes on that host in
# its faster phase with Python 3.11: that is its time at reference speed.
CALIBRATION_EVERY_S = 0.25
CALIBRATION_REF_S = 0.012
# Untraced operations shorter than this run REPEATS times back to back and
# keep the median time: one run of a sub-millisecond call is mostly jitter.
REPEAT_BELOW_S = 0.002
REPEATS = 5


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter work that does not use abmorph."""
    t0 = perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return perf_counter() - t0


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # seconds as measured, one per operation
    bounds: list[tuple[float, float]] = field(default_factory=list)  # (start, end) of each operation
    outputs: list[str | None] = field(default_factory=list)  # JSON text, one per operation
    errors: dict[int, str] = field(default_factory=dict)  # operation index -> traceback
    calibration: list[tuple[float, float]] = field(default_factory=list)  # (taken by, seconds)
    wall: float = 0.0  # seconds as measured

    def calibrate(self, force: bool = False) -> None:
        if force or not self.calibration or perf_counter() - self.calibration[-1][0] >= CALIBRATION_EVERY_S:
            seconds = calibrate()
            self.calibration.append((perf_counter(), seconds))

    def run(self, tracer, name: str, input_id: int, fn, encode=None):
        """Time one operation; record its JSON-encoded output or its traceback."""
        self.calibrate()
        span = tracer.op(name, input_id) if tracer is not None else contextlib.nullcontext()
        value = out = None
        with span:
            t0 = perf_counter()
            try:
                value = fn()
            except Exception:  # one failed operation must not stop the pass
                self.errors[len(self.outputs)] = traceback.format_exc()
            t1 = perf_counter()
        seconds = t1 - t0
        if seconds < REPEAT_BELOW_S and tracer is None and len(self.outputs) not in self.errors:
            times = [seconds]
            for _ in range(REPEATS - 1):
                t = perf_counter()
                fn()
                times.append(perf_counter() - t)
            seconds, t1 = statistics.median(times), perf_counter()
        self.latencies.append(seconds)
        self.bounds.append((t0, t1))
        if len(self.outputs) not in self.errors:
            out = json.dumps(value if encode is None else encode(value), sort_keys=True)
        self.outputs.append(out)
        return value

    def scaled_latencies(self) -> list[float]:
        """Operation times at the reference speed. Call after a final
        calibrate(force=True)."""
        taken = [t for t, _ in self.calibration]
        scaled = []
        for (start, end), seconds in zip(self.bounds, self.latencies):
            before = self.calibration[bisect.bisect_right(taken, start) - 1][1]
            after = self.calibration[bisect.bisect_left(taken, end)][1]
            scaled.append(seconds * 2 * CALIBRATION_REF_S / (before + after))
        return scaled


def _witness_problem(lib: Lib, text: str, claimed: dict) -> str | None:
    r, p = int(claimed["preperiod"]), int(claimed["period"])
    length = r + p * max(2, -(-WITNESS_LETTERS // p))
    if r + 2 * p > WITNESS_MAX_LETTERS:
        return f"witness ({r}, {p}) needs more than {WITNESS_MAX_LETTERS} letters to check"
    word = lib.words.fixed_point_prefix(lib.words.parse_morphism(text), min(length, WITNESS_MAX_LETTERS))
    if not lib.analysis.validate_abelian_period(word, r, p):
        return f"witness ({r}, {p}) fails validate_abelian_period on {len(word)} letters"
    return None


@contextlib.contextmanager
def _traced_cli(tracer):
    if tracer is None:
        yield
        return
    with instrument(tracer), tracer.op("op.cli", 0):
        yield


class ClassifyWorkload:
    """parse -> classify -> verdict_report -> sorted JSON, per morphism, as
    `abmorph classify --corpus` does."""

    def __init__(self, make, cli_parity: bool) -> None:
        self.make = make
        self.cli_parity = cli_parity

    def generate(self, seed: int, sizes: corpus.Sizes):
        return self.make(seed, sizes)

    def warm_inputs(self, inputs):
        # the last draws are all light, so warming up costs little
        return corpus.ClassifyInputs(inputs.texts[-20:], {})

    def run_pass(self, inputs, lib: Lib, tracer) -> PassResult:
        opts = lib.classify.ClassifyOptions(eventual_offset_budget=OFFSET_BUDGET)
        res = PassResult()

        def one(text):
            f = lib.words.parse_morphism(text)
            return lib.classify.verdict_report(f, lib.classify.classify(f, opts))

        for i, text in enumerate(inputs.texts):
            res.run(tracer, "op.classify", i, lambda: one(text))
        return res

    def check(self, inputs, outputs: list[str], lib: Lib) -> dict[int, str]:
        import jsonschema

        validator = jsonschema.Draft7Validator(lib.classify.VERDICT_REPORT_SCHEMA)
        bad = {}
        for i, (text, out) in enumerate(zip(inputs.texts, outputs)):
            if out is None:  # failed already
                continue
            report = json.loads(out)
            problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
            claimed = report["witnesses"]["claimed_abelian_period"]
            got = None if claimed is None else (int(claimed["preperiod"]), int(claimed["period"]))
            if i in inputs.expected:
                answer, certainty, reason, want = inputs.expected[i]
                if report["answer"] != answer:
                    problems.append(f"answer {report['answer']} != {answer}")
                if certainty is not None and (report["certainty"], report["reason"], got) != (certainty, reason, want):
                    problems.append(f"triple {report['certainty']}/{report['reason']}/{got} != {certainty}/{reason}/{want}")
            if claimed is not None:
                problem = _witness_problem(lib, text, claimed)
                if problem:
                    problems.append(problem)
            if problems:
                bad[i] = f"{text}: " + "; ".join(problems)
        return bad

    def decided(self, inputs, outputs: list[str]) -> float:
        answers = [json.loads(o)["answer"] for o in outputs if o is not None]
        return sum(a != "Unknown" for a in answers) / len(outputs)

    def layer_counts(self, outputs: list[str]) -> dict[str, float]:
        """Report bytes, and the bound that stopped each Unknown, read off
        the reports' `bounds` field."""
        counts = {
            "classify.report_bytes": sum(len(o) for o in filter(None, outputs)),
            "classify.unknown.by_offset_budget": 0,
            "classify.unknown.by_kmax": 0,
            "classify.unknown.by_max_configurations": 0,
        }
        for o in filter(None, outputs):
            report = json.loads(o)
            if report["answer"] != "Unknown":
                continue
            bounds = report["bounds"]
            if report["reason"] == "ResourceExhausted":
                counts["classify.unknown.by_max_configurations"] += 1
            elif bounds["eventual_k_scanned"] < bounds["eventual_k_max"]:
                counts["classify.unknown.by_offset_budget"] += 1
            else:
                counts["classify.unknown.by_kmax"] += 1
        return counts

    def check_cli(self, lib: Lib, workdir: Path, tracer) -> str | None:
        """`abmorph classify --corpus` on the golden morphisms, in process at
        default options, must print the library loop's reports."""
        texts = [g[0] for g in corpus.GOLDEN]
        path = workdir / "golden_corpus.txt"
        path.write_text("".join(t + "\n" for t in texts), encoding="ascii")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), _traced_cli(tracer):
            code = lib.cli.main(["classify", "--corpus", str(path)])
        expected = []
        for text in texts:
            f = lib.words.parse_morphism(text)
            expected.append(lib.classify.verdict_report(f, lib.classify.classify(f)))
        want_code = 2 if any(r["answer"] == "Unknown" for r in expected) else 0
        if code != want_code:
            return f"cli exit code {code} != {want_code}"
        if json.loads(buf.getvalue()) != expected:
            return "cli --corpus JSON differs from the library loop"
        return None


@dataclass(frozen=True)
class PrefixInputs:
    jobs: list[corpus.PrefixJob]
    sizes: corpus.Sizes


def _is_rank1(text: str) -> bool:
    ia, ib = corpus.images(text)
    return ia.count("a") * ib.count("b") == ib.count("a") * ia.count("b")


def _plan(inputs: PrefixInputs):
    """(job index, operation kind, argument) in pass order."""
    for j, job in enumerate(inputs.jobs):
        yield j, "expand", None
        for off in job.oracle_offsets:
            yield j, "oracle", off
        for off in job.complexity_offsets:
            yield j, "complexity", off
        if _is_rank1(job.text):
            yield j, "lift", None
            yield j, "lift_verify", None
            for batch in job.dfao_positions:
                yield j, "dfao", batch


def _letter_by_descent(lib: Lib, f, lengths: list[int], n: int) -> str:
    """Letter n of the fixed point from two prefix_parikh descents into the
    shortest f^t(a) that covers it."""
    t = next(t for t, size in enumerate(lengths) if size > n)
    pp = lib.rank1.prefix_parikh
    return "a" if pp(f, "a", t, n + 1).count_a > pp(f, "a", t, n).count_a else "b"


class PrefixWorkload:
    """Materialize ~10^7-letter prefixes and scan them: oracle and complexity
    on slices, lift and its verification, DFAO evaluation."""

    cli_parity = False

    def generate(self, seed: int, sizes: corpus.Sizes) -> PrefixInputs:
        return PrefixInputs(corpus.prefix_scan(seed, sizes), sizes)

    def warm_inputs(self, inputs: PrefixInputs) -> PrefixInputs:
        return PrefixInputs(corpus.prefix_scan(0, corpus.TINY), corpus.TINY)

    def run_pass(self, inputs: PrefixInputs, lib: Lib, tracer) -> PassResult:
        s = inputs.sizes
        res = PassResult()
        arr = f = lift = None
        for j, kind, arg in _plan(inputs):
            job = inputs.jobs[j]
            if kind == "expand":
                arr = lift = None  # release the previous prefix first
                f = lib.words.parse_morphism(job.text)
                word = res.run(tracer, "op.expand", j, lambda: lib.words.fixed_point_prefix(f, s.prefix_letters),
                               lambda w: [len(w), hashlib.sha256(w.data).hexdigest()])
                arr = word.data
            elif kind == "oracle":
                piece = arr[arg : arg + s.oracle_letters]
                res.run(tracer, "op.oracle", j,
                        lambda: lib.analysis.abelian_period_oracle(piece, corpus.ORACLE_BOUND, corpus.ORACLE_BOUND),
                        lambda w: None if w is None else [w.preperiod, w.period])
            elif kind == "complexity":
                piece = arr[arg : arg + s.complexity_letters]
                res.run(tracer, "op.complexity", j,
                        lambda: lib.analysis.complexity_profile(piece, s.complexity_nmax),
                        lambda p: p.complexity.tolist())
            elif kind == "lift":
                m = lib.matrices
                lift = res.run(tracer, "op.lift", j, lambda: lib.lift.build_lift(f, m.rank1_decompose(m.matrix_of(f))),
                               lambda lf: [lf.k, lf.images, lf.coding])
            elif kind == "lift_verify":
                res.run(tracer, "op.lift_verify", j, lambda: lib.lift.lift_verify(f, lift, s.prefix_letters))
            else:
                dfao = lib.lift.dfao_eval
                res.run(tracer, "op.dfao", j, lambda: "".join(dfao(lift, n) for n in arg))
        return res

    def check(self, inputs: PrefixInputs, outputs: list[str], lib: Lib) -> dict[int, str]:
        s = inputs.sizes
        bad = {}
        low = {}
        for i, ((j, kind, arg), out) in enumerate(zip(_plan(inputs), outputs)):
            if out is None:  # failed already
                continue
            job = inputs.jobs[j]
            value = json.loads(out)
            problem = None
            if kind == "expand" and value[0] != s.prefix_letters:
                problem = f"expanded {value[0]} letters"
            elif kind == "oracle" and job.name == "thue_morse" and value != [0, 2]:
                problem = f"oracle at {arg} gave {value}, want [0, 2]"
            elif kind == "complexity":
                lengths = range(1, s.complexity_nmax + 1)
                want = {
                    "thue_morse": [3 if n % 2 == 0 else 2 for n in lengths],
                    "fibonacci": [2 for _ in lengths],
                }.get(job.name, value)
                if value != want:
                    problem = f"complexity at {arg} differs from the known profile"
            elif kind == "lift_verify" and value is not True:
                problem = "lift_verify is false"
            elif kind == "dfao":
                f = lib.words.parse_morphism(job.text)
                if j not in low:
                    low[j] = str(lib.words.fixed_point_prefix(f, s.dfao_low))
                lengths = [lib.words.power_lengths(f, t)[0] for t in range(64)]
                want = "".join(
                    low[j][n] if n < s.dfao_low else _letter_by_descent(lib, f, lengths, n) for n in arg
                )
                if value != want:
                    problem = "dfao_eval disagrees with the fixed point"
            if problem:
                bad[i] = f"{job.name} {kind}: {problem}"
        return bad

    def decided(self, inputs: PrefixInputs, outputs: list[str]) -> float:
        """Share of oracle scans that found an abelian period within bounds."""
        found = [o not in (None, "null") for (_, kind, _), o in zip(_plan(inputs), outputs) if kind == "oracle"]
        return sum(found) / len(found)

    def layer_counts(self, outputs: list[str]) -> dict[str, float]:
        return {
            "classify.report_bytes": 0,
            "classify.unknown.by_offset_budget": 0,
            "classify.unknown.by_kmax": 0,
            "classify.unknown.by_max_configurations": 0,
        }


WORKLOADS = {
    "classify_mix": ClassifyWorkload(corpus.classify_mix, cli_parity=True),
    "rank1_eventual": ClassifyWorkload(corpus.rank1_eventual, cli_parity=False),
    "prefix_scan": PrefixWorkload(),
}
