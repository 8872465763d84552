"""Benchmark for abmorph.

    python3 bench/run.py --workload classify_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the workload's inputs from --seed,
times passes over them for about --seconds, checks every output outside the
timed region, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the same passes are run again with every
layer boundary wrapped (tracing.py) and the metrics are the per-layer ones.
A traced run gives half of --seconds to untraced passes, half to traced ones.
The workloads, metric names, units and bounds are listed in BENCHMARK.json.

Times are at reference speed (see workloads.calibrate). wall_s is one pass:
the sum over its operations of each one's median time over the run's passes;
the latency percentiles are taken over the same per-operation times.
setup_s is the median over fresh interpreters that import abmorph and build
the inputs. Raw pass times, spans, failures, the hash of the outputs
(report_sha256) and machine facts go to bench/results/.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
abmorph sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import corpus
from tracing import Tracer, instrument
from workloads import CALIBRATION_REF_S, WORKLOADS, Lib, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "decided_frac": "fraction",
}

LAYER_UNITS = {
    "matrices.calls": "count",
    "matrices.self_s": "s",
    "periodic.decide_periodic.calls": "count",
    "periodic.decide_periodic.self_s": "s",
    "periodic.horizon_letters": "letters",
    "periodic.certify.calls": "count",
    "periodic.certify.hit_ratio": "ratio",
    "rank1.decide_pure.self_s": "s",
    "rank1.decide_pure.configurations": "count",
    "rank1.eventual_check_at.calls": "count",
    "rank1.eventual_check_at.self_s": "s",
    "rank1.eventual.offsets": "count",
    "rank1.prefix_parikh.calls": "count",
    "rank1.prefix_parikh.self_s": "s",
    "rank1.prefix_parikh.calls_per_offset": "ratio",
    "rank1.eventual.witness_ratio": "ratio",
    "words.fixed_point_prefix.calls": "count",
    "words.fixed_point_prefix.letters": "letters",
    "words.fixed_point_prefix.self_s": "s",
    "words.bytes_per_letter": "bytes/letter",
    "analysis.abelian_period_oracle.self_s": "s",
    "analysis.complexity_profile.self_s": "s",
    "analysis.windows": "count",
    "analysis.imbalance_at.calls": "count",
    "classify.imbalance_evidence.self_s": "s",
    "lift.build_lift.self_s": "s",
    "lift.lift_fixed_prefix.letters": "letters",
    "lift.lift_fixed_prefix.self_s": "s",
    "lift.dfao_eval.calls": "count",
    "lift.dfao_eval.self_s": "s",
    "classify.classify.self_s": "s",
    "classify.verdict_report.self_s": "s",
    "classify.report_bytes": "bytes",
    "classify.unknown.by_offset_budget": "count",
    "classify.unknown.by_kmax": "count",
    "classify.unknown.by_max_configurations": "count",
    "cli.main.self_s": "s",
    "trace_overhead_frac": "fraction",
}


def _probe(*args: str) -> float:
    """Run probe.py in a fresh interpreter and return the number it prints."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _setup_probe(name: str, seed: int, sizes_name: str) -> float:
    """Set-up seconds of a fresh interpreter, at reference speed."""
    before = calibrate()
    seconds = _probe("setup", name, str(seed), sizes_name)
    return seconds * 2 * CALIBRATION_REF_S / (before + calibrate())


def _per_operation(passes) -> list[float]:
    """Each operation's median time over the passes, at reference speed."""
    return [statistics.median(ts) for ts in zip(*(res.scaled_latencies() for res in passes))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def layer_metrics(tracer, cli_tracer, passes: int, counts: dict, bytes_per_letter: float, overhead: float) -> dict:
    """Per-pass values of every LAYER_UNITS metric from a traced run."""
    def per_pass(total: int) -> float:
        return total // passes if total % passes == 0 else total / passes

    calls = lambda name: per_pass(tracer.calls.get(name, 0))  # noqa: E731
    work = lambda name: per_pass(tracer.work.get(name, 0))  # noqa: E731
    self_s = lambda name: tracer.self_s.get(name, 0.0) / passes  # noqa: E731
    matrices = [n for n in tracer.calls if n.startswith("matrices.")]
    m = {
        "matrices.calls": sum(calls(n) for n in matrices),
        "matrices.self_s": sum(self_s(n) for n in matrices),
        "periodic.horizon_letters": work("periodic.horizon_letters"),
        "periodic.certify.calls": calls("periodic.eq_eventually_periodic"),
        "periodic.certify.hit_ratio": _ratio(work("periodic.certify.found"), calls("periodic.eq_eventually_periodic")),
        "rank1.decide_pure.configurations": work("rank1.decide_pure.configurations"),
        "rank1.eventual.offsets": work("rank1.eventual.offsets"),
        "rank1.prefix_parikh.calls_per_offset": _ratio(
            work("rank1.eventual.prefix_parikh_calls"), work("rank1.eventual.offsets")),
        "rank1.eventual.witness_ratio": _ratio(work("rank1.eventual.witnesses"), calls("rank1.eventual_check_at")),
        "words.fixed_point_prefix.letters": work("words.fixed_point_prefix.letters"),
        "words.bytes_per_letter": bytes_per_letter,
        "analysis.windows": work("analysis.windows"),
        "lift.lift_fixed_prefix.letters": work("lift.lift_fixed_prefix.letters"),
        "cli.main.self_s": cli_tracer.self_s.get("cli.main", 0.0),
        "trace_overhead_frac": overhead,
    }
    for name in LAYER_UNITS:
        if name in m or name in counts:
            continue
        base, kind = name.rsplit(".", 1)
        m[name] = calls(base) if kind == "calls" else self_s(base)
    m.update(counts)
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, sizes_name: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details for the results file)."""
    sizes = corpus.FULL if sizes_name == "full" else corpus.TINY
    wl = WORKLOADS[name]
    setup = [] if trace else [_setup_probe(name, seed, sizes_name) for _ in range(SETUP_REPEATS)]

    lib = Lib()
    inputs = wl.generate(seed, sizes)
    wl.run_pass(wl.warm_inputs(inputs), lib, None)

    def run_passes(tracer, seconds=None, count=None):
        """Passes until `count` are done or about `seconds` have passed."""
        done = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            res = wl.run_pass(inputs, lib, tracer)
            res.wall = perf_counter() - t0
            res.calibrate(force=True)
            done.append(res)
            elapsed = perf_counter() - start
            # stop where one more pass would overrun by over half a pass
            if len(done) == count or count is None and elapsed + 0.5 * elapsed / len(done) >= seconds:
                return done

    # a traced run splits its time between untraced and traced passes
    passes = run_passes(None, seconds=seconds / 2 if trace else seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced, tracer, cli_tracer = [], Tracer(), Tracer()
    if trace:
        with instrument(tracer):
            traced = run_passes(tracer, count=len(passes))

    RESULTS.mkdir(exist_ok=True)
    reference = passes[0].outputs
    bad = wl.check(inputs, reference, lib)
    attempted = failed = 0
    for res in passes + traced:
        for i, out in enumerate(res.outputs):
            attempted += 1
            failed += i in bad or i in res.errors or out != reference[i]
    if wl.cli_parity:
        attempted += 1
        problem = wl.check_cli(lib, RESULTS, cli_tracer if trace else None)
        if problem:
            failed += 1
            bad["cli"] = problem

    # each operation's median over the passes, at reference speed
    latencies = _per_operation(passes)
    deciles = statistics.quantiles(latencies, n=10)
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(),
        "passes": len(passes),
        "operations_per_pass": len(reference),
        "latency_samples": len(latencies),
        "latency_samples_beyond_p90": sum(x > deciles[8] for x in latencies),
        "pass_walls_s": [r.wall for r in passes],
        "setup_probes_s": setup,
        "failed_frac": failed / attempted,
        "report_sha256": hashlib.sha256("\n".join(map(str, reference)).encode()).hexdigest(),
        "failures": {str(k): v for k, v in bad.items()},
        "errors": {f"pass {p} op {i}": e for p, res in enumerate(passes + traced) for i, e in res.errors.items()},
    }
    if trace:
        size, text = tracer.largest_expansion or (0, None)
        bpl = _probe("bytes", text, str(size)) if size else 0.0
        overhead = sum(_per_operation(traced)) / sum(latencies) - 1
        metrics = layer_metrics(tracer, cli_tracer, len(traced), wl.layer_counts(reference), bpl, overhead)
        units = LAYER_UNITS
        details["largest_expansion"] = {"letters": size, "morphism": text}
        details["spans"] = tracer.spans + cli_tracer.spans
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": deciles[8] * 1000,
            "peak_rss_mib": peak_rss_mib,
            "decided_frac": wl.decided(inputs, reference),
        }
        units = E2E_UNITS
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details["metrics"] = line["metrics"]
    return line, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "abmorph" / "__init__.py").is_file():
        print(f"bench: abmorph sources not found under {src}", file=sys.stderr)
        return 2
    # one client, one thread: keep numerical libraries from starting pools
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))

    line, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} passes={details['passes']}"
        f" ops/pass={details['operations_per_pass']} samples={details['latency_samples']}"
        f" beyond_p90={details['latency_samples_beyond_p90']} failed_frac={details['failed_frac']:g}"
        f" report_sha256={details['report_sha256']} details={path.relative_to(ROOT)}"
    )
    for key, failure in details["failures"].items():
        print(f"FAILED {key}: {failure}")
    for metric, entry in line["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
