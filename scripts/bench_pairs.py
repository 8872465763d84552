"""Alternating parent/change runs of the benchmark, written to BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr N --seed 1 --pairs 10 --workload prefix_scan

Run from the root of a checkout. The parent side is the tree of --base
(default HEAD; HEAD~1 once the change is committed), exported with `git
archive` into a temporary directory, so the repository gains no worktree; the
change side is the working tree, uncommitted edits included. Both sides run
their own unchanged bench/run.py for the run_seconds of BENCHMARK.json, which
the output records once. Pair i runs the parent first when i is even and the
change first when it is odd.

The output keeps every run's end-to-end metrics, report_sha256, failed_frac
and pass count, and one summary row per seed, workload and metric: each
side's median and quartiles, in how many pairs the change read better
(ties count for neither), by the direction BENCHMARK.json gives the metric,
hash_equal: whether both sides wrote the same report_sha256 in every pair,
and, when every run of those pairs records its pass count, "passes": each
side's pass-count quartiles, printed next to peak_rss_mib, which grows with
the pass count. A pair whose two report hashes differ is also printed as it
ends. An existing output file is extended: runs of a seed and workload measured
again replace the old ones. Exit status 1 when a run fails its checks.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_tree(rev: str, dest: Path) -> str:
    """Write the files of commit `rev` under dest; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced bench/run.py run in `tree`: its metrics and details."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    line = json.loads(lines[-1])
    details = json.loads((tree / "bench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "correct": line["correct"],
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        "report_sha256": details["report_sha256"],
        "failed_frac": details["failed_frac"],
        "passes": details["passes"],
        "machine": details["machine"],
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per (seed, workload, metric) over the complete pairs in `runs`."""
    rows = []
    for seed, workload in sorted({(r["seed"], r["workload"]) for r in runs}):
        mine = [r for r in runs if (r["seed"], r["workload"]) == (seed, workload)]
        side = {(r["pair"], r["side"]): r["metrics"] for r in mine}
        pairs = sorted(p for p, s in side if s == "change" and (p, "parent") in side)
        if not pairs:
            continue
        hash_equal = not hash_mismatches([r for r in mine if r["pair"] in pairs])
        counts = {(r["pair"], r["side"]): r.get("passes") for r in mine}
        passes = {}  # each side's pass counts, when every run of the pairs has one
        if all(counts[p, s] is not None for p in pairs for s in ("parent", "change")):
            passes = {"passes": {s: quartiles([counts[p, s] for p in pairs]) for s in ("parent", "change")}}
        for metric, direction in better.items():
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (side[p, "change"][metric] - side[p, "parent"][metric]) > 0 for p in pairs)
            rows.append({
                "seed": seed,
                "workload": workload,
                "metric": metric,
                "better": direction,
                "pairs": len(pairs),
                "parent": quartiles([side[p, "parent"][metric] for p in pairs]),
                "change": quartiles([side[p, "change"][metric] for p in pairs]),
                "change_wins": wins,
                "hash_equal": hash_equal,
                **passes,
            })
    return rows


def pass_counts(passes: dict) -> str:
    """The two sides' pass-count quartiles, printed next to peak_rss_mib,
    which grows with the pass count."""
    return "  passes " + "  ".join(
        f"{side} {q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]" for side, q in passes.items())


def hash_mismatches(runs: list[dict]) -> list[dict]:
    """The pairs in `runs` whose parent and change runs wrote different
    report_sha256: one entry per such pair, with both hashes."""
    sha = {(r["seed"], r["workload"], r["pair"], r["side"]): r.get("report_sha256") for r in runs}
    out = []
    for (seed, workload, pair, side), change in sorted(sha.items()):
        parent = sha.get((seed, workload, pair, "parent"), change)  # no parent: nothing to compare
        if side == "change" and parent != change:
            out.append({"seed": seed, "workload": workload, "pair": pair, "parent": parent, "change": change})
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]],
                    help="repeatable; default: every workload of BENCHMARK.json")
    ap.add_argument("--base", default="HEAD", help="the parent commit")
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    out_path = ROOT / f"BENCH_{args.pr}.json"
    report = json.loads(out_path.read_text()) if out_path.exists() else {"runs": []}
    report["run_seconds"] = spec["run_seconds"]
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        report["base"] = export_tree(args.base, parent)
        trees = {"parent": parent, "change": ROOT}
        report["runs"] = [r for r in report["runs"]
                          if (r["seed"], r["workload"]) not in {(args.seed, w) for w in workloads}]
        for workload in workloads:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for first, side in enumerate(order):
                    run = run_bench(trees[side], workload, args.seed, spec["run_seconds"])
                    ok &= run["correct"]
                    report["machine"] = run.pop("machine")
                    report["runs"].append({"seed": args.seed, "workload": workload, "pair": pair,
                                           "side": side, "first": first == 0, **run})
                    print(f"{workload} seed={args.seed} pair={pair} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
                    out_path.write_text(json.dumps({**report, "summary": summarize(report["runs"], better)},
                                                   indent=1) + "\n")
                for bad in hash_mismatches([r for r in report["runs"]
                                            if (r["seed"], r["workload"], r["pair"]) == (args.seed, workload, pair)]):
                    print(f"{workload} seed={args.seed} pair={pair}: report_sha256 differs, "
                          f"parent {bad['parent']} change {bad['change']}", flush=True)
    for row in summarize([r for r in report["runs"] if r["seed"] == args.seed], better):
        if row["workload"] in workloads:
            p, c = row["parent"], row["change"]
            print(f"{row['workload']:15s} {row['metric']:15s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f"  change better in {row['change_wins']}/{row['pairs']}"
                  + ("" if row["hash_equal"] else "  report hashes differ")
                  + (pass_counts(row["passes"]) if row["metric"] == "peak_rss_mib" and "passes" in row else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
