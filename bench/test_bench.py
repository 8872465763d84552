"""Self-test of the benchmark at tiny sizes.

    python -m pytest -q bench

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the correctness gate rejects planted wrong outputs, and that the benchmark
refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line, _ = run.measure(workload, 7, 0, bool(trace), "tiny")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def _tiny_pass(name):
    wl, lib = workloads.WORKLOADS[name], workloads.Lib()
    inputs = wl.generate(7, corpus.TINY)
    outputs = wl.run_pass(inputs, lib, None).outputs
    assert wl.check(inputs, outputs, lib) == {}
    return wl, lib, inputs, list(outputs)


def test_gate_rejects_a_wrong_witness():
    wl, lib, inputs, outputs = _tiny_pass("classify_mix")
    i = next(i for i, o in enumerate(outputs) if json.loads(o)["witnesses"]["claimed_abelian_period"])
    report = json.loads(outputs[i])
    report["witnesses"]["claimed_abelian_period"]["period"] = "3"
    outputs[i] = json.dumps(report, sort_keys=True)
    bad = wl.check(inputs, outputs, lib)
    assert list(bad) == [i] and "fails validate_abelian_period" in bad[i]


def test_gate_rejects_a_wrong_dfao_letter():
    wl, lib, inputs, outputs = _tiny_pass("prefix_scan")
    i = next(i for i, (_, kind, _) in enumerate(workloads._plan(inputs)) if kind == "dfao")
    letters = json.loads(outputs[i])
    outputs[i] = json.dumps(("b" if letters[0] == "a" else "a") + letters[1:])
    assert list(wl.check(inputs, outputs, lib)) == [i]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
