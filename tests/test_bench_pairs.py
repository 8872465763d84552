"""scripts/bench_pairs.py: the quartiles and win counts that perf claims quote.

The script is imported by path; nothing here runs git or the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "decided_frac": "higher"}


def run(pair, side, wall_s, decided_frac=1.0, seed=1, workload="w"):
    return {"seed": seed, "workload": workload, "pair": pair, "side": side,
            "metrics": {"wall_s": wall_s, "decided_frac": decided_frac}}


def rows_by(rows):
    return {(r["seed"], r["workload"], r["metric"]): r for r in rows}


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_quartiles_of_four_values_are_inclusive():
    # inclusive: q1 at position 0.75 and q3 at 2.25 of the sorted values
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_wins_follow_each_metrics_direction():
    runs = [
        run(0, "parent", 2.0, 0.5), run(0, "change", 1.0, 0.4),  # wall win, decided loss
        run(1, "parent", 2.0, 0.5), run(1, "change", 3.0, 0.6),  # wall loss, decided win
        run(2, "parent", 2.0, 0.5), run(2, "change", 1.5, 0.7),  # both win
    ]
    rows = rows_by(bench_pairs.summarize(runs, BETTER))
    assert rows[1, "w", "wall_s"]["change_wins"] == 2
    assert rows[1, "w", "decided_frac"]["change_wins"] == 2
    assert rows[1, "w", "wall_s"]["better"] == "lower"
    assert rows[1, "w", "decided_frac"]["better"] == "higher"


def test_ties_count_for_neither_side():
    runs = [run(p, s, 1.0) for p in range(3) for s in ("parent", "change")]
    rows = bench_pairs.summarize(runs, BETTER)
    assert [r["change_wins"] for r in rows] == [0, 0]
    assert all(r["pairs"] == 3 for r in rows)


@pytest.mark.parametrize("missing", ["parent", "change"])
def test_a_pair_missing_either_side_is_dropped(missing):
    runs = [run(0, "parent", 2.0), run(0, "change", 1.0),
            run(1, "parent", 9.0), run(1, "change", 0.1)]
    runs = [r for r in runs if (r["pair"], r["side"]) != (1, missing)]
    row = rows_by(bench_pairs.summarize(runs, BETTER))[1, "w", "wall_s"]
    assert row["pairs"] == 1
    assert row["change_wins"] == 1
    assert row["parent"]["median"] == 2.0 and row["change"]["median"] == 1.0


def test_no_complete_pair_gives_no_rows():
    assert bench_pairs.summarize([run(0, "parent", 1.0)], BETTER) == []


def test_seeds_and_workloads_are_kept_apart():
    runs = [
        run(0, "parent", 2.0, seed=1, workload="x"), run(0, "change", 1.0, seed=1, workload="x"),
        run(0, "parent", 2.0, seed=2, workload="x"), run(0, "change", 3.0, seed=2, workload="x"),
        run(0, "parent", 5.0, seed=1, workload="y"), run(0, "change", 6.0, seed=1, workload="y"),
        run(1, "parent", 7.0, seed=1, workload="y"), run(1, "change", 6.0, seed=1, workload="y"),
    ]
    rows = rows_by(bench_pairs.summarize(runs, BETTER))
    assert sorted({k[:2] for k in rows}) == [(1, "x"), (1, "y"), (2, "x")]
    assert rows[1, "x", "wall_s"]["change_wins"] == 1
    assert rows[2, "x", "wall_s"]["change_wins"] == 0
    y = rows[1, "y", "wall_s"]
    assert y["pairs"] == 2 and y["change_wins"] == 1
    assert y["parent"]["median"] == 6.0 and y["change"]["median"] == 6.0


def hashed(pair, side, sha, seed=1, workload="w"):
    return {**run(pair, side, 1.0, seed=seed, workload=workload), "report_sha256": sha}


def test_hash_equal_when_every_pair_agrees():
    runs = [hashed(p, s, "abc") for p in range(3) for s in ("parent", "change")]
    rows = bench_pairs.summarize(runs, BETTER)
    assert rows and all(r["hash_equal"] for r in rows)
    assert bench_pairs.hash_mismatches(runs) == []


def test_one_differing_pair_clears_hash_equal_and_is_named():
    runs = [hashed(0, "parent", "abc"), hashed(0, "change", "abc"),
            hashed(1, "parent", "abc"), hashed(1, "change", "def")]
    rows = bench_pairs.summarize(runs, BETTER)
    assert [r["hash_equal"] for r in rows] == [False, False]
    assert bench_pairs.hash_mismatches(runs) == [
        {"seed": 1, "workload": "w", "pair": 1, "parent": "abc", "change": "def"}]


def test_hashes_are_compared_within_a_seed_and_workload():
    # Different workloads write different reports; only the two sides of
    # one pair are compared, and a run with no partner is not a mismatch.
    runs = [hashed(0, "parent", "x1", workload="x"), hashed(0, "change", "x1", workload="x"),
            hashed(0, "parent", "y1", workload="y"), hashed(0, "change", "y1", workload="y"),
            hashed(1, "change", "zz", workload="y")]
    assert bench_pairs.hash_mismatches(runs) == []
    assert all(r["hash_equal"] for r in bench_pairs.summarize(runs, BETTER))


def test_a_dropped_pair_does_not_clear_hash_equal():
    runs = [hashed(0, "parent", "abc"), hashed(0, "change", "abc"),
            hashed(1, "parent", "abc")]
    rows = bench_pairs.summarize(runs, BETTER)
    assert rows and all(r["hash_equal"] and r["pairs"] == 1 for r in rows)


def counted(pair, side, passes, **kw):
    return {**run(pair, side, 1.0, **kw), "passes": passes}


def test_rows_carry_each_sides_pass_count_quartiles():
    runs = [counted(0, "parent", 10), counted(0, "change", 12),
            counted(1, "parent", 11), counted(1, "change", 13),
            counted(2, "parent", 12), counted(2, "change", 16)]
    rows = bench_pairs.summarize(runs, BETTER)
    assert rows and all(r["passes"] == {"parent": {"median": 11, "q1": 10.5, "q3": 11.5},
                                        "change": {"median": 13, "q1": 12.5, "q3": 14.5}}
                        for r in rows)
    line = bench_pairs.pass_counts(rows[0]["passes"])
    assert "parent 11 [10.5, 11.5]" in line and "change 13 [12.5, 14.5]" in line


def test_runs_without_pass_counts_give_no_passes_key():
    # Older outputs, and a pair one of whose runs lacks the count.
    assert all("passes" not in r for r in bench_pairs.summarize(
        [run(0, "parent", 1.0), run(0, "change", 1.0)], BETTER))
    runs = [counted(0, "parent", 3), counted(0, "change", 4), counted(1, "parent", 3), run(1, "change", 1.0)]
    assert all("passes" not in r for r in bench_pairs.summarize(runs, BETTER))
    # a pair dropped for a missing side does not count
    runs = [counted(0, "parent", 3), counted(0, "change", 4), run(1, "parent", 1.0)]
    assert all(r["passes"]["change"]["median"] == 4 for r in bench_pairs.summarize(runs, BETTER))
