"""``tools/bench_ab.py``: the ABBA schedule, its statistics and one smoke pair."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_ab.py"

_spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def test_schedule_alternates_which_side_runs_first():
    pairs = bench_ab.schedule(["episodes", "pipeline"], [1, 2], 2)
    assert [(w, s) for w, s, _ in pairs] == [
        ("episodes", 1), ("episodes", 1), ("episodes", 2), ("episodes", 2),
        ("pipeline", 1), ("pipeline", 1), ("pipeline", 2), ("pipeline", 2)]
    runs = "".join("A" if side == "base" else "B" for _, _, order in pairs for side in order)
    assert runs == "ABBA" * 4


def side(run_s, **extra):
    values = dict(run_s=run_s, run_wall_s=2.0 * run_s, setup_s=0.05, peak_rss_mb=40.0,
                  ref_ms=5.5, correct=True, failed=0)
    values.update(extra)
    return values


def test_summary_statistics_on_fixed_pairs():
    base = [1.0, 2.0, 4.0, 3.0, 10.0]
    change = [0.9, 2.2, 3.0, 2.7, 8.0]
    pairs = [{"workload": "episodes", "seed": 1, "base": side(b), "change": side(c),
              "digests_match": k != 2}
             for k, (b, c) in enumerate(zip(base, change))]
    pairs[4]["change"]["correct"] = False
    got = bench_ab.summarise(pairs)
    assert got["pairs"] == 5 and got["correct"] == 4 and got["digests_match"] == 4
    run = got["run_s"]
    assert run["base_median"] == 3.0
    assert run["change_median"] == 2.7
    q1, q3 = np.percentile(base, [25, 75])
    assert run["base_iqr"] == pytest.approx(q3 - q1) == 2.0
    assert run["change_lower"] == 4
    assert run["ratio_median"] == pytest.approx(0.9)
    assert got["run_wall_s"]["base_median"] == 6.0
    assert got["setup_s"]["change_lower"] == 0 and got["setup_s"]["ratio_median"] == 1.0


def test_quartiles_match_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 7, 10):
        xs = rng.normal(size=n).tolist()
        assert bench_ab.quartiles(xs) == pytest.approx(np.percentile(xs, [25, 50, 75]))


def test_smoke_self_pair_writes_bench_file_and_removes_worktree(tmp_path):
    # HEAD against itself in a clone, so the checkout under test keeps its
    # worktree list; the tool under test is copied over the clone's.
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs git and a git checkout")
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "-q", str(ROOT), str(clone)], check=True)
    shutil.copy(TOOL, clone / "tools" / "bench_ab.py")
    proc = subprocess.run(
        [sys.executable, str(clone / "tools" / "bench_ab.py"), "--base", "HEAD",
         "--label", "smoke", "--workloads", "dense_highway", "--seeds", "1",
         "--seconds", "0", "--size", "smoke"],
        cwd=clone, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((clone / "BENCH_smoke.json").read_text())
    (pair,) = result["pairs"]
    assert pair["digests_match"]
    assert pair["base"]["correct"] and pair["change"]["correct"]
    assert pair["base"]["failed"] == pair["change"]["failed"] == 0
    summary = result["summary"]["dense_highway"]
    assert summary["pairs"] == 1 and summary["run_wall_s"]["ratio_median"] > 0.0
    worktrees = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=clone,
                               capture_output=True, text=True, check=True).stdout
    assert worktrees.count("worktree ") == 1
