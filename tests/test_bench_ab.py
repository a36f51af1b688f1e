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


#: Ten base runs within 0.01 of 1.0; their IQR is 0.015.
TIGHT = [1.0, 1.01, 0.99, 1.0, 1.01, 0.99, 1.0, 1.01, 0.99, 1.0]


@pytest.mark.parametrize("base, change, want", [
    # Better in 9 of 10 pairs, medians 0.2 apart.
    (TIGHT, [0.8] * 9 + [1.5], "gain"),
    # A tie counts for neither side: 9 better and one tie is still a gain,
    (TIGHT, [0.8] * 9 + [1.0], "gain"),
    # but 8 better and two ties is not.
    (TIGHT, [0.8] * 8 + TIGHT[8:], "within_bound"),
    # Better in 3 of 3 pairs by far: too few pairs to show a gain.
    (TIGHT[:3], [0.5] * 3, "within_bound"),
    # Better in every pair, by less than the base IQR.
    (TIGHT, [x - 0.005 for x in TIGHT], "within_bound"),
    # Median 0.3 worse against a bound of 0.24.
    (TIGHT, [1.3] * 10, "worse"),
    # Median 0.2 worse: inside the bound.
    (TIGHT, [1.2] * 10, "within_bound"),
    # Base IQR 0.8 is wider than the bound, and the runs overlap.
    ([0.5, 1.0, 1.5, 0.6, 1.4] * 2, [0.7, 1.1, 1.3, 0.9, 1.2] * 2, "unresolved"),
    # As wide, but every change run beats every base run, by less than the IQR.
    ([1.0, 1.5, 2.0, 1.1, 1.9] * 2, [0.9, 0.95, 0.99, 0.98, 0.97] * 2, "within_bound"),
])
def test_verdict_on_fixed_pairs(base, change, want):
    assert bench_ab.verdict(base, change, "lower", 0.24) == want
    # The same runs mirrored for a metric where higher is better.
    assert bench_ab.verdict([-x for x in base], [-x for x in change], "higher", 0.24) == want


def test_summary_gives_each_end_to_end_metric_a_verdict():
    bounds = bench_ab.end_to_end_bounds()
    assert bounds == {"setup_s": ("lower", 0.25), "run_s": ("lower", 0.24),
                      "peak_rss_mb": ("lower", 0.1)}
    pairs = [{"workload": "episodes", "seed": 1, "base": side(b), "change": side(0.5 * b),
              "digests_match": True} for b in TIGHT]
    got = bench_ab.summarise(pairs, bounds)
    assert got["run_s"]["verdict"] == "gain"
    assert got["setup_s"]["verdict"] == got["peak_rss_mb"]["verdict"] == "within_bound"
    assert "verdict" not in got["run_wall_s"] and "verdict" not in got["ref_ms"]
    lines = list(bench_ab.summary_lines({"episodes": got}, bounds))
    assert len(lines) == 3 and lines[1].startswith("episodes run_s: ")
    assert lines[1].endswith(": gain")


def test_summary_lines_show_the_reference_drift():
    # The change side's reference timing ran 2%, 5% and 9% slower in turn.
    pairs = [{"workload": "pipeline", "seed": 1, "base": side(b, ref_ms=5.0),
              "change": side(0.9 * b, ref_ms=5.0 * r), "digests_match": True}
             for b, r in zip([1.0, 1.1, 1.2], [1.02, 1.05, 1.09])]
    bounds = bench_ab.end_to_end_bounds()
    summary = {"pipeline": bench_ab.summarise(pairs, bounds)}
    assert summary["pipeline"]["ref_ms"]["ratio_median"] == pytest.approx(1.05)
    lines = list(bench_ab.summary_lines(summary, bounds))
    assert len(lines) == len(bounds)
    for line in lines:
        assert ", ref_ms ratio 1.050): " in line
    assert lines[1] == ("pipeline run_s: 1.1 -> 0.99 (ratio 0.900, lower in 3 of 3, "
                        "base IQR 0.1, ref_ms ratio 1.050): within_bound")


def test_dirty_counts_untracked_files(tmp_path):
    if shutil.which("git") is None:
        pytest.skip("needs git")
    ident = ["-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    (tmp_path / "a.py").write_text("x = 1\n")
    subprocess.run(["git", "add", "a.py"], cwd=tmp_path, check=True)
    subprocess.run(["git", *ident, "commit", "-q", "-m", "a"], cwd=tmp_path, check=True)
    assert not bench_ab.is_dirty(tmp_path)
    (tmp_path / "b.py").write_text("y = 2\n")
    assert bench_ab.is_dirty(tmp_path)


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
    assert summary["run_s"]["verdict"] in ("gain", "worse", "unresolved", "within_bound")
    assert "dense_highway run_s: " in proc.stdout
    worktrees = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=clone,
                               capture_output=True, text=True, check=True).stdout
    assert worktrees.count("worktree ") == 1
