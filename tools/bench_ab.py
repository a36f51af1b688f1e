"""Paired A/B runs of the benchmark: a base revision against this checkout.

Checks out the base revision into a temporary ``git worktree``, then runs
each side's own ``perfbench/run.py`` in alternating order (ABBA: base
first in even pairs, this checkout first in odd ones) over the given
workloads and seeds, and writes ``BENCH_<label>.json`` at the root of this
checkout. The worktree is removed afterwards. Run from anywhere inside a
git checkout:

    python tools/bench_ab.py --base HEAD~1 --seconds 25 --seeds 1 2 3

"This checkout" is its working tree as it stands, uncommitted edits
included; ``--base HEAD`` therefore pairs the last commit with those
edits, or with itself when there are none.

Per pair the file records, for each side, ``run_s``, ``run_wall_s``,
``setup_s``, ``peak_rss_mb``, ``ref_ms``, ``correct``, ``failed`` and the
number of timed passes (``peak_rss_mb`` grows with it), and whether the
two sides' output digests match. Per workload and metric it
summarises each side's median, the base's interquartile range, in how
many pairs the change was lower, and the median within-pair ratio
(change over base). Both runs of a pair see the same host phase, so the
``run_wall_s`` ratio needs no scaling by the reference timing.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline", "calib_rollout", "episodes", "dense_highway")
#: Metrics kept per side and pair, and summarised per workload.
METRICS = ("run_s", "run_wall_s", "setup_s", "peak_rss_mb", "ref_ms")


def schedule(workloads, seeds, pairs_per_seed):
    """(workload, seed, order) of every pair, in run order. ``order`` names
    the side that runs first, alternating base/change pair by pair, so
    consecutive runs go A B B A A B ..."""
    out = []
    k = 0
    for workload in workloads:
        for seed in seeds:
            for _ in range(pairs_per_seed):
                out.append((workload, seed, ("base", "change") if k % 2 == 0
                            else ("change", "base")))
                k += 1
    return out


def quartiles(values):
    """(q1, median, q3) by linear interpolation, as numpy's default."""
    xs = sorted(values)
    n = len(xs)

    def at(q):
        pos = q * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarise(pairs):
    """Per-metric statistics of the pairs of one workload."""
    out = {"pairs": len(pairs),
           "correct": sum(p["base"]["correct"] and p["change"]["correct"] for p in pairs),
           "digests_match": sum(p["digests_match"] for p in pairs)}
    for metric in METRICS:
        base = [p["base"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        q1, base_median, q3 = quartiles(base)
        out[metric] = {
            "base_median": base_median,
            "change_median": statistics.median(change),
            "base_iqr": q3 - q1,
            "change_lower": sum(c < b for b, c in zip(base, change)),
            "ratio_median": statistics.median(c / b for b, c in zip(base, change) if b),
        }
    return out


def run_side(root: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its metrics and digests."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--size", size],
        cwd=root, capture_output=True, text=True)
    record_path = root / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    try:
        record = json.loads(record_path.read_text())
        record_path.unlink()
    except (OSError, ValueError):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        raise RuntimeError(f"{root}: {workload} seed {seed} wrote no record "
                           f"(exit {proc.returncode}): {' '.join(tail)}") from None
    values = record["values"]
    side = {metric: float(values[metric]) for metric in METRICS}
    side.update(correct=bool(record["result"]["correct"]),
                failed=int(record["failed"]), passes=int(record["passes_untraced"]),
                digests=record["digests"])
    return side


def run_pairs(base_root: Path, change_root: Path, workloads, seeds, seconds: float,
              pairs_per_seed: int = 1, size: str = "full") -> list:
    roots = {"base": base_root, "change": change_root}
    pairs = []
    for workload, seed, order in schedule(workloads, seeds, pairs_per_seed):
        pair = {"workload": workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(roots[side], workload, seed, seconds, size)
        pair["digests_match"] = pair["base"].pop("digests") == pair["change"].pop("digests")
        pairs.append(pair)
        print(f"{workload} seed {seed} ({order[0]} first): run_wall_s "
              f"{pair['base']['run_wall_s']:.4f} -> {pair['change']['run_wall_s']:.4f}, "
              f"digests {'match' if pair['digests_match'] else 'DIFFER'}", flush=True)
    return pairs


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", help="names BENCH_<label>.json; default: the base's "
                                        "short hash")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pairs-per-seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    # A terminated run still removes its worktree (and kills the side running).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    label = args.label or base_rev[:7]
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        worktree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(worktree), base_rev)
        try:
            pairs = run_pairs(worktree, ROOT, args.workloads, args.seeds, args.seconds,
                              args.pairs_per_seed, args.size)
        finally:
            git("worktree", "remove", "--force", str(worktree))
    result = {
        "base": base_rev,
        "change": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seconds": args.seconds,
        "size": args.size,
        "seeds": args.seeds,
        "summary": {w: summarise([p for p in pairs if p["workload"] == w])
                    for w in args.workloads},
        "pairs": pairs,
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")
    ok = all(p["base"]["correct"] and p["change"]["correct"] and p["digests_match"]
             for p in pairs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
