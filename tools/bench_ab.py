"""Paired A/B runs of the benchmark: a base revision against this checkout.

Checks out the base revision and a snapshot of this checkout into two
temporary ``git worktree``s, then runs each side's own
``perfbench/run.py`` in alternating order (ABBA: base first in even pairs,
the change first in odd ones) over the given workloads and seeds, and
writes ``BENCH_<label>.json`` at the root of this checkout. The worktrees
are removed afterwards. Run from anywhere inside a git checkout:

    python tools/bench_ab.py --base HEAD~1 --seconds 25 --seeds 1 2 3

The snapshot is this checkout's working tree as it stands: uncommitted
edits and untracked files are included, ignored files are not. ``--base
HEAD`` therefore pairs the last commit with those edits, or with itself
when there are none. Both sides run from fresh worktrees, so neither has
the checkout's build leftovers or its place on disk.

Per pair the file records, for each side, ``run_s``, ``run_wall_s``,
``setup_s``, ``peak_rss_mb``, ``ref_ms``, ``correct``, ``failed`` and the
number of timed passes (``peak_rss_mb`` grows with it), and whether the
two sides' output digests match. Per workload and metric it
summarises each side's median, the base's interquartile range, in how
many pairs the change was lower, and the median within-pair ratio
(change over base). Both runs of a pair see the same host phase, so the
``run_wall_s`` ratio needs no scaling by the reference timing. The
sampler rates ``mh_iter_per_s`` and ``ess_per_s`` are kept and
summarised the same way, with "higher in k of n" in place of "lower",
and read ``n/a`` on a workload that runs no chains, where both are 0.

Each ``end_to_end`` metric of ``BENCHMARK.json`` (its name, ``better``
and ``bound``; the file is only read) also gets a ``verdict``, printed on
its summary line next to the workload's median ``ref_ms`` ratio, so that
a ``run_s`` verdict can be read against the reference timing's own drift
between the two sides:

- ``gain``: the change is better in at least 9 of 10 pairs (ties count
  for neither side), so in at least 9 pairs, and the medians differ by
  more than the base IQR. Fewer than 9 pairs never show a gain: in a
  self-pair file of 3 pairs per workload, one workload's ``setup_s`` was
  lower in 3 of 3 by more than the base IQR;
- ``worse``: the change's median is worse than the base median by more
  than ``bound`` times the base median;
- ``unresolved``: the base IQR is wider than that bound, and not every
  change run beats every base run;
- ``within_bound``: every other case.
"""

from __future__ import annotations

import argparse
import json
import os
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
#: Sampler rates kept per side and pair, where higher is better, and
#: summarised per workload without a verdict; both read 0 on workloads
#: that run no chains.
RATES = ("mh_iter_per_s", "ess_per_s")


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


def end_to_end_bounds() -> dict:
    """``{name: (better, bound)}`` of the ``end_to_end`` metrics in this
    checkout's ``BENCHMARK.json``."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {m["name"]: (m["better"], float(m["bound"])) for m in metrics}


def verdict(base, change, better, bound) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``within_bound`` for one metric's
    paired values (see the module docstring); ``better`` is ``lower`` or
    ``higher``."""
    sign = 1.0 if better == "lower" else -1.0
    # In lower-is-better terms from here on; the IQR does not change.
    base = [sign * x for x in base]
    change = [sign * x for x in change]
    q1, base_median, q3 = quartiles(base)
    ahead = base_median - statistics.median(change)
    wins = sum(c < b for b, c in zip(base, change))
    if wins >= 9 and 10 * wins >= 9 * len(base) and ahead > q3 - q1:
        return "gain"
    limit = bound * abs(base_median)
    if -ahead > limit:
        return "worse"
    if q3 - q1 > limit and max(change) >= min(base):
        return "unresolved"
    return "within_bound"


def summarise(pairs, bounds=None):
    """Per-metric statistics of the pairs of one workload; ``bounds`` as
    ``end_to_end_bounds`` gives them (default: this checkout's file)."""
    if bounds is None:
        bounds = end_to_end_bounds()
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
        if metric in bounds:
            out[metric]["verdict"] = verdict(base, change, *bounds[metric])
    for rate in RATES:
        base = [p["base"][rate] for p in pairs]
        change = [p["change"][rate] for p in pairs]
        ratios = [c / b for b, c in zip(base, change) if b]
        out[rate] = {
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "change_higher": sum(c > b for b, c in zip(base, change)),
            # None where no pair has a base rate (a workload without chains).
            "ratio_median": statistics.median(ratios) if ratios else None,
        }
    return out


def summary_lines(summary, bounds):
    """One readable line per workload and ``end_to_end`` metric, ending in
    the workload's median ``ref_ms`` ratio (change over base) before the
    verdict: each pass's ``run_s`` is divided by its reference timing, so
    where the reference drifts by a ratio r and the pass does not, the
    ``run_s`` ratio moves by about 1/r."""
    for workload, stats in summary.items():
        ref = stats["ref_ms"]["ratio_median"]
        for metric in bounds:
            m = stats[metric]
            yield (f"{workload} {metric}: {m['base_median']:.4g} -> {m['change_median']:.4g} "
                   f"(ratio {m['ratio_median']:.3f}, lower in {m['change_lower']} of "
                   f"{stats['pairs']}, base IQR {m['base_iqr']:.3g}, ref_ms ratio {ref:.3f}): "
                   f"{m['verdict']}")


def rate_lines(summary):
    """One readable line per workload and sampler rate; ``n/a`` where the
    rate has no ratio, as on a workload that runs no chains."""
    for workload, stats in summary.items():
        for rate in RATES:
            m = stats[rate]
            if m["ratio_median"] is None:
                yield f"{workload} {rate}: n/a"
            else:
                yield (f"{workload} {rate}: {m['base_median']:.4g} -> "
                       f"{m['change_median']:.4g} (ratio {m['ratio_median']:.3f}, higher in "
                       f"{m['change_higher']} of {stats['pairs']})")


def is_dirty(cwd=ROOT) -> bool:
    """Whether the checkout has uncommitted edits or untracked files."""
    return bool(git("status", "--porcelain", cwd=cwd))


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
    side = {metric: float(values[metric]) for metric in METRICS + RATES}
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


def git(*args, cwd=ROOT, env=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def snapshot(cwd=ROOT) -> str:
    """A commit, on top of HEAD, of the working tree of the checkout at
    ``cwd``: what ``git add -A`` would stage. It is built in a temporary
    index, so the checkout's index, branches and stash stay as they are,
    and no ref names it."""
    with tempfile.TemporaryDirectory(prefix="bench_ab-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"),
                   GIT_AUTHOR_NAME="bench_ab", GIT_AUTHOR_EMAIL="bench_ab@localhost",
                   GIT_COMMITTER_NAME="bench_ab", GIT_COMMITTER_EMAIL="bench_ab@localhost")
        git("add", "-A", ":/", cwd=cwd, env=env)
        tree = git("write-tree", cwd=cwd, env=env)
        return git("commit-tree", tree, "-p", "HEAD", "-m", "working tree snapshot",
                   cwd=cwd, env=env)


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
    bounds = end_to_end_bounds()
    revs = {"base": base_rev, "change": snapshot()}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        roots = {}
        try:
            for side, rev in revs.items():
                git("worktree", "add", "--detach", str(Path(tmp) / side), rev)
                roots[side] = Path(tmp) / side
            pairs = run_pairs(roots["base"], roots["change"], args.workloads, args.seeds,
                              args.seconds, args.pairs_per_seed, args.size)
        finally:
            for root in roots.values():
                git("worktree", "remove", "--force", str(root))
    result = {
        "base": base_rev,
        "change": git("rev-parse", "HEAD"),
        "change_dirty": is_dirty(),
        "seconds": args.seconds,
        "size": args.size,
        "seeds": args.seeds,
        "summary": {w: summarise([p for p in pairs if p["workload"] == w], bounds)
                    for w in args.workloads},
        "pairs": pairs,
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    for line in summary_lines(result["summary"], bounds):
        print(line)
    for line in rate_lines(result["summary"]):
        print(line)
    print(f"wrote {path}")
    ok = all(p["base"]["correct"] and p["change"]["correct"] and p["digests_match"]
             for p in pairs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
