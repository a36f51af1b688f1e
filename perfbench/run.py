"""Layered benchmark of the calibrate -> demand -> simulate pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads: pipeline, calib_rollout, episodes, dense_highway (see
``BENCHMARK.json`` for why each exists). ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics from a separate traced phase. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report. The full record
(machine, digests, every metric) goes to ``.bench_out/``.

Everything runs in this one process with the numpy kernel backend and
single-threaded BLAS/OpenMP pools. The package is imported from ``src/``
of the checkout the script lives in, never from an installed copy.
"""

from __future__ import annotations

import os

# Pin native thread pools and the kernel backend before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["MICROTRAFFIC_NUMBA"] = "0"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import BUNDLED_SCENARIOS, FULL, SMOKE, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBMODULES = ("_kernels", "calibration", "cli", "env", "histogram", "idm",
              "network", "population")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7
#: Time of one ``reference_work`` call at the nominal host speed. ``setup_s``
#: and ``run_s`` are measured times scaled by REF_NOMINAL_S over the
#: reference time measured next to them: seconds at that speed. The 2-vCPU
#: x86-64 host the benchmark was written on ran the reference in about this
#: time in its fast phases and in about twice it in its slow ones.
REF_NOMINAL_S = 0.0055
#: Traced totals that must repeat exactly between traced passes.
COUNT_SUFFIXES = (".calls", "samples_scored", "rollout_steps", "accepted")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, no spec)."""


def import_package() -> SimpleNamespace:
    """Import ``microtraffic`` afresh from this checkout's ``src/``.

    Earlier imports are dropped first, so every call pays the package's
    full import cost (numpy stays loaded).
    """
    for key in [k for k in sys.modules
                if k == "microtraffic" or k.startswith("microtraffic.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        package = importlib.import_module("microtraffic")
    except ImportError as exc:
        raise SetupError(f"cannot import microtraffic from {SRC}: {exc}") from None
    if Path(package.__file__).resolve().parent != SRC / "microtraffic":
        raise SetupError(f"microtraffic resolved to {package.__file__}, "
                         f"not to {SRC}")
    mods = {name: importlib.import_module(f"microtraffic.{name}")
            for name in SUBMODULES}
    mods["kernels"] = mods.pop("_kernels")
    return SimpleNamespace(**mods)


def machine_record(mt) -> dict:
    """numpy build and SIMD dispatch, CPUs, Python, kernel backend."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    try:
        from numpy.lib.introspect import opt_func_info
        power = opt_func_info(func_name="^power$", signature="float64")
    except ImportError:
        power = "unavailable"
    return {
        "numpy": np.__version__,
        "simd_baseline": simd.get("baseline"),
        "simd_found": simd.get("found"),
        "power_float64_dispatch": power,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": mt.kernels.ACTIVE.name,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def kernel_timings(mt, calls: int) -> dict:
    """Median per-call time of the public RMSE and rollout functions.

    Inputs reproduce the ROADMAP baseline rows: a 200-sample trajectory for
    ``rmse_objective`` and a 2000-step constant-leader ``rollout_follower``.
    """
    idm = mt.idm
    theta = idm.ParamSet(3.0, 5.0, 35.0, 10.0, 2.0, 4.0)
    lead = np.repeat([28.0, 16.0, 24.0, 32.0], 50)
    obs = idm.rollout_follower(theta, lead, idm.FollowingState(20.0, 0.0, 35.0),
                               0.1, 200)
    init = idm.FollowingState(25.0, 0.0, 80.0)

    def median_call_us(fn, n_calls, batch):
        samples = []
        for _ in range(max(n_calls // batch, 3)):
            start = time.perf_counter()
            for _ in range(batch):
                fn()
            samples.append((time.perf_counter() - start) / batch)
        return statistics.median(samples) * 1e6

    return {
        "kernels.rmse_one_step.us": median_call_us(
            lambda: idm.rmse_objective(obs, theta), 50 * calls, 50),
        "kernels.rollout.us": median_call_us(
            lambda: idm.rollout_follower(theta, 25.0, init, 0.1, 2000),
            calls // 8, 1),
    }


def _reference_law(a, b, v, gap):
    d = 2.0 + v * 1.5 + v * (v - 20.0) / (2.0 * math.sqrt(a * b))
    return a * (1.0 - (v / 30.0) ** 4.0 - (max(d, 0.0) / gap) ** 2)


def reference_work() -> float:
    """A fixed computation of small numpy reductions, dict updates and a
    scalar Euler loop; its time tracks how fast the shared host currently
    runs this process."""
    x = np.linspace(0.0, 1.0, 200)
    acc = 0.0
    table = {}
    for i in range(400):
        y = x * (1.0 + i * 1e-6)
        acc += float(np.sqrt(np.mean((y - x) ** 2)))
        table[i & 63] = (acc, i)
    v, gap = 20.0, 30.0
    for _ in range(4000):
        v = max(v + _reference_law(1.5, 2.0, v, gap) * 0.01, 0.0)
        gap += (20.0 - v) * 0.01
    return acc + v + gap + len(table)


def reference_s() -> float:
    """Median time of three ``reference_work`` calls."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_pass(state):
    """One pass of the workload, bracketed by reference timings."""
    gc.collect()
    before = reference_s()
    p = state.run_pass()
    p.ref_s = 0.5 * (before + reference_s())
    return p


def typical_run_s(passes, normalized: bool = True) -> float:
    """Sum over a pass's timed parts of each part's median over the passes.

    Every pass repeats the same parts, so a transient slowdown only shifts
    the median of the parts it hit, and only if it hit them in most passes.
    With ``normalized`` each pass is first scaled to the nominal host speed.
    """
    scale = [REF_NOMINAL_S / p.ref_s if normalized else 1.0 for p in passes]
    if len({len(p.parts) for p in passes}) != 1:  # a failed pass
        return statistics.median(p.run_s * k for p, k in zip(passes, scale))
    parts = np.array([p.parts for p in passes]) * np.array(scale)[:, None]
    return float(np.median(parts, axis=0).sum())


def rates(passes) -> dict:
    """Workload-level metrics of a set of untraced passes; the rates are
    per second of wall-clock time."""
    wall_s = typical_run_s(passes, normalized=False)
    first = passes[0]
    steps = [x for p in passes for lat in p.step_s.values() for x in lat]
    out = {
        "run_s": typical_run_s(passes),
        "run_wall_s": wall_s,
        "ref_ms": statistics.median(p.ref_s for p in passes) * 1e3,
        "mh_iter_per_s": first.mh_iters / wall_s if wall_s else 0.0,
        "ess_per_s": first.ess / wall_s if wall_s else 0.0,
        "env_step_per_s": first.env_steps / wall_s if wall_s else 0.0,
        "veh_step_per_s": first.bv_steps / wall_s if wall_s else 0.0,
        "step_us_p50": percentile(steps, 50) * 1e6 if steps else 0.0,
        "step_us_p95": percentile(steps, 95) * 1e6 if steps else 0.0,
        "step_samples": len(steps),
    }
    for name in BUNDLED_SCENARIOS:
        lat = [x for p in passes for x in p.step_s.get(name, ())]
        out[f"env.step_us_p50.{name}"] = percentile(lat, 50) * 1e6 if lat else 0.0
    return out


def pass_counts(p) -> dict:
    """Work counts of a pass; they must repeat exactly between passes."""
    return {"mh_iters": p.mh_iters, "env_steps": p.env_steps,
            "bv_steps": p.bv_steps, "max_alive": p.max_alive,
            "bv_contacts": p.bv_contacts, "attempted": p.attempted}


def layer_metrics(setup_totals: dict, pass_totals: list) -> dict:
    """Set-up totals plus the median traced pass, with derived ratios."""
    out = {}
    for key in setup_totals.keys() | {k for t in pass_totals for k in t}:
        median_pass = statistics.median(t.get(key, 0) for t in pass_totals)
        out[key] = setup_totals.get(key, 0) + median_pass
    log_calls = out["calibration.log_density.calls"]
    mh_calls = out["calibration.mh_step.calls"]
    out["calibration.scored_ratio"] = (out["calibration.rmse.calls"] / log_calls
                                       if log_calls else 0.0)
    out["calibration.accept_ratio"] = (out.get("calibration.accepted", 0) / mh_calls
                                       if mh_calls else 0.0)
    out.setdefault("calibration.samples_scored", 0)
    out.setdefault("idm.rollout_steps", 0)
    return out


def measure(args) -> dict:
    size = SMOKE if args.size == "smoke" else FULL
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "operation": workload.op, "errors": []}
    state = None
    try:
        setup_s = []
        setup_ref_s = []
        for rep in range(SETUP_REPS):
            if state is not None:
                state.close()
            gc.collect()
            setup_ref_s.append(reference_s())
            start = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            mt = import_package()
            if tracer is not None and rep == SETUP_REPS - 1:
                tracer.install(mt)
            state = workload(mt, args.seed, size, work)
            setup_s.append(time.perf_counter() - start)
        record["machine"] = machine_record(mt)
        record["setup_s_reps"] = setup_s

        deadline = time.perf_counter() + args.seconds
        untraced = []
        traced = []
        if tracer is None:
            while not untraced or time.perf_counter() < deadline:
                untraced.append(timed_pass(state))
        else:
            # Untraced and traced passes alternate, so that both see the
            # same host conditions and the overhead compares like with like.
            setup_spans, setup_counters = tracer.take()
            tracer.uninstall()
            totals = []
            while len(traced) < 2 or time.perf_counter() < deadline:
                untraced.append(timed_pass(state))
                tracer.install(mt)
                traced.append(timed_pass(state))
                tracer.uninstall()
                last_spans, counters = tracer.take()
                totals.append(tracing.layer_totals(last_spans, counters))
        passes = untraced + traced
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = record["errors"]
    for p in passes:
        errors.extend(p.errors)
    digests = [p.digests for p in passes if p.failed == 0]
    if any(d != digests[0] for d in digests):
        which = "traced and untraced" if tracer is not None else "repeated"
        errors.append(f"output digests differ between {which} passes")
    counts = [pass_counts(p) for p in passes]
    if any(c != counts[0] for c in counts):
        errors.append("work counts differ between passes")
    record["digests"] = digests[0] if digests else {}

    untraced_rates = rates(untraced)
    values = dict(untraced_rates)
    values["setup_s"] = statistics.median(
        t * REF_NOMINAL_S / ref for t, ref in zip(setup_s, setup_ref_s))
    values["setup_wall_s"] = statistics.median(setup_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_ratio"] = failed / attempted if attempted else 1.0
    if tracer is not None:
        layer_counts = [{k: v for k, v in t.items() if k.endswith(COUNT_SUFFIXES)}
                        for t in totals]
        if any(c != layer_counts[0] for c in layer_counts):
            errors.append("traced call counts differ between passes")
        values.update(layer_metrics(
            tracing.layer_totals(setup_spans, setup_counters), totals))
        first = passes[0]
        values["env.bv_steps"] = first.bv_steps
        values["env.max_alive"] = first.max_alive
        values["env.bv_contacts"] = first.bv_contacts
        values["trace.overhead_s"] = (typical_run_s(traced, normalized=False)
                                      - untraced_rates["run_wall_s"])
        values.update(kernel_timings(mt, size.kernel_calls))
        record["spans_file"] = f"{args.workload}-seed{args.seed}.spans.csv"
        tracing.write_spans(ROOT / ".bench_out" / record["spans_file"], last_spans)
    record["run_s_untraced"] = [p.run_s for p in untraced]
    record["run_s_traced"] = [p.run_s for p in traced]
    record.update(passes_untraced=len(untraced), passes_traced=len(traced),
                  attempted=attempted, failed=failed, values=values)
    return record


def report(record: dict, spec: dict) -> dict:
    """Print the readable report and return the result line's object."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    values = record["values"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}  "
          f"size {record['size']}")
    for key, value in record["machine"].items():
        print(f"  machine.{key}: {value}")
    print(f"  passes: {record['passes_untraced']} untraced, "
          f"{record['passes_traced']} traced; operation: {record['operation']}; "
          f"attempted {record['attempted']}, failed {record['failed']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_ratio="ratio")
    for name in sorted(values):
        print(f"  {name} = {values[name]!r} {units.get(name, '')}".rstrip())
    for err in record["errors"][:20]:
        print(f"  error: {err}")
    correct = not record["errors"] and record["failed"] == 0
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "microtraffic").is_dir():
            raise SetupError(f"no package source under {SRC}")
        record = measure(args)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(record, spec)
    out_dir = ROOT / ".bench_out"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["result"] = result
    (out_dir / name).write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
