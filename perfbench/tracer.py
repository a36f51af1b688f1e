"""In-memory span tracer that wraps the package's public functions.

The tracer replaces selected functions and methods of the freshly
imported ``microtraffic`` modules with timing wrappers. Each call records
one span (name, start, end, parent span). Spans stay in memory; per-layer
busy and self times are derived from them when a phase ends.

Module-level functions are replaced in every ``microtraffic`` module that
holds a reference to them, because several are imported by value: the
environment looks up ``is_off_road`` in ``microtraffic.env``, ``run_chain``
looks up ``mh_step`` in ``microtraffic.calibration``, and the CLI holds its
own references to ``autocorrelation``, ``pooled_histograms`` and
``sample_param_set``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np


def _count_mh(counters, args, result):
    counters["calibration.accepted"] += bool(result.accepted)


def _count_scored(counters, args, result):
    counters["calibration.samples_scored"] += len(args[0].obs)


def _count_rollout(counters, args, result):
    counters["idm.rollout_steps"] += len(result)


#: (span name, module, attribute, counter hook) for module-level functions;
#: every reference to the function in any package module is replaced.
FUNCTIONS = (
    ("cli.gen_synthetic", "cli", "cmd_gen_synthetic", None),
    ("cli.calibrate", "cli", "cmd_calibrate", None),
    ("cli.sample_params", "cli", "cmd_sample_params", None),
    ("cli.build_demand", "cli", "cmd_build_demand", None),
    ("cli.simulate", "cli", "cmd_simulate", None),
    ("calibration.mh_step", "calibration", "mh_step", _count_mh),
    ("calibration.autocorrelation", "calibration", "autocorrelation", None),
    ("calibration.pooled_histograms", "calibration", "pooled_histograms", None),
    ("idm.rollout_follower", "idm", "rollout_follower", _count_rollout),
    ("population.build_demand", "population", "build_demand", None),
    ("population.sample_param_set", "population", "sample_param_set", None),
    ("network.load_scenario", "network", "load_scenario", None),
    ("network.is_off_road", "network", "is_off_road", None),
)

#: (span name, module, class, method, counter hook) for methods, replaced
#: on the class.
METHODS = (
    ("cli.policy_act", "cli", "BuiltinIdmEgoPolicy", "act", None),
    ("calibration.log_density", "calibration", "TargetDensity", "log_density", None),
    ("calibration.rmse", "calibration", "TargetDensity", "rmse", _count_scored),
    ("calibration.chain_to_csv", "calibration", "Chain", "to_csv", None),
    ("idm.trajectory_from_csv", "idm", "Trajectory", "from_csv", None),
    ("idm.trajectory_to_csv", "idm", "Trajectory", "to_csv", None),
    ("network.lane_project", "network", "Lane", "project", None),
    ("network.lane_pose_at", "network", "Lane", "pose_at", None),
    ("env.reset", "env", "TrafficEnv", "reset", None),
    ("env.step", "env", "TrafficEnv", "step", None),
    ("env.check_collision", "env", "TrafficEnv", "check_collision", None),
    ("env.build_observation", "env", "TrafficEnv", "build_observation", None),
    ("env.render_frame", "env", "TrafficEnv", "render_frame", None),
)

SPAN_NAMES = tuple(row[0] for row in FUNCTIONS + METHODS)


class Tracer:
    """Records nested spans around the wrapped calls while installed."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._spans: list = []
        self._stack: list = []
        self.counters: Counter = Counter()
        self._restore: list = []

    def _wrap(self, name, fn, count):
        name_id = self._ids[name]
        spans = self._spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self, mods) -> None:
        """Wrap the targets in ``mods`` (a namespace of package modules)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "microtraffic"
                                         or key.startswith("microtraffic."))]
        for name, module, attr, count in FUNCTIONS:
            orig = getattr(getattr(mods, module), attr)
            wrapper = self._wrap(name, orig, count)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))
        for name, module, cls_name, attr, count in METHODS:
            cls = getattr(getattr(mods, module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__, count))
            else:
                wrapper = self._wrap(name, raw, count)
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans = list(self._spans)
        counters = Counter(self.counters)
        self._spans.clear()
        self.counters.clear()
        return spans, counters


def layer_totals(spans, counters) -> dict:
    """Per-name call counts, busy and self times, plus the raw counters.

    ``busy_s`` sums each span's duration; ``self_s`` subtracts the
    durations of the wrapped spans nested directly inside it.
    """
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    if spans:
        arr = np.array(spans, dtype=np.float64)
        name_id = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(SPAN_NAMES)
        calls = np.bincount(name_id, minlength=n)
        busy = np.bincount(name_id, weights=dur, minlength=n)
        self_time = np.bincount(name_id, weights=dur - child, minlength=n)
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.busy_s"] = float(busy[i])
            out[f"{name}.self_s"] = float(self_time[i])
    for key, value in counters.items():
        out[key] = value
    return out


def write_spans(path, spans) -> None:
    """Write spans as CSV rows: index, name, start, end, parent index."""
    with open(path, "w") as fh:
        fh.write("span,name,start_s,end_s,parent\n")
        for i, (name_id, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{SPAN_NAMES[name_id]},{start!r},{end!r},{parent}\n")
