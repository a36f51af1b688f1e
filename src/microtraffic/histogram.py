"""Binned marginal distributions.

This is the hand-off format between the calibrator (which writes one
histogram per driver parameter) and the traffic generator (which draws
per-vehicle parameters from them). Bins are contiguous and their masses
sum to one; equal widths are usual but not required.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputDomainError, SchemaError, read_json_object

MASS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Histogram:
    """Contiguous bins [lo_i, hi_i) with masses summing to 1, as read-only copies.

    Equality and hashing are by identity, as the arrays define no truth value.
    """

    lo: np.ndarray
    hi: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        try:
            lo, hi, mass = (np.array(a, dtype=np.float64, ndmin=1)
                            for a in (self.lo, self.hi, self.mass))
        except (TypeError, ValueError, OverflowError):
            raise InputDomainError("bin edges and masses must be numbers") from None
        if not (lo.ndim == hi.ndim == mass.ndim == 1):
            raise InputDomainError("histogram arrays must be 1-D")
        if not (lo.size == hi.size == mass.size) or lo.size == 0:
            raise InputDomainError("histogram needs matching, non-empty bin arrays")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InputDomainError("bin edges must be finite")
        if np.any(hi <= lo):
            raise InputDomainError("each bin needs hi > lo")
        gaps = np.abs(hi[:-1] - lo[1:])
        if np.any(gaps > 1e-9 * np.maximum(1.0, np.abs(hi[:-1]))):
            raise InputDomainError("bins must be contiguous")
        if np.any(~np.isfinite(mass)) or np.any(mass < 0.0):
            raise InputDomainError("masses must be finite and >= 0")
        total = float(mass.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise InputDomainError(f"masses must sum to 1 within {MASS_TOL}, got {total!r}")
        for name, a in (("lo", lo), ("hi", hi), ("mass", mass)):
            a.flags.writeable = False  # so the sampling table below stays true
            object.__setattr__(self, name, a)
        # Sampling table of floats: total mass, cumulative masses of all bins
        # but the last (a draw past them lands in the last), (lo, hi) per bin.
        cum = np.cumsum(mass)[:-1].tolist()
        object.__setattr__(self, "_table", (total, cum, list(zip(lo.tolist(), hi.tolist()))))

    @classmethod
    def from_bins(cls, bins) -> "Histogram":
        """Build from an iterable of (lo, hi, mass) triples."""
        bins = list(bins)
        if not bins:
            raise InputDomainError("histogram needs at least one bin")
        lo, hi, mass = zip(*bins)
        return cls(lo, hi, mass)

    @property
    def n_bins(self) -> int:
        return self.lo.size

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lo[0]), float(self.hi[-1])

    def mean(self) -> float:
        """Mass-weighted mean of bin midpoints."""
        return float(np.sum(self.mass * 0.5 * (self.lo + self.hi)))

    def bins(self):
        for i in range(self.n_bins):
            yield float(self.lo[i]), float(self.hi[i]), float(self.mass[i])


def save_histograms(histograms, path) -> None:
    """Write a name -> Histogram mapping as JSON."""
    payload = {
        name: [{"lo": lo, "hi": hi, "mass": mass} for lo, hi, mass in h.bins()]
        for name, h in histograms.items()
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_histograms(path):
    """Read a name -> Histogram mapping written by :func:`save_histograms`."""
    path = Path(path)
    payload = read_json_object(path, SchemaError, "expected an object mapping names to bin lists")
    out = {}
    for name, bins in payload.items():
        if not isinstance(bins, list):
            raise SchemaError(f"{path}: entry {name!r} must be a list of bins")
        try:
            triples = [(b["lo"], b["hi"], b["mass"]) for b in bins]
        except (TypeError, KeyError) as exc:
            raise SchemaError(f"{path}: entry {name!r}: malformed bin ({exc})") from None
        try:
            out[name] = Histogram.from_bins(triples)
        except InputDomainError as exc:
            raise SchemaError(f"{path}: entry {name!r}: {exc}") from None
    return out
