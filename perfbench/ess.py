"""Effective sample size by Geyer's (1992) initial monotone sequence."""

from __future__ import annotations

import numpy as np


def autocovariance(x) -> np.ndarray:
    """Biased autocovariance at lags 0..n-1 (divided by n), via FFT."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    y = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(y, size)
    return np.fft.irfft(spec * np.conjugate(spec), size)[:n] / n


def effective_sample_size(x) -> float:
    """ESS of one scalar chain; nan for a constant series.

    Pairs of consecutive autocovariances ``Gamma_m = g(2m) + g(2m+1)`` are
    summed while positive (initial positive sequence), each capped at the
    previous pair (initial monotone sequence). The asymptotic variance is
    ``-g(0) + 2 * sum(Gamma_m)`` and ESS is ``n * g(0)`` over it.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 samples, got {n}")
    gamma = autocovariance(x)
    if gamma[0] <= 0.0:
        return float("nan")
    n_pairs = n // 2
    pairs = gamma[0:2 * n_pairs:2] + gamma[1:2 * n_pairs:2]
    positive = pairs > 0.0
    m = n_pairs if positive.all() else max(int(np.argmin(positive)), 1)
    pairs = np.minimum.accumulate(pairs[:m])
    sigma2 = -gamma[0] + 2.0 * pairs.sum()
    return float(n * gamma[0] / sigma2)


def chain_ess(samples) -> float:
    """Minimum ESS over the coordinates of an (n, dim) chain that move.

    Constant (pinned) coordinates are skipped; a chain with no moving
    coordinate has ESS 0.
    """
    samples = np.asarray(samples, dtype=np.float64)
    values = [effective_sample_size(samples[:, k]) for k in range(samples.shape[1])
              if np.ptp(samples[:, k]) > 0.0]
    return min(values) if values else 0.0
