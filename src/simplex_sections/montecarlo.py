"""The draw loop and cluster standard error of both Monte Carlo checks.

Both checks, the slab (`oracle.monte_carlo_slab_volume`) and the cone
(`quadrature.monte_carlo_cone_volume`), draw flat points E / sum(E), E i.i.d.
standard exponential (Devroye, Non-Uniform Random Variate Generation,
ch. 5), and count several images of a draw as points, uniform by
exchangeability but dependent: the error is the cluster standard error of
the ratio estimator over the draws (Cochran, Sampling Techniques, ch. 9).
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import OutOfRange

CHUNK = 2**13  # draws per exponential fill: under 2 MB of draws and products at n = 10


def check_samples(samples, floor: int) -> int:
    """`samples` as an int; OutOfRange unless it is an integer >= floor."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise OutOfRange(f"samples must be an integer, not {samples!r}")
    if samples < floor:
        raise OutOfRange(f"samples >= {floor} required")
    return int(samples)


def cluster_mean(wt: np.ndarray, score, per: int, samples: int, seed) -> tuple[float, float]:
    """Mean value of samples points and its cluster standard error.

    ceil(samples / per) draws of wt.shape[1] exponentials fill one buffer
    CHUNK draws at a time, consuming default_rng(seed) as one draw would.
    Each chunk's product s = wt @ e' goes into one buffer, which score(s)
    may overwrite; score returns the value of each draw's per points, shape
    (per, size), and the last draw's points past samples count 0.
    The error is sqrt(m/(m-1) sum_i (y_i - p s_i)^2) / samples over m draws,
    y_i the value sum of draw i's s_i points and p the mean; inf at m = 1.
    """
    rows, d = wt.shape
    draws = -(-samples // per)
    last = samples - (draws - 1) * per  # points the last draw gives
    size = min(draws, CHUNK)
    buf = np.empty((size, d))
    # flat buffers, so that a short last chunk's views are contiguous too
    prod, y_buf = np.empty(rows * size), np.empty(2 * size)
    rng = np.random.default_rng(seed)
    total, total2 = 0.0, 0.0
    for lo in range(0, draws, CHUNK):
        size = min(CHUNK, draws - lo)
        e = buf[:size]
        rng.standard_exponential(out=e)
        # (e W')': one contiguous row per form, no short-row reductions
        v = score(np.matmul(wt, e.T, out=prod[: rows * size].reshape(rows, size)))
        if lo + CHUNK >= draws:
            v[last:, -1] = 0
        y, y2 = y_buf[: 2 * size].reshape(2, size)
        np.sum(v, axis=0, out=y)  # value per draw
        total += float(y.sum())
        # pairwise, as y.sum(); a BLAS dot would vary with threads
        total2 += float(np.multiply(y, y, out=y2).sum())
    mean = total / samples
    # sum y_i s_i and sum s_i^2: the last draw has last points, value sum y[-1]
    cross = per * total - (per - last) * float(y[-1])
    sizes2 = (draws - 1) * per * per + last * last
    dev2 = max(total2 - 2.0 * mean * cross + mean * mean * sizes2, 0.0)
    return mean, math.sqrt(draws * dev2 / (draws - 1)) / samples if draws > 1 else math.inf
