"""Discrete probability distributions: distances, moments, entropy.

Distributions are plain numpy arrays of probabilities, optionally paired with
an array of integer or float labels (positions).  The total-variation
distance follows the convention used throughout the package: the plain sum of
absolute differences, without the factor 1/2, so disjoint distributions are
at distance 2.
"""

from collections import namedtuple

import numpy as np

__all__ = ["tvd", "entropy", "dist_stats", "DistStats"]

DistStats = namedtuple("DistStats", "mean abs_mean variance skewness entropy")


def tvd(p, q):
    """Total variation distance as the plain sum of |p - q|.

    Note the absence of the conventional 1/2: identical distributions give 0
    and distributions with disjoint support give 2.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions live on different label sets")
    # the reduction np.sum runs, without its Python-level dispatch
    return float(np.add.reduce(np.abs(p - q), axis=None))


def entropy(p):
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=float)
    mask = p > 0.0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def dist_stats(labels, p):
    """Moments and entropy of a distribution over numeric labels.

    Parameters
    ----------
    labels : array_like
        Numeric positions, one per probability.
    p : array_like
        Probabilities.

    Returns
    -------
    DistStats
        mean, mean of |x|, variance, skewness, entropy.

    Notes
    -----
    The skewness here is the third moment of (x - <x>) / <x^2> with the raw
    second moment in the denominator, not the centered standard deviation.
    That is a deliberately nonstandard normalization kept for continuity with
    the rest of the package's diagnostics; it is zero whenever <x^2> = 0.
    """
    x = np.asarray(labels, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape != p.shape:
        raise ValueError("labels and probabilities differ in length")
    mean = float(np.dot(p, x))
    abs_mean = float(np.dot(p, np.abs(x)))
    raw2 = float(np.dot(p, x * x))
    variance = raw2 - mean * mean
    if raw2 == 0.0:
        skewness = 0.0
    else:
        skewness = float(np.dot(p, ((x - mean) / raw2) ** 3))
    return DistStats(mean, abs_mean, variance, skewness, entropy(p))
