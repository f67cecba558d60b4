"""Evaluation metrics: Spearman (rank-Pearson with average ranks), Pearson, accuracy.

Ties get fractional (average) ranks and Spearman is computed as Pearson over
those ranks, the correct general form; the 1 - 6*sum(d^2)/... shortcut is only
valid tie-free and lives in the test suite as an oracle. Every rank, here and
in the core search's screen, comes from the tie runs of `tie_ranks` as an
exact centred integer, and every rank correlation sums those with `exact_dot`.
math.fsum serves only `pearson`, over arbitrary values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np


@dataclass(frozen=True)
class EvaluationReport:
    """Joint quality report for one predictions-vs-gold comparison."""

    r_s: float
    rho: float
    accuracy: float
    n: int
    threshold_gold: float
    threshold_pred: float

    def to_dict(self) -> dict:
        return asdict(self)


def pow2_scaled(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`values` (into `out` if given) times the power of two that puts their
    largest magnitude in [0.5, 1): exact unless a value is ~2^1000 below it."""
    return np.ldexp(values, -np.frexp(np.max(np.abs(values)))[1], out=out)


def pearson(x, y) -> float:
    """Product-moment correlation, clamped to [-1, 1]; fsum-compensated sums."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-d sequences")
    n = xa.size
    if n < 2:
        raise ValueError("pearson needs at least 2 points")
    # a power-of-two scale leaves r's bits unchanged
    xa, ya = pow2_scaled(xa), pow2_scaled(ya)
    dx, dy = xa - math.fsum(xa) / n, ya - math.fsum(ya) / n
    sxx, syy = math.fsum(dx * dx), math.fsum(dy * dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("pearson undefined: zero variance input")
    sxy = math.fsum(dx * dy)
    return float(np.clip(sxy / math.sqrt(sxx * syy), -1.0, 1.0))


def tie_ranks(equal: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Centred int64 ranks of a sorted sequence's positions, or of each row's,
    from its equal neighbours ``equal[..., p] = sorted[p + 1] == sorted[p]``:
    p in the tie run [s, e) gets s + e - n, twice its average 1-based rank less
    n + 1, so an untied p gets 2p + 1 - n. The run starts (a running maximum)
    and ends (a reversed running minimum) are held in `out`, an int64 array of
    shape (2, ..., n); the ranks are left in ``out[0]``."""
    n = equal.shape[-1] + 1
    start, end = np.empty((2, *equal.shape[:-1], n), np.int64) if out is None else out
    start[...] = np.arange(n)
    np.copyto(start[..., 1:], 0, where=equal)  # p starts no run if it equals p - 1
    np.maximum.accumulate(start, axis=-1, out=start)
    end[...] = np.arange(1, n + 1)
    np.copyto(end[..., :-1], n, where=equal)  # nor ends one there
    np.minimum.accumulate(end[..., ::-1], axis=-1, out=end[..., ::-1])
    start += end
    start -= n
    return start


def centred_ranks(values) -> np.ndarray:
    """The `tie_ranks` of a non-empty 1-d sequence, in its own order."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("ranks need a non-empty 1-d sequence")
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    u = np.empty(arr.size, dtype=np.int64)
    u[order] = tie_ranks(ordered[1:] == ordered[:-1])
    return u


def average_ranks(values) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean of their positions."""
    u = centred_ranks(values)
    return (u + (u.size + 1)) / 2.0


def exact_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a` dotted with `b` (one vector, or one row per row of `a`) over the last
    axis, for int64 centred ranks or weights of their range, summed exactly and
    rounded once to float64. A sum over all n terms is at most (n^3 - n) / 3
    and one term at most (n - 1)^2; past about 3M words, blocks short enough to
    sum in int64 without overflow add up as Python ints."""
    dot = np.matmul if b.ndim == 1 else partial(np.einsum, "...i,...i->...")
    n = b.shape[-1]
    int64_max = int(np.iinfo(np.int64).max)
    if (n ** 3 - n) // 3 <= int64_max:
        return np.asarray(dot(a, b), dtype=np.float64)
    step = int64_max // (n - 1) ** 2
    return np.asarray(sum(dot(a[..., i:i + step], b[..., i:i + step]).astype(object)
                          for i in range(0, n, step)), dtype=np.float64)


def rank_correlation(u, g) -> np.ndarray:
    """Pearson correlation of int64 centred ranks `u` and `g` over the last
    axis (one r per row of 2-d arrays), clamped to [-1, 1]; NaN for constant
    ranks. Its exact sums, rounded once, give the bits of `pearson` on the
    same ranks, for any n."""
    u, g = np.asarray(u), np.asarray(g)
    if u.shape != g.shape or u.ndim == 0 or u.shape[-1] < 2 or not u.dtype == g.dtype == np.int64:
        raise ValueError("rank_correlation needs int64 centred ranks of one shape, n >= 2")
    with np.errstate(invalid="ignore"):  # 0 / 0 for constant ranks
        return np.clip(exact_dot(u, g) / np.sqrt(exact_dot(u, u) * exact_dot(g, g)), -1.0, 1.0)


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson over fractional ranks."""
    r = float(rank_correlation(centred_ranks(x), centred_ranks(y)))
    if math.isnan(r):
        raise ValueError("spearman undefined: constant input list")
    return r


def binary_accuracy(pred, gold, threshold_gold: float, threshold_pred: float) -> float:
    """Fraction of items where (pred >= threshold_pred) agrees with (gold >= threshold_gold)."""
    pa = np.asarray(pred, dtype=np.float64)
    ga = np.asarray(gold, dtype=np.float64)
    if pa.shape != ga.shape or pa.ndim != 1 or pa.size == 0:
        raise ValueError("binary_accuracy needs two equal-length non-empty 1-d sequences")
    return float(np.mean((pa >= threshold_pred) == (ga >= threshold_gold)))


def evaluate_ratings(pred, gold, threshold_gold: float = 3.0,
                     threshold_pred: float | None = None) -> EvaluationReport:
    """Compute r_s, rho, and accuracy for paired predictions and gold ratings.

    The gold threshold defaults to 3.0, the midpoint of the 1..5 scale; the
    prediction threshold defaults to the median of the predictions, a
    scale-free split. Both are overridable.
    """
    pa = np.asarray(pred, dtype=np.float64)
    ga = np.asarray(gold, dtype=np.float64)
    if threshold_pred is None:
        threshold_pred = float(np.median(pa))
    return EvaluationReport(
        r_s=spearman(pa, ga),
        rho=pearson(pa, ga),
        accuracy=binary_accuracy(pa, ga, threshold_gold, threshold_pred),
        n=int(pa.size),
        threshold_gold=float(threshold_gold),
        threshold_pred=float(threshold_pred),
    )
