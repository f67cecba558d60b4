"""Evaluation metrics: Spearman (rank-Pearson with average ranks), Pearson, accuracy.

Ties get fractional (average) ranks and Spearman is computed as Pearson over
those ranks, the correct general form; the popular 1 - 6*sum(d^2)/... shortcut
is only valid tie-free and lives in the test suite as an oracle. Every rank
correlation, here and in the core search, is `rank_correlation`, whose sums
are exact integers. math.fsum serves only `pearson` over arbitrary values:
evaluations correlate tens of thousands of values with small variances.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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


def average_ranks(values) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean of their positions.

    Ranks always sum to n(n+1)/2.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("average_ranks needs a non-empty 1-d sequence")
    n = arr.size
    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    # positions start+1 .. end share rank (start + end + 1) / 2
    tied_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(tied_rank, ends - starts)
    return ranks


def pearson(x, y) -> float:
    """Product-moment correlation, clamped to [-1, 1]; fsum-compensated sums."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-d sequences")
    n = xa.size
    if n < 2:
        raise ValueError("pearson needs at least 2 points")
    # a power-of-two scale leaves r's bits unchanged (it is exact unless a value
    # is ~2^1000 below the largest), and squares of |values| < 1 cannot overflow
    xa = np.ldexp(xa, -np.frexp(np.max(np.abs(xa)))[1])
    ya = np.ldexp(ya, -np.frexp(np.max(np.abs(ya)))[1])
    mx = math.fsum(xa) / n
    my = math.fsum(ya) / n
    dx = xa - mx
    dy = ya - my
    sxx = math.fsum(dx * dx)
    syy = math.fsum(dy * dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("pearson undefined: zero variance input")
    sxy = math.fsum(dx * dy)
    return float(np.clip(sxy / math.sqrt(sxx * syy), -1.0, 1.0))


def rank_correlation(ranks, gold_ranks):
    """Pearson correlation of fractional ranks with `gold_ranks`, clamped to
    [-1, 1]: a float for one rank vector, an array for each row of a 2-d one;
    NaN where the ranks are constant.

    Twice a fractional rank is an integer, so the sums run exactly over
    2*rank - (n+1); r is the ratio of the correctly rounded sums, the same
    bits as `pearson` on the same ranks, for any n.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    gold = np.asarray(gold_ranks, dtype=np.float64)
    n = gold.size
    if gold.ndim != 1 or n < 2 or ranks.shape[-1:] != (n,):
        raise ValueError("rank_correlation needs 1-d gold ranks (n >= 2) and rows of length n")
    u = (2 * ranks).astype(np.int64) - (n + 1)
    g = (2 * gold).astype(np.int64) - (n + 1)
    # a sum over all n terms is at most (n^3 - n) / 3 and one term at most
    # (n - 1)^2: past about 3M words, blocks short enough to sum in int64
    # without overflow add up as Python ints
    int64_max = int(np.iinfo(np.int64).max)
    step = n if (n ** 3 - n) // 3 <= int64_max else int64_max // (n - 1) ** 2
    sxx = sxy = syy = 0
    for i in range(0, n, step):
        ub, gb = u[..., i:i + step], g[i:i + step]
        sxx = sxx + np.einsum("...i,...i->...", ub, ub).astype(object)
        sxy = sxy + (ub @ gb).astype(object)
        syy += int(gb @ gb)
    sxx, sxy = np.asarray(sxx, dtype=np.float64), np.asarray(sxy, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # 0 / 0 for constant ranks
        r = np.clip(sxy / np.sqrt(sxx * float(syy)), -1.0, 1.0)
    return float(r) if r.ndim == 0 else r


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson over fractional ranks."""
    r = rank_correlation(average_ranks(x), average_ranks(y))
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
