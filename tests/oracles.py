"""Independent reference implementations used to check the real ones.

Everything here is deliberately brute force. The metric references share no
code with the package: counting-based fractional ranks, textbook Pearson sums,
and the tie-free Spearman d^2 shortcut. The cell reference is the per-core
search loop; it reuses the package's seed draws and exact core score, so it
checks exactly the batched screen that replaced it, and `evaluate_core` is
that exact score over a base dictionary.
"""

import math

import numpy as np

from cadict.rater import SemanticCore
from cadict.search import CellResult, SkippedCell, _EvalContext, _core_sort_key, _seed_pairs


def brute_ranks(values):
    """Fractional rank of each element by direct counting."""
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2)
    return out


def pearson_direct(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def spearman_bruteforce(x, y):
    """Spearman as Pearson over counting-based ranks (valid with ties)."""
    return pearson_direct(brute_ranks(x), brute_ranks(y))


def spearman_d2(x, y):
    """1 - 6*sum(d^2)/(n(n^2-1)); only valid when both lists are tie-free."""
    rx, ry = brute_ranks(x), brute_ranks(y)
    n = len(x)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1 - 6 * d2 / (n * (n * n - 1))


def evaluate_core(core, base, store):
    """Spearman r of the core's raw ratings against the expert ratings of every
    base-dictionary word (NaN when undefined): the exact path that a search
    cell's best_r_s must equal bit for bit."""
    return _EvalContext(base.tokens, base.ratings, store).evaluate(core)


def evaluate_cell_loop(x, y, z, pools, ctx, cfg, force_sampling=False):
    """Score every drawn core of one search cell through the exact path and keep
    the best, breaking equal scores by the smallest sorted core."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, x, y, z]))
    best_r = best_key = best_core = None
    evaluated = 0
    for a_idx, c_idx in _seed_pairs(y, z, cfg.samples_per_cell, rng, force_sampling):
        core = SemanticCore(
            seed_abstract=tuple(pools.abstract[i] for i in a_idx),
            seed_concrete=tuple(pools.concrete[i] for i in c_idx),
        )
        evaluated += 1
        r = ctx.evaluate(core)
        if np.isnan(r):
            continue
        key = _core_sort_key(core)
        if best_r is None or r > best_r or (r == best_r and key < best_key):
            best_r, best_key, best_core = r, key, core
    if best_core is None:
        return SkippedCell(x=x, y=y, z=z,
                           reason="correlation undefined for every evaluated core")
    return CellResult(x=x, y=y, z=z, best_core=best_core, best_r_s=best_r,
                      cores_evaluated=evaluated)
