"""Brute-force search for the best semantic core over the (X, Y, Z) grid.

For each base-dictionary size X, candidate-pool size Y (50-step up to X/3),
and seed size Z (20-step from 10 up to Y), the search draws abstract/concrete
seed pairs (exhaustively when the pair count C(Y,Z)^2 fits in the per-cell
budget, otherwise uniformly without repetition), scores each core by Spearman
correlation between its ratings and the expert ratings, and keeps the best
core per cell.

A cell is scored in two steps. A batched screen rates all of its cores with
one matrix product and correlates their ranks in one matrix-vector product;
then every flagged core (one whose screened ranks could differ from the
exact ones) and the best unflagged cores are settled through the one exact
path (`raw_ratings` plus the fsum Pearson), so every reported r_s is that
path's.

Reproducibility contract: every cell draws from its own RNG stream keyed by
(rng_seed, X, Y, Z), and the best-core reduction breaks score ties by the
lexicographically smallest sorted core, so reports are bit-identical across
reruns and worker counts.
"""

from __future__ import annotations

import itertools
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator

import numpy as np

from cadict import metrics
from cadict.embeddings import VectorStore
from cadict.errors import DataError, InfeasibleError
from cadict.lexicon import (
    BaseDictionary,
    CandidatePools,
    FrequencyList,
    RatingLexicon,
    select_base,
    select_pools,
)
from cadict.rater import SIMILARITY_FLOOR, SemanticCore, raw_ratings

logger = logging.getLogger(__name__)

# cores whose screened r is this close to the cell's screened maximum are
# re-scored exactly. The screen's correlation sums are exact below ~300k words
# (n^3 / 3 < 2^53); past that the margin covers their rounding.
SETTLE_MARGIN = 1e-9
# the screen works on blocks of cores of at most this many (core, word)
# ratings, so its arrays stay near 16 MB each however many words are scored
SCREEN_BLOCK = 1 << 21


class EvaluationScope(str, Enum):
    """What the search objective is computed on."""

    BASE_DICTIONARY = "base_dictionary"
    FULL_LEXICON = "full_lexicon"


@dataclass(frozen=True)
class SearchConfig:
    x_values: tuple[int, ...] = (500, 1000, 1500, 2000, 2500)
    y_start: int = 50
    y_step: int = 50
    z_min: int = 10
    z_step: int = 20
    samples_per_cell: int = 100
    rng_seed: int = 0
    evaluation_scope: EvaluationScope = EvaluationScope.BASE_DICTIONARY

    def __post_init__(self):
        object.__setattr__(self, "x_values", tuple(int(x) for x in self.x_values))
        object.__setattr__(self, "evaluation_scope", EvaluationScope(self.evaluation_scope))
        if not self.x_values or any(x < 1 for x in self.x_values):
            raise ValueError("x_values must be non-empty positive integers")
        if self.y_start < 1 or self.y_step < 1 or self.z_step < 1:
            raise ValueError("y_start, y_step, z_step must be positive")
        if self.z_min < 1:
            raise ValueError("z_min must be >= 1")
        if self.samples_per_cell < 1:
            raise ValueError("samples_per_cell must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be unsigned")

    def to_dict(self) -> dict:
        return {
            "x_values": list(self.x_values),
            "y_start": self.y_start,
            "y_step": self.y_step,
            "z_min": self.z_min,
            "z_step": self.z_step,
            "samples_per_cell": self.samples_per_cell,
            "rng_seed": self.rng_seed,
            "evaluation_scope": self.evaluation_scope.value,
        }


@dataclass(frozen=True)
class CellResult:
    x: int
    y: int
    z: int
    best_core: SemanticCore
    best_r_s: float
    cores_evaluated: int

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "best_r_s": self.best_r_s,
            "cores_evaluated": self.cores_evaluated,
            "best_core": {
                "seed_abstract": list(self.best_core.seed_abstract),
                "seed_concrete": list(self.best_core.seed_concrete),
            },
        }


@dataclass(frozen=True)
class SkippedCell:
    """A grid point (or whole X slice, when y and z are None) that could not run."""

    x: int
    y: int | None
    z: int | None
    reason: str

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "reason": self.reason}


@dataclass(frozen=True)
class SearchReport:
    cells: tuple[CellResult, ...]
    skipped: tuple[SkippedCell, ...]
    best_overall: CellResult | None
    config: SearchConfig
    wall_seconds: float

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "format_version": 1,
            "kind": "search_report",
            "config": self.config.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
            "skipped": [s.to_dict() for s in self.skipped],
            "best_overall": self.best_overall.to_dict() if self.best_overall else None,
        }
        if include_timing:
            doc["timing"] = {"wall_seconds": self.wall_seconds}
        return doc

    def landscape_rows(self) -> list[tuple[int, int, int, float]]:
        """(x, y, z, best_r_s) rows for plotting the correlation landscape."""
        return [(c.x, c.y, c.z, c.best_r_s) for c in self.cells]


class _EvalContext:
    """Fixed word set with precomputed vectors and gold ranks."""

    def __init__(self, tokens, gold, store: VectorStore):
        tokens = tuple(tokens)
        gold = np.asarray(gold, dtype=np.float64)
        if len(tokens) < 2:
            raise DataError("evaluation needs at least 2 words")
        if np.all(gold == gold[0]):
            raise DataError("evaluation undefined: constant gold ratings")
        self.store = store
        self.matrix = store.rows(tokens)
        self.gold_ranks = metrics.average_ranks(gold)
        # ranks are half-integers with mean (n+1)/2, so deviations are exact
        self.gold_dev = self.gold_ranks - (len(tokens) + 1) / 2

    def evaluate(self, core: SemanticCore) -> float | None:
        """Spearman of the core's raw ratings against gold; None when undefined."""
        raw, _ = raw_ratings(self.matrix, core, self.store)
        try:
            return metrics.pearson(metrics.average_ranks(raw), self.gold_ranks)
        except ValueError:
            return None


def evaluate_core(core: SemanticCore, base: BaseDictionary, store: VectorStore) -> float:
    """Spearman correlation between the core's ratings and the expert ratings
    over every base-dictionary word."""
    core.require_in_store(store)
    ctx = _EvalContext(base.tokens, base.ratings, store)
    r_s = ctx.evaluate(core)
    if r_s is None:
        raise DataError("correlation undefined: the core rates every word identically")
    return r_s


def _seed_pairs(y: int, z: int, limit: int, rng: np.random.Generator,
                force_sampling: bool = False) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (abstract_indices, concrete_indices) pairs over pools of size y.

    Exhaustive in lexicographic order when the total pair count fits in
    `limit`; otherwise uniform sampling without pair repetition from `rng`.
    """
    total = comb(y, z) ** 2
    if total <= limit and not force_sampling:
        for a in itertools.combinations(range(y), z):
            for c in itertools.combinations(range(y), z):
                yield a, c
        return
    target = min(limit, total)
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    while len(seen) < target:
        a = tuple(sorted(rng.choice(y, size=z, replace=False).tolist()))
        c = tuple(sorted(rng.choice(y, size=z, replace=False).tolist()))
        pair = (a, c)
        if pair in seen:
            continue
        seen.add(pair)
        yield pair


def _core_sort_key(core: SemanticCore) -> tuple[str, ...]:
    # total order: both halves have length z, so the concatenation is unique
    return tuple(sorted(core.seed_abstract)) + tuple(sorted(core.seed_concrete))


def _screen_cell(pairs: list[tuple[tuple[int, ...], tuple[int, ...]]], z: int,
                 pools: CandidatePools, ctx: _EvalContext) -> tuple[np.ndarray, np.ndarray]:
    """Screened Spearman r of every core in a cell (NaN when undefined) and a
    mask of the cores whose screened ranks may differ from the exact path's.

    The screen forms the seed means with 0/1 selection matrices and all
    similarities with one product, so its sums run in another order than
    `raw_ratings`. Each raw rating therefore carries an error bound; a core
    whose sorted ratings have two neighbours closer than their bounds allow
    is flagged. Every other core has exactly the exact path's ranks, and its
    correlation sums are exact too: rank deviations are half-integers.
    """
    k, y = len(pairs), len(pools.abstract)
    rows = np.arange(k)[:, None]
    sel_a = np.zeros((k, y))
    sel_c = np.zeros((k, y))
    sel_a[rows, [a for a, _ in pairs]] = 1.0
    sel_c[rows, [c for _, c in pairs]] = 1.0
    means = np.vstack((sel_c @ ctx.store.rows(pools.concrete),
                       sel_a @ ctx.store.rows(pools.abstract))) / z
    sims = np.clip(means @ ctx.matrix.T, -1.0, 1.0)
    sims_c, sims_a = sims[:k], sims[k:]
    num = np.maximum(sims_c, SIMILARITY_FLOOR)
    den = np.maximum(sims_a, SIMILARITY_FLOOR)
    raw = num / den

    # Each path gets a similarity within (d + y + 1) * eps / 2 of its true
    # value (unit rows, d components, means over at most y rows), so the two
    # paths differ by at most delta / 2. A similarity more than delta below
    # the floor is floored on both paths and adds no error; any other adds at
    # most 2 * delta relative to its floored value, with room to spare for
    # rounding the ratio.
    n, d = ctx.matrix.shape
    delta = 4 * (d + y) * np.finfo(np.float64).eps
    rel = 2 * delta * ((sims_c > SIMILARITY_FLOOR - delta) / num
                       + (sims_a > SIMILARITY_FLOOR - delta) / den)
    order = np.argsort(raw, axis=1)
    ordered = np.take_along_axis(raw, order, axis=1)
    err = np.take_along_axis(raw * rel, order, axis=1)
    gaps = np.diff(ordered, axis=1)
    slack = err[:, 1:] + err[:, :-1]
    unsure = np.any((gaps <= slack) & (slack > 0), axis=1)

    ranks = np.empty_like(raw)
    np.put_along_axis(ranks, order, np.arange(1.0, n + 1), axis=1)
    for i in np.flatnonzero(np.any(gaps == 0, axis=1) & ~unsure):
        ranks[i] = metrics.average_ranks(raw[i])
    dev = ranks - (n + 1) / 2
    sxx = np.einsum("ij,ij->i", dev, dev)
    syy = float(ctx.gold_dev @ ctx.gold_dev)
    sxy = dev @ ctx.gold_dev
    with np.errstate(invalid="ignore"):
        r = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)
    return np.where(sxx > 0, r, np.nan), unsure


def _evaluate_cell(x: int, y: int, z: int, pools: CandidatePools, ctx: _EvalContext,
                   cfg: SearchConfig, force_sampling: bool = False) -> CellResult | SkippedCell:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, x, y, z]))
    pairs = list(_seed_pairs(y, z, cfg.samples_per_cell, rng, force_sampling))
    step = max(1, SCREEN_BLOCK // len(ctx.gold_dev))
    blocks = [_screen_cell(pairs[i:i + step], z, pools, ctx) for i in range(0, len(pairs), step)]
    screened = np.concatenate([r for r, _ in blocks])
    unsure = np.concatenate([u for _, u in blocks])
    # flagged cores are all re-scored, and their screened r may be off, so the
    # settle threshold comes from the unflagged ones, whose screened r is exact
    sure = ~np.isnan(screened) & ~unsure
    top = screened[sure].max() if sure.any() else np.inf
    best_r: float | None = None
    best_key: tuple[str, ...] | None = None
    best_core: SemanticCore | None = None
    for i in np.flatnonzero(unsure | (screened >= top - SETTLE_MARGIN)):
        a_idx, c_idx = pairs[i]
        core = SemanticCore(
            seed_abstract=tuple(pools.abstract[j] for j in a_idx),
            seed_concrete=tuple(pools.concrete[j] for j in c_idx),
        )
        r = ctx.evaluate(core)
        if r is None:
            continue
        key = _core_sort_key(core)
        if best_r is None or r > best_r or (r == best_r and key < best_key):
            best_r, best_key, best_core = r, key, core
    if best_core is None:
        return SkippedCell(x=x, y=y, z=z,
                           reason="correlation undefined for every evaluated core")
    return CellResult(x=x, y=y, z=z, best_core=best_core, best_r_s=best_r,
                      cores_evaluated=len(pairs))


def search_grid(lex: RatingLexicon, freq: FrequencyList, store: VectorStore,
                cfg: SearchConfig, workers: int = 1) -> SearchReport:
    """Run the full (X, Y, Z) sweep and return the per-cell and overall best cores.

    Infeasible X values (intersection smaller than X, or no (Y, Z) cell
    within X/3) are skipped with a recorded reason, not fatal. With
    `workers` > 1 cells run in parallel; results are identical and
    identically ordered regardless of worker count.
    """
    t0 = time.perf_counter()
    jobs: list[tuple[int, int, int, CandidatePools, _EvalContext]] = []
    skipped: list[SkippedCell] = []
    full_ctx: _EvalContext | None = None

    for x in cfg.x_values:
        try:
            base = select_base(lex, freq, store, x)
            if cfg.evaluation_scope is EvaluationScope.FULL_LEXICON:
                if full_ctx is None:
                    in_store = [t for t in lex.tokens if t in store]
                    full_ctx = _EvalContext(in_store, [lex.rating(t) for t in in_store], store)
                ctx = full_ctx
            else:
                ctx = _EvalContext(base.tokens, base.ratings, store)
        except (InfeasibleError, DataError) as exc:
            skipped.append(SkippedCell(x=x, y=None, z=None, reason=str(exc)))
            continue
        n_before = len(jobs)
        y_max = base.x // 3
        for y in range(cfg.y_start, y_max + 1, cfg.y_step):
            pools = select_pools(base, y)
            for z in range(cfg.z_min, y + 1, cfg.z_step):
                jobs.append((x, y, z, pools, ctx))
        if len(jobs) == n_before:
            skipped.append(SkippedCell(x=x, y=None, z=None, reason=(
                f"no (Y, Z) cell: X/3 = {y_max}, y_start = {cfg.y_start}, "
                f"z_min = {cfg.z_min}")))
        logger.info("x=%d: %d cell(s) queued", x, len(jobs) - n_before)

    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda j: _evaluate_cell(*j, cfg), jobs))
    else:
        outcomes = [_evaluate_cell(*j, cfg) for j in jobs]

    cells = tuple(o for o in outcomes if isinstance(o, CellResult))
    skipped.extend(o for o in outcomes if isinstance(o, SkippedCell))
    best = max(cells, key=lambda c: c.best_r_s) if cells else None
    report = SearchReport(
        cells=cells,
        skipped=tuple(skipped),
        best_overall=best,
        config=cfg,
        wall_seconds=time.perf_counter() - t0,
    )
    if best is not None:
        logger.info("best r_s=%.4f at (x=%d, y=%d, z=%d) over %d cell(s)",
                    best.best_r_s, best.x, best.y, best.z, len(cells))
    else:
        logger.warning("search produced no feasible cells")
    return report
