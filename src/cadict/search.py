"""Brute-force search for the best semantic core over the (X, Y, Z) grid.

For each base-dictionary size X, candidate-pool size Y (50-step up to X/3),
and seed size Z (20-step from 10 up to Y), the search draws abstract/concrete
seed pairs uniformly without repetition, scores each core by Spearman
correlation between its ratings and the expert ratings, and keeps the best
core per cell.

Words travel through the search as vector-store rows, resolved once per base
by `select_base`; tokens come back only to name a flagged or tied-best core.
A batched screen rates all of a cell's cores with one matrix product and
sorts each core's ratings. In that order an untied core's ranks are fixed
weights, so its r is one exact integer dot of the gold ranks read in that
order; the cores that tie take theirs from their tie runs (`metrics.tie_ranks`)
and `metrics.rank_correlation`, all at once. A flagged core (one whose
screened ranks could differ from the exact ones) is re-scored through the
exact path (`raw_ratings`, then the same ranks and correlation); any other
core has that path's ranks already, so every r_s is that path's.

Reproducibility contract: every cell draws from its own RNG stream keyed by
(rng_seed, X, Y, Z), and the best-core reduction breaks score ties by the
lexicographically smallest sorted core, so reports are bit-identical across
reruns and grid subsets.
"""

from __future__ import annotations

import logging
import reprlib
import time
from dataclasses import dataclass
from math import comb, prod

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

# the screen works on blocks of cores of at most this many (core, word)
# ratings, so its arrays stay near 16 MB each however many words are scored
SCREEN_BLOCK = 1 << 21


@dataclass(frozen=True)
class SearchConfig:
    x_values: tuple[int, ...] = (500, 1000, 1500, 2000, 2500)
    y_start: int = 50
    y_step: int = 50
    z_min: int = 10
    z_step: int = 20
    samples_per_cell: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        values = self.x_values
        if not isinstance(values, str):  # a string iterates, but as characters
            try:
                values = tuple(values)
            except TypeError:  # not iterable: refused below as given
                pass
        # the one check of every search option; the CLI reports a refusal as a usage error
        if (not isinstance(values, tuple) or not values or not all(map(_is_int, values))
                or min(values) < 1 or len(set(values)) != len(values)):
            raise ValueError("x_values must be distinct positive integers, "
                             f"got {reprlib.repr(values)}")  # a long range abbreviated
        object.__setattr__(self, "x_values", values)
        for name in ("y_start", "y_step", "z_min", "z_step", "samples_per_cell", "rng_seed"):
            value = getattr(self, name)
            low = 0 if name == "rng_seed" else 1
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    def to_dict(self) -> dict:
        # the one objective's name, kept as the last key so that reports,
        # cores and manifests keep their bytes; dropping it changes the format
        return {**vars(self), "evaluation_scope": "base_dictionary"}


def _is_int(value) -> bool:
    # bool subclasses int, but True is no grid size or seed
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CellResult:
    x: int
    y: int
    z: int
    best_r_s: float
    cores_evaluated: int
    best_core: SemanticCore

    def to_dict(self) -> dict:
        # shallow: every value is immutable, so nothing needs copying
        return {**vars(self), "best_core": dict(vars(self.best_core))}


@dataclass(frozen=True)
class SkippedCell:
    """A grid point (or whole X slice, when y and z are None) that could not run."""

    x: int
    y: int | None
    z: int | None
    reason: str

    def to_dict(self) -> dict:
        return dict(vars(self))


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


class _EvalContext:
    """One X's base dictionary as the search scores it: its vectors and centred gold ranks."""

    def __init__(self, base: BaseDictionary, store: VectorStore):
        if len(base.rows) < 2:
            raise DataError("evaluation needs at least 2 words")
        if np.all(base.ratings == base.ratings[0]):
            raise DataError("evaluation undefined: constant gold ratings")
        self.store = store
        self.matrix = store.matrix[base.rows]
        self.gold = metrics.centred_ranks(base.ratings)
        # an untied core's centred ranks, read in its ascending order, are the
        # weights 2p + 1 - n: its r needs only the gold ones gathered in that order
        self.weights = metrics.tie_ranks(np.zeros(len(self.gold) - 1, dtype=bool))
        self.denominator = np.sqrt(metrics.exact_dot(self.weights, self.weights)
                                   * metrics.exact_dot(self.gold, self.gold))

    def evaluate(self, core: SemanticCore) -> float:
        """Spearman of the core's raw ratings against gold; NaN when undefined."""
        raw, _ = raw_ratings(self.matrix, core, self.store)
        return float(metrics.rank_correlation(metrics.centred_ranks(raw), self.gold))


def _seed_pairs(y: int, z: int, limit: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw k = min(limit, C(y, z)^2) distinct (abstract, concrete) index pairs
    over pools of size y, uniformly without pair repetition from `rng`.

    Returns two (k, z) integer arrays with sorted rows, the halves of one
    (k, 2, z) array; row i of each is pair i. A cell whose budget covers every
    pair draws each pair once. An array that cannot be allocated is an
    InfeasibleError naming k and z.
    """
    k = min(limit, comb(y, z) ** 2)
    try:
        pairs = np.empty((k, 2, z), dtype=np.int64)
    except (MemoryError, ValueError) as exc:  # numpy's "array is too big" is a ValueError
        msg = f"seed draws too large to allocate: k = {k} pairs of z = {z}"
        raise InfeasibleError(msg) from exc
    seen: set[bytes] = set()
    while len(seen) < k:
        pair = pairs[len(seen)]  # a repeated draw is overwritten by the next
        pair[0] = rng.choice(y, size=z, replace=False)
        pair[1] = rng.choice(y, size=z, replace=False)
        pair.sort(axis=1)
        seen.add(pair.tobytes())
    return pairs[:, 0], pairs[:, 1]


def _pair_core(a_idx: np.ndarray, c_idx: np.ndarray, pools: CandidatePools,
               store: VectorStore) -> SemanticCore:
    return SemanticCore(seed_abstract=tuple(store.tokens[r] for r in pools.abstract[a_idx]),
                        seed_concrete=tuple(store.tokens[r] for r in pools.concrete[c_idx]))


def _core_sort_key(core: SemanticCore) -> tuple[str, ...]:
    # total order: both halves have length z, so the concatenation is unique
    return tuple(sorted(core.seed_abstract)) + tuple(sorted(core.seed_concrete))


class _Workspace:
    """The arrays `_screen_cell` fills, kept from block to block by name as flat
    buffers. One search passes one workspace to every block, so each buffer
    grows to the search's largest block and is reused by every other."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def view(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The head of buffer `name` as a C-contiguous array of `shape`; its
        values are whatever the last block left there."""
        size = prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _screen_cell(a_idx: np.ndarray, c_idx: np.ndarray, pools: CandidatePools,
                 ctx: _EvalContext, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Screened Spearman r of every core (row pair of `a_idx`, `c_idx`) in a
    cell (NaN when undefined) and a mask of the cores whose screened ranks may
    differ from the exact path's.

    The screen forms the seed means with 0/1 selection matrices and all
    similarities with one product, so its sums run in another order than
    `raw_ratings`. Each raw rating therefore carries an error bound; a core
    whose sorted ratings have two neighbours closer than their bounds allow
    is flagged. Every other core has exactly the exact path's ranks, and so
    exactly its r. Every array of the block's size is a view of `ws`, filled
    with ``out=``, but the sort order.
    """
    (k, z), y = a_idx.shape, len(pools.abstract)
    n, d = ctx.matrix.shape
    rows = np.arange(k)[:, None]
    means = ws.view("means", (2 * k, d))
    for half, idx, pool in ((means[:k], c_idx, pools.concrete),
                            (means[k:], a_idx, pools.abstract)):
        sel = ws.view("sel", (k, y))
        sel.fill(0.0)
        sel[rows, idx] = 1.0
        # mode="clip" writes straight into `out`; "raise" would buffer a copy of it
        vectors = np.take(ctx.store.matrix, pool, axis=0, out=ws.view("pool", (y, d)),
                          mode="clip")
        np.matmul(sel, vectors, out=half)
    means /= z
    sims = np.matmul(means, ctx.matrix.T, out=ws.view("sims", (2 * k, n)))

    # Each path gets a similarity within (d + y + 1) * eps / 2 of its true
    # value (unit rows, d components, means over at most y rows), so the two
    # paths differ by at most delta / 2. A similarity more than delta below
    # the floor is floored on both paths and adds no error; any other adds at
    # most 2 * delta relative to its floored value, with room to spare for
    # rounding the ratio.
    delta = 4 * (d + y) * np.finfo(np.float64).eps
    live = np.greater(sims, SIMILARITY_FLOOR - delta, out=ws.view("live", (2 * k, n), bool))
    num, den = np.clip(sims, SIMILARITY_FLOOR, 1.0, out=sims)[:k], sims[k:]
    raw = np.divide(num, den, out=ws.view("raw", (k, n)))
    rel = np.divide(live[:k], num, out=num)  # num and den are spent: num takes the bound
    rel += np.divide(live[k:], den, out=den)
    rel *= 2 * delta
    bound = np.multiply(raw, rel, out=rel)

    # an untied core's r: its centred ranks in ascending order are the weights
    order = np.argsort(raw, axis=1)
    gold = np.take(ctx.gold, order, out=ws.view("gold", (k, n), np.int64), mode="clip")
    r = np.clip(metrics.exact_dot(gold, ctx.weights) / ctx.denominator, -1.0, 1.0)
    # the order as indices into the flattened (k, n) arrays. Each spent buffer
    # takes the next array: den the sorted ratings and then their sorted
    # bounds, raw the gaps, num (the head of sims) the slack
    order += rows * n
    ordered = np.take(raw, order, out=den, mode="clip")
    gaps = np.subtract(ordered[:, 1:], ordered[:, :-1], out=ws.view("raw", (k, n - 1)))
    err = np.take(bound, order, out=den, mode="clip")
    slack = np.add(err[:, 1:], err[:, :-1], out=ws.view("sims", (k, n - 1)))
    close = np.less_equal(gaps, slack, out=ws.view("close", (k, n - 1), bool))
    close &= np.greater(slack, 0.0, out=live[:k, :n - 1])
    unsure = np.any(close, axis=1)

    # the tied, unflagged cores' ranks come from their tie runs; their rows of
    # the mask, the ranks and their gathered gold take live, sims and raw
    tied = np.flatnonzero(np.any(np.equal(gaps, 0.0, out=close), axis=1) & ~unsure)
    if tied.size:
        m = len(tied)
        equal = np.take(close, tied, axis=0, out=ws.view("live", (m, n - 1), bool), mode="clip")
        ranks = metrics.tie_ranks(equal, out=ws.view("sims", (2, m, n)).view(np.int64))
        gold = np.take(gold, tied, axis=0, out=ws.view("raw", (m, n)).view(np.int64), mode="clip")
        r[tied] = metrics.rank_correlation(ranks, gold)
    return r, unsure


def _evaluate_cell(x: int, y: int, z: int, pools: CandidatePools, ctx: _EvalContext,
                   cfg: SearchConfig, ws: _Workspace) -> CellResult | SkippedCell:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, x, y, z]))
    try:
        a_idx, c_idx = _seed_pairs(y, z, cfg.samples_per_cell, rng)
    except InfeasibleError as exc:  # a --samples budget too large to hold
        return SkippedCell(x=x, y=y, z=z, reason=str(exc))
    step = max(1, SCREEN_BLOCK // len(ctx.gold))
    blocks = [_screen_cell(a_idx[i:i + step], c_idx[i:i + step], pools, ctx, ws)
              for i in range(0, len(a_idx), step)]
    r = np.concatenate([screened for screened, _ in blocks])
    # only a flagged core's screened ranks may differ from the exact path's
    for i in np.flatnonzero(np.concatenate([unsure for _, unsure in blocks])):
        r[i] = ctx.evaluate(_pair_core(a_idx[i], c_idx[i], pools, ctx.store))
    if np.all(np.isnan(r)):
        return SkippedCell(x=x, y=y, z=z,
                           reason="correlation undefined for every evaluated core")
    top = np.nanmax(r)
    best_core = min((_pair_core(a_idx[i], c_idx[i], pools, ctx.store)
                     for i in np.flatnonzero(r == top)), key=_core_sort_key)
    return CellResult(x=x, y=y, z=z, best_core=best_core, best_r_s=float(top),
                      cores_evaluated=len(a_idx))


def search_grid(lex: RatingLexicon, freq: FrequencyList, store: VectorStore,
                cfg: SearchConfig, workers: int = 1) -> SearchReport:
    """Run the full (X, Y, Z) sweep and return the per-cell and overall best cores.

    Infeasible X values (intersection smaller than X, or no (Y, Z) cell
    within X/3) are skipped with a recorded reason, not fatal. Cells run one
    at a time in job order; the BLAS library parallelises each cell's products.
    """
    # kept only for callers that still pass workers=1 (perfbench/work.py)
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    t0 = time.perf_counter()
    jobs: list[tuple[int, int, int, CandidatePools, _EvalContext]] = []
    skipped: list[SkippedCell] = []

    for x in cfg.x_values:
        try:
            base = select_base(lex, freq, store, x)
            ctx = _EvalContext(base, store)
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

    outcomes: list[CellResult | SkippedCell] = []
    ws = _Workspace()
    t_cells, every = time.perf_counter(), max(1, len(jobs) // 10)
    for done, job in enumerate(jobs, start=1):
        outcomes.append(_evaluate_cell(*job, cfg, ws))
        if done % every == 0 or done == len(jobs):
            elapsed = time.perf_counter() - t_cells
            logger.info("%d/%d cells, %.1f s elapsed, ETA %.1f s",
                        done, len(jobs), elapsed, elapsed / done * (len(jobs) - done))

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
