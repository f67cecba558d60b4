import json
from math import comb
from unittest import mock

import numpy as np
import pytest

from cadict import search
from cadict.errors import DataError
from cadict.lexicon import FrequencyList, RatingLexicon, select_base, select_pools
from cadict.rater import SemanticCore
from cadict.search import (
    CellResult,
    EvaluationScope,
    SearchConfig,
    SkippedCell,
    _EvalContext,
    _evaluate_cell,
    _screen_cell,
    _seed_pairs,
    search_grid,
)

from conftest import clustered_dataset, store_from_raw, store_from_records
from oracles import evaluate_cell_loop, evaluate_core


def report_fingerprint(report):
    return json.dumps(report.to_dict(include_timing=False), sort_keys=True)


class TestSearchConfig:
    def test_defaults_match_protocol(self):
        cfg = SearchConfig()
        assert cfg.x_values == (500, 1000, 1500, 2000, 2500)
        assert cfg.y_start == 50 and cfg.y_step == 50
        assert cfg.z_min == 10 and cfg.z_step == 20
        assert cfg.samples_per_cell == 100
        assert cfg.evaluation_scope is EvaluationScope.BASE_DICTIONARY

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(x_values=())
        with pytest.raises(ValueError):
            SearchConfig(y_step=0)
        with pytest.raises(ValueError):
            SearchConfig(samples_per_cell=0)
        with pytest.raises(ValueError):
            SearchConfig(rng_seed=-1)
        with pytest.raises(ValueError):
            SearchConfig(x_values=(300, 300))

    def test_scope_coerced_from_string(self):
        cfg = SearchConfig(evaluation_scope="full_lexicon")
        assert cfg.evaluation_scope is EvaluationScope.FULL_LEXICON


class TestSeedPairs:
    def test_exhaustive_when_small(self):
        rng = np.random.default_rng(0)
        pairs = list(_seed_pairs(3, 1, limit=100, rng=rng))
        assert len(pairs) == comb(3, 1) ** 2 == 9
        assert pairs[0] == ((0,), (0,))
        assert pairs == sorted(pairs)  # lexicographic enumeration order

    def test_sampled_when_large(self):
        rng = np.random.default_rng(1)
        pairs = list(_seed_pairs(10, 3, limit=50, rng=rng))
        assert len(pairs) == 50
        assert len(set(pairs)) == 50  # no repeated pair
        for a, c in pairs:
            assert len(a) == len(c) == 3
            assert len(set(a)) == 3 and len(set(c)) == 3
            assert list(a) == sorted(a) and list(c) == sorted(c)

    def test_sampling_deterministic_per_stream(self):
        p1 = list(_seed_pairs(10, 3, 20, np.random.default_rng(99)))
        p2 = list(_seed_pairs(10, 3, 20, np.random.default_rng(99)))
        assert p1 == p2

    def test_forced_sampling_covers_everything(self):
        rng = np.random.default_rng(2)
        pairs = list(_seed_pairs(4, 2, limit=100, rng=rng, force_sampling=True))
        exhaustive = list(_seed_pairs(4, 2, limit=100, rng=rng))
        assert sorted(pairs) == sorted(exhaustive)

    def test_never_exceeds_pair_count(self):
        rng = np.random.default_rng(3)
        pairs = list(_seed_pairs(3, 2, limit=1000, rng=rng))
        assert len(pairs) == comb(3, 2) ** 2


class TestEvaluateCore:
    def test_clustered_store_high_correlation(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        base = select_base(lex, freq, store, 300)
        pools = select_pools(base, 50)
        core = SemanticCore(tuple(pools.abstract[:10]), tuple(pools.concrete[:10]))
        r = evaluate_core(core, base, store)
        assert r >= 0.95

    def test_swapped_core_anticorrelates(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        base = select_base(lex, freq, store, 300)
        pools = select_pools(base, 50)
        core = SemanticCore(tuple(pools.abstract[:10]), tuple(pools.concrete[:10]))
        swapped = SemanticCore(core.seed_concrete, core.seed_abstract)
        assert evaluate_core(swapped, base, store) <= -0.95

    def test_two_word_base_degenerate(self, tmp_path):
        store = store_from_records(tmp_path, [
            ("hot", [1.0, 0.1]), ("cold", [-1.0, 0.1]),
            ("fire", [1.0, 0.0]), ("ice", [-1.0, 0.0]),
        ])
        lex = RatingLexicon({"hot": 4.0, "cold": 2.0})
        freq = FrequencyList({"hot": 2, "cold": 1})
        base = select_base(lex, freq, store, 2)
        core = SemanticCore(("ice",), ("fire",))
        assert evaluate_core(core, base, store) in (-1.0, 1.0)

    def test_oov_core_rejected(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        base = select_base(lex, freq, store, 300)
        core = SemanticCore(("ghost",), ("w0000",))
        with pytest.raises(DataError, match="'ghost'"):
            evaluate_core(core, base, store)


def toy_config(**overrides):
    defaults = dict(x_values=(30,), y_start=9, y_step=1, z_min=2, z_step=3,
                    samples_per_cell=5, rng_seed=7)
    defaults.update(overrides)
    return SearchConfig(**defaults)


class TestSearchGrid:
    def test_toy_grid_fully_populated_and_deterministic(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        cfg = toy_config()
        r1 = search_grid(lex, freq, store, cfg)
        r2 = search_grid(lex, freq, store, cfg)
        # Y in {9, 10}, Z in {2, 5, 8} -> 6 cells
        assert len(r1.cells) == 6
        assert not r1.skipped
        assert report_fingerprint(r1) == report_fingerprint(r2)

    @pytest.mark.parametrize("scope", list(EvaluationScope))
    def test_grid_subset_reproduces_cells(self, tmp_path, scope):
        store, lex, freq = clustered_dataset(tmp_path)
        full = search_grid(lex, freq, store, SearchConfig(
            x_values=(150, 300), rng_seed=42, evaluation_scope=scope))
        part = search_grid(lex, freq, store, SearchConfig(
            x_values=(300,), y_start=100, y_step=50, z_min=30, rng_seed=42,
            evaluation_scope=scope))
        cells = {(c.x, c.y, c.z): c.to_dict() for c in full.cells}
        assert part.cells
        for cell in part.cells:
            assert cell.to_dict() == cells[cell.x, cell.y, cell.z]

    def test_workers_other_than_one_rejected(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        with pytest.raises(ValueError, match="workers"):
            search_grid(lex, freq, store, toy_config(), workers=2)

    def test_clustered_best_meets_bar(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        report = search_grid(lex, freq, store, SearchConfig(x_values=(300,), rng_seed=42))
        assert report.best_overall.best_r_s >= 0.95
        base = select_base(lex, freq, store, 300)
        best = report.best_overall.best_core
        swapped = SemanticCore(best.seed_concrete, best.seed_abstract)
        assert evaluate_core(swapped, base, store) <= -0.95

    def test_best_overall_is_max(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=60, d=6, seed=6)
        report = search_grid(lex, freq, store,
                             toy_config(x_values=(30, 60), samples_per_cell=3))
        assert report.best_overall.best_r_s == max(c.best_r_s for c in report.cells)
        for cell in report.cells:
            assert report.best_overall.best_r_s >= cell.best_r_s

    def test_infeasible_x_skipped_not_fatal(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        report = search_grid(lex, freq, store, toy_config(x_values=(30, 1000)))
        assert len(report.cells) == 6
        assert len(report.skipped) == 1
        skip = report.skipped[0]
        assert skip.x == 1000 and skip.y is None
        assert "only 30" in skip.reason

    def test_x_without_feasible_y_records_reason(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        report = search_grid(lex, freq, store, toy_config(x_values=(3, 30)))
        assert len(report.cells) == 6
        assert report.skipped == (SkippedCell(
            x=3, y=None, z=None, reason="no (Y, Z) cell: X/3 = 1, y_start = 9, z_min = 2"),)

    def test_constant_gold_slice_skipped(self, tmp_path):
        store, _, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        flat = RatingLexicon({t: 3.0 for t in store.tokens})
        report = search_grid(flat, freq, store, toy_config())
        assert not report.cells
        assert report.best_overall is None
        assert report.skipped[0].reason.startswith("evaluation undefined")

    def test_cores_evaluated_bounds(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        report = search_grid(lex, freq, store, toy_config(samples_per_cell=50))
        for cell in report.cells:
            exhaustive = comb(cell.y, cell.z) ** 2
            assert cell.cores_evaluated == min(50, exhaustive)

    def test_best_cores_satisfy_invariants(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        report = search_grid(lex, freq, store, toy_config())
        for cell in report.cells:
            core = cell.best_core
            assert core.z == cell.z
            assert not set(core.seed_abstract) & set(core.seed_concrete)
            core.require_in_store(store)

    def test_full_lexicon_scope(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=40, d=6, seed=8)
        # base is limited to 30 words but the objective runs over all 40
        cfg = toy_config(x_values=(30,), evaluation_scope="full_lexicon")
        report = search_grid(lex, freq, store, cfg)
        assert report.cells
        base_cfg = toy_config(x_values=(30,))
        base_report = search_grid(lex, freq, store, base_cfg)
        assert report_fingerprint(report) != report_fingerprint(base_report)

    def test_landscape_rows(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        report = search_grid(lex, freq, store, toy_config())
        rows = report.landscape_rows()
        assert len(rows) == len(report.cells)
        assert rows[0][:3] == (report.cells[0].x, report.cells[0].y, report.cells[0].z)

    def test_z_sweep_peaks_interior_on_clustered_store(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        report = search_grid(lex, freq, store, SearchConfig(x_values=(300,), rng_seed=42))
        sweep = sorted((c for c in report.cells if c.y == 100), key=lambda c: c.z)
        assert len(sweep) == 5  # Z in {10, 30, 50, 70, 90}
        scores = [c.best_r_s for c in sweep]
        best_idx = scores.index(max(scores))
        assert 0 < best_idx < len(sweep) - 1  # rises, then plateaus or declines


class TestExhaustiveSampledAgreement:
    def test_same_best_core_both_modes(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=9)
        base = select_base(lex, freq, store, 30)
        pools = select_pools(base, 4)
        ctx = _EvalContext(base.tokens, base.ratings, store)
        cfg = toy_config(samples_per_cell=comb(4, 2) ** 2)  # 36 >= all pairs
        exhaustive = _evaluate_cell(30, 4, 2, pools, ctx, cfg)
        sampled = _evaluate_cell(30, 4, 2, pools, ctx, cfg, force_sampling=True)
        assert isinstance(exhaustive, CellResult) and isinstance(sampled, CellResult)
        assert exhaustive.cores_evaluated == sampled.cores_evaluated == 36
        assert exhaustive.best_core == sampled.best_core
        assert exhaustive.best_r_s == sampled.best_r_s


class TestTieBreak:
    def test_equal_scores_pick_lexicographically_smallest(self, tmp_path):
        # three identical abstract candidates and three identical concrete ones:
        # every core predicts identically, so the tie-break decides
        records = (
            [(t, [-1.0, 0.0, 0.05]) for t in ("am", "ab", "az")]
            + [(t, [1.0, 0.0, 0.05]) for t in ("cm", "cb", "cz")]
            + [("m1", [0.3, 1.0, 0.0]), ("m2", [-0.2, 1.0, 0.1]), ("m3", [0.1, -1.0, 0.2])]
        )
        store = store_from_records(tmp_path, records)
        ratings = {"am": 1.0, "ab": 1.1, "az": 1.2, "cm": 4.8, "cb": 4.9, "cz": 5.0,
                   "m1": 3.1, "m2": 2.9, "m3": 3.0}
        lex = RatingLexicon(ratings)
        freq = FrequencyList({t: 10 for t in ratings})
        cfg = SearchConfig(x_values=(9,), y_start=3, y_step=1, z_min=1, z_step=1,
                           samples_per_cell=100, rng_seed=0)
        report = search_grid(lex, freq, store, cfg)
        z1 = [c for c in report.cells if c.z == 1][0]
        assert z1.cores_evaluated == 9
        assert z1.best_core.seed_abstract == ("ab",)
        assert z1.best_core.seed_concrete == ("cb",)


def _assert_unflagged_screen_exact(pairs, z, pools, ctx):
    screened, unsure = _screen_cell(pairs, z, pools, ctx)
    for (a_idx, c_idx), r, flagged in zip(pairs, screened, unsure):
        if flagged:
            continue
        core = SemanticCore(tuple(pools.abstract[i] for i in a_idx),
                            tuple(pools.concrete[i] for i in c_idx))
        exact = ctx.evaluate(core)
        assert (np.isnan(exact) and np.isnan(r)) or exact == r


class TestBatchedKernelOracle:
    """The batched cell against the per-core loop it replaced."""

    def test_unflagged_screen_scores_are_exact_on_integer_palettes(self):
        # duplicate rows of small-integer directions: the batched product may
        # round them apart where the per-core product does not
        rng = np.random.default_rng(17)
        for _ in range(60):
            n, d = rng.integers(6, 13), rng.integers(2, 5)
            palette = rng.integers(-2, 3, size=(rng.integers(1, n + 1), d))
            palette = palette[np.any(palette != 0, axis=1)]
            if not len(palette):
                continue
            tokens = [f"w{i:02d}" for i in range(n)]
            store = store_from_raw(tokens, palette[rng.integers(0, len(palette), n)])
            ratings = rng.choice([1.0, 2.0, 3.0, 4.5, 5.0], n)
            if np.all(ratings == ratings[0]):
                continue
            base = select_base(RatingLexicon(dict(zip(tokens, ratings))),
                               FrequencyList({t: 1 for t in tokens}), store, n)
            ctx = _EvalContext(base.tokens, base.ratings, store)
            y = int(rng.integers(1, n // 3 + 1))
            z = int(rng.integers(1, y + 1))
            pairs = list(_seed_pairs(y, z, 10, rng))
            _assert_unflagged_screen_exact(pairs, z, select_pools(base, y), ctx)

    def test_tie_free_cell_needs_no_exact_re_score(self, tmp_path):
        # no core is flagged on a tie-free store, so the screen alone decides
        store, lex, freq = clustered_dataset(tmp_path)
        base = select_base(lex, freq, store, 300)
        ctx = _EvalContext(base.tokens, base.ratings, store)
        pools = select_pools(base, 100)
        cfg = toy_config(samples_per_cell=100)
        with mock.patch.object(search, "raw_ratings", wraps=search.raw_ratings) as spy:
            cell = _evaluate_cell(300, 100, 10, pools, ctx, cfg)
        assert spy.call_count == 0
        assert cell == evaluate_cell_loop(300, 100, 10, pools, ctx, cfg)

    def test_inflated_flagged_core_does_not_hide_the_best(self, tmp_path):
        # a flagged core's screened r is not trusted: one that screens far above
        # its exact r must not push the best unflagged core out of the settle
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        base = select_base(lex, freq, store, 30)
        ctx = _EvalContext(base.tokens, base.ratings, store)
        pools = select_pools(base, 9)
        cfg = toy_config(samples_per_cell=20)

        def inflated_screen(pairs, z, pools, ctx):
            exact = np.array([ctx.evaluate(SemanticCore(
                tuple(pools.abstract[i] for i in a_idx),
                tuple(pools.concrete[i] for i in c_idx))) for a_idx, c_idx in pairs],
                dtype=float)
            assert np.nanmax(exact) < 1.0 and np.nanmin(exact) < np.nanmax(exact)
            unsure = np.zeros(len(pairs), dtype=bool)
            worst = np.nanargmin(exact)
            unsure[worst], exact[worst] = True, 1.0
            return exact, unsure

        with mock.patch.object(search, "_screen_cell", inflated_screen):
            cell = _evaluate_cell(30, 9, 2, pools, ctx, cfg)
        assert cell == evaluate_cell_loop(30, 9, 2, pools, ctx, cfg)

    def test_screen_blocks_do_not_change_cells(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=60, d=6, seed=6)
        cfg = toy_config(x_values=(60,), y_start=5, y_step=5, samples_per_cell=30)
        whole = search_grid(lex, freq, store, cfg)
        with mock.patch.object(search, "SCREEN_BLOCK", 7 * 60):  # 7 cores per block
            blocked = search_grid(lex, freq, store, cfg)
        assert report_fingerprint(whole) == report_fingerprint(blocked)

    def test_every_core_undefined_is_skipped(self):
        # one shared direction: every core rates every word identically
        tokens = [f"w{i}" for i in range(9)]
        store = store_from_raw(tokens, [[1.0, 2.0]] * 9)
        lex = RatingLexicon({t: 1.0 + i / 2 for i, t in enumerate(tokens)})
        freq = FrequencyList({t: 1 for t in tokens})
        base = select_base(lex, freq, store, 9)
        ctx = _EvalContext(base.tokens, base.ratings, store)
        cfg = toy_config(samples_per_cell=4)
        cell = _evaluate_cell(9, 3, 2, select_pools(base, 3), ctx, cfg)
        assert cell == evaluate_cell_loop(9, 3, 2, select_pools(base, 3), ctx, cfg)
        assert isinstance(cell, SkippedCell)
        assert cell.reason == "correlation undefined for every evaluated core"
