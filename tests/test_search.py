import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cadict import search
from cadict.embeddings import VectorStore
from cadict.errors import DataError
from cadict.lexicon import FrequencyList, RatingLexicon, select_base, select_pools
from cadict.rater import SemanticCore
from cadict.search import (
    CellResult,
    SearchConfig,
    SkippedCell,
    _EvalContext,
    _Workspace,
    _evaluate_cell,
    _screen_cell,
    _seed_pairs,
    search_grid,
)

from conftest import clustered_dataset, store_from_raw, store_from_records
from oracles import evaluate_cell_loop, evaluate_core, every_pair_cell, spearman_exact, tokens_of


def report_fingerprint(report):
    return json.dumps(report.to_dict(include_timing=False), sort_keys=True)


class TestSearchConfig:
    def test_defaults_match_protocol(self):
        cfg = SearchConfig()
        assert cfg.x_values == (500, 1000, 1500, 2000, 2500)
        assert cfg.y_start == 50 and cfg.y_step == 50
        assert cfg.z_min == 10 and cfg.z_step == 20
        assert cfg.samples_per_cell == 100

    def test_validation(self):
        # each refusal names the field and the value it got
        for kwargs, message in [
            ({"x_values": ()}, r"x_values must be distinct positive integers, got \(\)"),
            ({"x_values": (300, 0)}, r"x_values .* got \(300, 0\)"),
            ({"x_values": (300, 300)}, r"x_values .* got \(300, 300\)"),
            ({"y_start": 0}, "y_start must be >= 1, got 0"),
            ({"y_step": 0}, "y_step must be >= 1, got 0"),
            ({"z_min": 0}, "z_min must be >= 1, got 0"),
            ({"z_step": -1}, "z_step must be >= 1, got -1"),
            ({"samples_per_cell": 0}, "samples_per_cell must be >= 1, got 0"),
            ({"rng_seed": -1}, "rng_seed must be >= 0, got -1"),
            # a value that is not an int (bool included) is refused, never coerced
            ({"x_values": (1.9, 2.5)}, r"x_values .* got \(1\.9, 2\.5\)"),
            ({"x_values": (300, True)}, r"x_values .* got \(300, True\)"),
            ({"x_values": ("300",)}, r"x_values .* got \('300',\)"),
            ({"y_start": 1.5}, "y_start must be an integer, got 1.5"),
            ({"y_start": "3"}, "y_start must be an integer, got '3'"),
            ({"samples_per_cell": 2.5}, "samples_per_cell must be an integer, got 2.5"),
            ({"z_step": 2.0}, "z_step must be an integer, got 2.0"),
            ({"rng_seed": True}, "rng_seed must be an integer, got True"),
            ({"y_step": None}, "y_step must be an integer, got None"),
            # a value that `tuple` cannot iterate, or a string, is shown as given
            ({"x_values": 5}, "x_values must be distinct positive integers, got 5$"),
            ({"x_values": "500"}, "x_values must be distinct positive integers, got '500'$"),
            ({"x_values": None}, "x_values must be distinct positive integers, got None$"),
        ]:
            with pytest.raises(ValueError, match=message):
                SearchConfig(**kwargs)

    def test_to_dict_echoes_the_one_objective_last(self):
        cfg = SearchConfig(x_values=(30, 60), rng_seed=3)
        doc = cfg.to_dict()
        assert list(doc) == [*vars(cfg), "evaluation_scope"]
        assert doc["evaluation_scope"] == "base_dictionary"
        assert "evaluation_scope" not in vars(cfg)  # the echo is no option

    def test_evaluation_scope_is_not_an_option(self):
        # an old caller that still picks a scope fails loudly, never silently
        with pytest.raises(TypeError, match="evaluation_scope"):
            SearchConfig(evaluation_scope="full_lexicon")
        assert not hasattr(search, "EvaluationScope")


class TestSeedPairs:
    @pytest.mark.parametrize("y, z", [(3, 1), (4, 2), (5, 2), (3, 2)])
    def test_small_cell_draws_every_pair_once(self, y, z):
        a_idx, c_idx = _seed_pairs(y, z, limit=1000, rng=np.random.default_rng(0))
        pairs = [(tuple(a), tuple(c)) for a, c in zip(a_idx.tolist(), c_idx.tolist())]
        every = set(itertools.product(itertools.combinations(range(y), z), repeat=2))
        assert len(pairs) == len(every) == comb(y, z) ** 2
        assert set(pairs) == every

    def test_sampled_when_large(self):
        a_idx, c_idx = _seed_pairs(10, 3, limit=50, rng=np.random.default_rng(1))
        assert a_idx.shape == c_idx.shape == (50, 3)
        assert len({a.tobytes() + c.tobytes() for a, c in zip(a_idx, c_idx)}) == 50
        for half in (a_idx, c_idx):
            assert np.all(np.diff(half, axis=1) > 0)  # sorted, no repeated index
            assert half.min() >= 0 and half.max() < 10

    def test_sampling_deterministic_per_stream(self):
        a1, c1 = _seed_pairs(10, 3, 20, np.random.default_rng(99))
        a2, c2 = _seed_pairs(10, 3, 20, np.random.default_rng(99))
        assert np.array_equal(a1, a2) and np.array_equal(c1, c2)

    def test_rng_stream_is_frozen(self):
        # reports are byte-identical across versions only while a cell's draws are
        a_idx, c_idx = _seed_pairs(50, 10, 100, np.random.default_rng(
            np.random.SeedSequence([1, 1000, 50, 10])))
        pairs = np.stack((a_idx, c_idx), axis=1).astype(np.int64)
        assert pairs.shape == (100, 2, 10)
        assert pairs[0].tolist() == [[12, 13, 20, 23, 28, 30, 38, 44, 47, 49],
                                     [0, 3, 12, 15, 17, 23, 27, 28, 37, 46]]
        assert pairs[-1].tolist() == [[0, 1, 5, 8, 10, 24, 30, 36, 43, 46],
                                      [0, 1, 7, 19, 27, 29, 31, 32, 39, 45]]
        assert hashlib.sha256(pairs.tobytes()).hexdigest() == \
            "b3dd1418e19a0bb99607e7d55173a3b101555976482443c263b28012a4efcdb4"


class TestEvaluateCore:
    def test_clustered_store_high_correlation(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        base = select_base(lex, freq, store, 300)
        pools = select_pools(base, 50)
        core = SemanticCore(tokens_of(store.tokens, pools.abstract[:10]),
                            tokens_of(store.tokens, pools.concrete[:10]))
        r = evaluate_core(core, base, store)
        assert r >= 0.95

    def test_swapped_core_anticorrelates(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        base = select_base(lex, freq, store, 300)
        pools = select_pools(base, 50)
        core = SemanticCore(tokens_of(store.tokens, pools.abstract[:10]),
                            tokens_of(store.tokens, pools.concrete[:10]))
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

    def test_one_word_base_rejected(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=6, d=3)
        with pytest.raises(DataError, match="evaluation needs at least 2 words"):
            _EvalContext(select_base(lex, freq, store, 1), store)

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

    def test_grid_subset_reproduces_cells(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        full = search_grid(lex, freq, store, SearchConfig(x_values=(150, 300), rng_seed=42))
        part = search_grid(lex, freq, store, SearchConfig(
            x_values=(300,), y_start=100, y_step=50, z_min=30, rng_seed=42))
        cells = {(c.x, c.y, c.z): c.to_dict() for c in full.cells}
        assert part.cells
        for cell in part.cells:
            assert cell.to_dict() == cells[cell.x, cell.y, cell.z]

    def test_each_x_is_searched_alone(self, tmp_path):
        # no context is shared across X: a slice is the same alone or in a grid
        store, lex, freq = clustered_dataset(tmp_path, n_words=60, d=6, seed=6)
        both = search_grid(lex, freq, store, toy_config(x_values=(30, 60)))
        alone = [c.to_dict() for x in (30, 60)
                 for c in search_grid(lex, freq, store, toy_config(x_values=(x,))).cells]
        assert [c.to_dict() for c in both.cells] == alone

    def test_best_r_s_is_scored_on_its_own_base(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=60, d=6, seed=6)
        report = search_grid(lex, freq, store, toy_config(x_values=(30, 60)))
        assert {c.x for c in report.cells} == {30, 60}
        for cell in report.cells:
            base = select_base(lex, freq, store, cell.x)
            assert cell.best_r_s == evaluate_core(cell.best_core, base, store)

    def test_ratings_outside_the_base_do_not_change_cells(self, tmp_path):
        # the objective reads only the base: the 10 rarest of 40 words, out of
        # the X = 30 base, may carry any rating without moving a cell
        store, lex, freq = clustered_dataset(tmp_path, n_words=40, d=6, seed=8)
        outside = [t for t in lex.tokens if freq.count(t) <= 10]
        assert len(outside) == 10
        flipped = RatingLexicon({t: 6.0 - lex.rating(t) if t in outside else lex.rating(t)
                                 for t in lex.tokens})
        cfg = toy_config(x_values=(30,))
        assert report_fingerprint(search_grid(flipped, freq, store, cfg)) == \
            report_fingerprint(search_grid(lex, freq, store, cfg))

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
            pair_count = comb(cell.y, cell.z) ** 2
            assert cell.cores_evaluated == min(50, pair_count)

    def test_best_cores_satisfy_invariants(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        report = search_grid(lex, freq, store, toy_config())
        for cell in report.cells:
            core = cell.best_core
            assert core.z == cell.z
            assert not set(core.seed_abstract) & set(core.seed_concrete)
            assert all(t in store for t in core.seed_abstract + core.seed_concrete)

    def test_tie_free_grid_resolves_no_tokens(self, tmp_path):
        # cells work on store rows; only a flagged core's seeds go through rows()
        store, lex, freq = clustered_dataset(tmp_path)
        with mock.patch.object(VectorStore, "rows", autospec=True,
                               side_effect=VectorStore.rows) as spy:
            report = search_grid(lex, freq, store, SearchConfig(x_values=(300,), rng_seed=42))
        assert len(report.cells) == 8
        assert spy.call_count == 0

    def test_z_sweep_peaks_interior_on_clustered_store(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path)
        report = search_grid(lex, freq, store, SearchConfig(x_values=(300,), rng_seed=42))
        sweep = sorted((c for c in report.cells if c.y == 100), key=lambda c: c.z)
        assert len(sweep) == 5  # Z in {10, 30, 50, 70, 90}
        scores = [c.best_r_s for c in sweep]
        best_idx = scores.index(max(scores))
        assert 0 < best_idx < len(sweep) - 1  # rises, then plateaus or declines


class TestSmallCellsCoverEveryPair:
    def test_same_best_core_as_every_pair(self, tmp_path):
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=9)
        base = select_base(lex, freq, store, 30)
        pools = select_pools(base, 4)
        ctx = _EvalContext(base, store)
        cfg = toy_config(samples_per_cell=100)  # >= the 36 pairs
        cell = _evaluate_cell(30, 4, 2, pools, ctx, cfg, _Workspace())
        assert isinstance(cell, CellResult) and cell.cores_evaluated == 36
        assert cell == every_pair_cell(30, 4, 2, pools, ctx)


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


def _assert_unflagged_screen_exact(a_pairs, c_pairs, pools, base, store):
    """Every unflagged core screens to the exact path's r, and to the r of
    counting-based ranks summed as Python ints (`oracles.spearman_exact`)."""
    ctx = _EvalContext(base, store)
    screened, unsure = _screen_cell(a_pairs, c_pairs, pools, ctx, _Workspace())
    for a_idx, c_idx, r, flagged in zip(a_pairs, c_pairs, screened, unsure):
        if flagged:
            continue
        core = SemanticCore(tokens_of(store.tokens, pools.abstract[a_idx]),
                            tokens_of(store.tokens, pools.concrete[c_idx]))
        exact = ctx.evaluate(core)
        assert (np.isnan(exact) and np.isnan(r)) or exact == r
        raw, _ = search.raw_ratings(ctx.matrix, core, store)
        oracle = spearman_exact(raw.tolist(), base.ratings.tolist())
        assert (np.isnan(oracle) and np.isnan(r)) or oracle == r


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
            y = int(rng.integers(1, n // 3 + 1))
            z = int(rng.integers(1, y + 1))
            _assert_unflagged_screen_exact(*_seed_pairs(y, z, 10, rng), select_pools(base, y),
                                           base, store)

    def test_unflagged_tied_cores_score_with_average_ranks(self):
        # the pools lie near +e1 (abstract) and +e2 (concrete), six base words
        # near -e1 - e2: both similarities of each of the six are floored on
        # both paths, so every core rates them exactly 1.0 with a zero bound.
        # The cores tie without a flag, and only average ranks give their r.
        vectors = ([[1.0, 0.2 + 0.1 * i, 0.1] for i in range(4)]
                   + [[0.2 + 0.1 * i, 1.0, 0.1] for i in range(4)]
                   + [[-1.0, -1.0, 0.2 * i - 0.5] for i in range(6)])
        ratings = [1.0, 1.25, 1.5, 1.75, 4.25, 4.5, 4.75, 5.0, 2.0, 2.5, 3.0, 3.25, 3.5, 4.0]
        tokens = [f"w{i:02d}" for i in range(14)]
        store = store_from_raw(tokens, vectors)
        base = select_base(RatingLexicon(dict(zip(tokens, ratings))),
                           FrequencyList({t: 1 for t in tokens}), store, 14)
        ctx, pools = _EvalContext(base, store), select_pools(base, 4)
        pairs = _seed_pairs(4, 2, 20, np.random.default_rng(0))
        _, unsure = _screen_cell(*pairs, pools, ctx, _Workspace())
        assert not unsure.any()
        for a_idx, c_idx in zip(*pairs):
            core = SemanticCore(tokens_of(tokens, pools.abstract[a_idx]),
                                tokens_of(tokens, pools.concrete[c_idx]))
            raw, _ = search.raw_ratings(ctx.matrix, core, store)
            assert np.count_nonzero(raw == 1.0) == 6
        _assert_unflagged_screen_exact(*pairs, pools, base, store)

    def test_tie_free_cell_needs_no_exact_re_score(self, tmp_path):
        # no core is flagged on a tie-free store, so the screen alone decides
        store, lex, freq = clustered_dataset(tmp_path)
        base = select_base(lex, freq, store, 300)
        ctx = _EvalContext(base, store)
        pools = select_pools(base, 100)
        cfg = toy_config(samples_per_cell=100)
        with mock.patch.object(search, "raw_ratings", wraps=search.raw_ratings) as spy:
            cell = _evaluate_cell(300, 100, 10, pools, ctx, cfg, _Workspace())
        assert spy.call_count == 0
        assert cell == evaluate_cell_loop(300, 100, 10, pools, ctx, cfg)

    def test_inflated_flagged_core_does_not_hide_the_best(self, tmp_path):
        # a flagged core's screened r is not trusted: one that screens far above
        # its exact r must not push the best unflagged core out of the settle
        store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=5)
        base = select_base(lex, freq, store, 30)
        ctx = _EvalContext(base, store)
        pools = select_pools(base, 9)
        cfg = toy_config(samples_per_cell=20)

        def inflated_screen(a_pairs, c_pairs, pools, ctx, ws):
            exact = np.array([ctx.evaluate(SemanticCore(
                tokens_of(ctx.store.tokens, pools.abstract[a_idx]),
                tokens_of(ctx.store.tokens, pools.concrete[c_idx])))
                for a_idx, c_idx in zip(a_pairs, c_pairs)], dtype=float)
            assert np.nanmax(exact) < 1.0 and np.nanmin(exact) < np.nanmax(exact)
            unsure = np.zeros(len(a_pairs), dtype=bool)
            worst = np.nanargmin(exact)
            unsure[worst], exact[worst] = True, 1.0
            return exact, unsure

        with mock.patch.object(search, "_screen_cell", inflated_screen):
            cell = _evaluate_cell(30, 9, 2, pools, ctx, cfg, _Workspace())
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
        ctx = _EvalContext(base, store)
        cfg = toy_config(samples_per_cell=4)
        cell = _evaluate_cell(9, 3, 2, select_pools(base, 3), ctx, cfg, _Workspace())
        assert cell == evaluate_cell_loop(9, 3, 2, select_pools(base, 3), ctx, cfg)
        assert isinstance(cell, SkippedCell)
        assert cell.reason == "correlation undefined for every evaluated core"


class TestWorkspace:
    def test_reused_workspace_screens_as_fresh_arrays(self, tmp_path):
        # a block of another X, with more cores, words and pool rows, leaves its
        # values in every buffer that the smaller block then views
        store, lex, freq = clustered_dataset(tmp_path, n_words=300, d=10, seed=3)
        rng = np.random.default_rng(4)
        ws = _Workspace()
        big = select_base(lex, freq, store, 300)
        _screen_cell(*_seed_pairs(90, 30, 60, rng), select_pools(big, 90),
                     _EvalContext(big, store), ws)
        small = select_base(lex, freq, store, 120)
        pairs = _seed_pairs(30, 10, 25, rng)
        ctx, pools = _EvalContext(small, store), select_pools(small, 30)
        reused_r, reused_unsure = _screen_cell(*pairs, pools, ctx, ws)
        fresh_r, fresh_unsure = _screen_cell(*pairs, pools, ctx, _Workspace())
        assert reused_r.tobytes() == fresh_r.tobytes()
        assert np.array_equal(reused_unsure, fresh_unsure)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="MALLOC_MMAP_THRESHOLD_ is a glibc setting")
    def test_cells_fault_few_pages_with_mmap_threshold_pinned(self):
        # With glibc's mmap threshold pinned at 128 kB, every array above it is
        # mapped anew and faulted in page by page when it is written. Each cell
        # here holds (100 cores x 600 words) arrays of 480 kB, 118 pages each:
        # reused workspace views fault once per search, and only the sort order
        # is still mapped anew on every cell (a rank array as well made 290).
        # Every core of this store ties (words whose two similarities are both
        # floored rate exactly 1), so every cell also forms its tie runs' ranks,
        # and those arrays must be workspace views too.
        code = """if True:
            import resource
            import numpy as np
            from cadict.embeddings import VectorStore
            from cadict.lexicon import FrequencyList, RatingLexicon
            from cadict.search import SearchConfig, search_grid
            rng = np.random.default_rng(3)
            n = 600
            matrix = rng.normal(size=(n, 50))
            matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
            tokens = [f"w{i}" for i in range(n)]
            store = VectorStore(tokens, matrix, "synthetic")
            lex = RatingLexicon({t: 1.0 + 4.0 * i / n for i, t in enumerate(tokens)})
            freq = FrequencyList({t: n - i for i, t in enumerate(tokens)})
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            report = search_grid(lex, freq, store, SearchConfig(x_values=(n,), rng_seed=1))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            print(len(report.cells), (after - before) / len(report.cells))
        """
        src = str(Path(search.__file__).parents[1])
        env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        cells, faults_per_cell = int(out[0]), float(out[1])
        assert cells == 26
        assert faults_per_cell < 240


class TestSeedBudgetTooLarge:
    @pytest.mark.parametrize("samples", [10**17, 10**19])
    def test_seed_draws_too_large_to_allocate_are_skipped(self, tmp_path, samples):
        # C(40, 20)^2 exceeds both budgets; numpy refuses each array before any
        # memory is touched (10**17 pairs by malloc, 10**19 by its dimension limit)
        store, lex, freq = clustered_dataset(tmp_path, n_words=120, d=4)
        base = select_base(lex, freq, store, 120)
        cfg = toy_config(x_values=(120,), samples_per_cell=samples)
        cell = _evaluate_cell(120, 40, 20, select_pools(base, 40), _EvalContext(base, store),
                              cfg, _Workspace())
        assert cell == SkippedCell(x=120, y=40, z=20, reason=(
            f"seed draws too large to allocate: k = {samples} pairs of z = 20"))

    def test_cells_that_fit_still_run_beside_one_too_large(self, tmp_path):
        # the Y = Z cell has one pair, so it runs on any budget
        store, lex, freq = clustered_dataset(tmp_path, n_words=120, d=4)
        cfg = toy_config(x_values=(120,), y_start=40, z_min=20, z_step=20,
                         samples_per_cell=10**19)
        report = search_grid(lex, freq, store, cfg)
        assert [(c.y, c.z, c.cores_evaluated) for c in report.cells] == [(40, 40, 1)]
        assert [(s.y, s.z) for s in report.skipped] == [(40, 20)]
