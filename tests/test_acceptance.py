"""Acceptance suite: the offline criteria the package must meet, one test each.

Each test prints a single PASS/FAIL verdict line (run pytest with -s or check
captured output) and asserts at the stated tolerance. The whole module runs
offline in well under a minute.
"""

import json
import math
from math import comb

import numpy as np
import pytest

from cadict.lexicon import select_base, select_pools
from cadict.metrics import spearman
from cadict.rater import SemanticCore, rate_all
from cadict.search import (
    CellResult,
    SearchConfig,
    _EvalContext,
    _Workspace,
    _evaluate_cell,
    search_grid,
)

from conftest import clustered_dataset, store_from_records
from oracles import evaluate_core, every_pair_cell, spearman_bruteforce, spearman_d2


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num} [{name}]: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def test_criterion_1_metric_oracle():
    rng = np.random.default_rng(1001)
    worst_tie_free = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        worst_tie_free = max(worst_tie_free,
                             abs(spearman(x, y) - spearman_d2(list(x), list(y))))
    worst_tied = 0.0
    checked_tied = 0
    while checked_tied < 1000:
        n = int(rng.integers(3, 11))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        worst_tied = max(worst_tied,
                         abs(spearman(x, y) - spearman_bruteforce(list(x), list(y))))
        checked_tied += 1
    ok = worst_tie_free <= 1e-12 and worst_tied <= 1e-12
    _verdict(1, "metric oracle", ok,
             f"tie-free drift {worst_tie_free:.2e}, tied drift {worst_tied:.2e}")


def test_criterion_2_rating_invariances(tmp_path):
    rng = np.random.default_rng(20240601)
    n, d, z = 50, 16, 5
    worst_scale = worst_perm = worst_swap = 0.0
    swap_checked = 0
    for _ in range(100):
        tokens = [f"w{i:02d}" for i in range(n)]
        vectors = rng.normal(size=(n, d))
        scales = rng.uniform(0.1, 10.0, size=n)
        plain = store_from_records(tmp_path, list(zip(tokens, vectors)), name="p.txt")
        scaled = store_from_records(
            tmp_path, [(t, v * s) for t, v, s in zip(tokens, vectors, scales)], name="s.txt")
        perm = rng.permutation(n)
        core = SemanticCore(tuple(tokens[i] for i in perm[:z]),
                            tuple(tokens[i] for i in perm[z:2 * z]))
        shuffled = SemanticCore(
            tuple(rng.permutation(core.seed_abstract).tolist()),
            tuple(rng.permutation(core.seed_concrete).tolist()))

        r_plain = rate_all(tokens, core, plain).raw
        r_scaled = rate_all(tokens, core, scaled).raw
        worst_scale = max(worst_scale, float(np.max(np.abs(r_plain - r_scaled))))

        r_perm = rate_all(tokens, shuffled, plain).raw
        worst_perm = max(worst_perm, float(np.max(np.abs(r_plain - r_perm))))

        fwd = rate_all(tokens, core, plain)
        bwd = rate_all(tokens, SemanticCore(core.seed_concrete, core.seed_abstract), plain)
        unfloored = ~fwd.floored & ~bwd.floored
        if unfloored.any():
            worst_swap = max(worst_swap,
                             float(np.max(np.abs(bwd.raw - 1.0 / fwd.raw)[unfloored])))
        swap_checked += int(unfloored.sum())
    ok = worst_scale <= 1e-9 and worst_perm <= 1e-12 and worst_swap <= 1e-9 \
        and swap_checked > 500
    _verdict(2, "rating invariances", ok,
             f"scale {worst_scale:.2e}, permutation {worst_perm:.2e}, "
             f"swap {worst_swap:.2e} over {swap_checked} words")


def test_criterion_3_monotonicity_probe(tmp_path):
    angles = list(range(5, 90, 5))
    records = [("e1", [1.0, 0.0]), ("e2", [0.0, 1.0])]
    for deg in angles:
        rad = math.radians(deg)
        records.append((f"t{deg:02d}", [math.cos(rad), math.sin(rad)]))
    store = store_from_records(tmp_path, records)
    core = SemanticCore(seed_abstract=("e2",), seed_concrete=("e1",))
    ratings = rate_all([f"t{deg:02d}" for deg in angles], core, store).raw.tolist()
    ok = all(a > b for a, b in zip(ratings, ratings[1:]))
    _verdict(3, "monotonicity probe", ok,
             f"ratings from {ratings[0]:.3f} down to {ratings[-1]:.3f}")


@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    return clustered_dataset(tmp_path_factory.mktemp("clustered"),
                             n_words=300, d=10, sigma=0.05, seed=1234)


def _run_clustered_search(clustered):
    store, lex, freq = clustered
    cfg = SearchConfig(x_values=(300,), rng_seed=42)
    return search_grid(lex, freq, store, cfg)


def test_criterion_4_synthetic_end_to_end(clustered):
    store, lex, freq = clustered
    report = _run_clustered_search(clustered)
    best = report.best_overall
    base = select_base(lex, freq, store, 300)
    swapped = SemanticCore(best.best_core.seed_concrete, best.best_core.seed_abstract)
    swapped_r = evaluate_core(swapped, base, store)
    ok = best.best_r_s >= 0.95 and swapped_r <= -0.95
    _verdict(4, "synthetic end-to-end", ok,
             f"best r_s {best.best_r_s:.4f}, swapped {swapped_r:.4f}")


def test_criterion_5_determinism_across_reruns(clustered):
    r1 = _run_clustered_search(clustered)
    r2 = _run_clustered_search(clustered)
    b1 = json.dumps(r1.to_dict(include_timing=False)).encode("utf-8")
    b2 = json.dumps(r2.to_dict(include_timing=False)).encode("utf-8")
    ok = b1 == b2
    _verdict(5, "determinism across reruns", ok,
             f"{len(b1)} serialized bytes compared")


def test_criterion_6_small_cells_cover_every_pair(tmp_path):
    store, lex, freq = clustered_dataset(tmp_path, n_words=30, d=6, seed=9)
    base = select_base(lex, freq, store, 30)
    ctx = _EvalContext(base, store)
    agreements = []
    for y, z in ((3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 5)):
        pair_count = comb(y, z) ** 2
        assert pair_count <= 100
        pools = select_pools(base, y)
        cfg = SearchConfig(x_values=(30,), y_start=y, y_step=1, z_min=z, z_step=1,
                           samples_per_cell=pair_count, rng_seed=3)
        cell = _evaluate_cell(30, y, z, pools, ctx, cfg, _Workspace())
        assert isinstance(cell, CellResult)
        agreements.append(cell.cores_evaluated == pair_count
                          and cell == every_pair_cell(30, y, z, pools, ctx))
    ok = all(agreements)
    _verdict(6, "small cells cover every pair", ok,
             f"{len(agreements)} cell shapes compared")
