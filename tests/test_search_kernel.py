"""Property tests of the batched cell kernel against the per-core loop it
replaced (`oracles.evaluate_cell_loop`). They need hypothesis."""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cadict import search  # noqa: E402
from cadict.lexicon import FrequencyList, RatingLexicon, select_base, select_pools  # noqa: E402
from cadict.search import (  # noqa: E402
    EvaluationScope,
    SearchConfig,
    _EvalContext,
    _seed_pairs,
    search_grid,
)

from conftest import store_from_raw  # noqa: E402
from oracles import evaluate_cell_loop, evaluate_core  # noqa: E402
from test_search import _assert_unflagged_screen_exact, report_fingerprint  # noqa: E402


@st.composite
def search_problems(draw):
    """A small store, lexicon and grid. Words share vectors from a short palette
    of directions, many with small-integer coordinates, so duplicate rows, tied
    ratings and similarities at exactly zero (floored on both sides) are common."""
    d = draw(st.integers(2, 4))
    n_words = draw(st.integers(6, 18))
    coord = st.one_of(st.integers(-2, 2).map(float), st.floats(-1.0, 1.0))
    direction = st.lists(coord, min_size=d, max_size=d).filter(
        lambda v: 1e-3 < np.linalg.norm(v) < np.inf)
    palette = draw(st.lists(direction, min_size=1, max_size=n_words))
    picks = draw(st.lists(st.integers(0, len(palette) - 1),
                          min_size=n_words, max_size=n_words))
    tokens = [f"w{i:02d}" for i in range(n_words)]
    store = store_from_raw(tokens, [palette[i] for i in picks])
    rating = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5, 5.0])
    lex = RatingLexicon({t: draw(rating) for t in tokens})
    freq = FrequencyList({t: draw(st.integers(0, 4)) for t in tokens})
    cfg = SearchConfig(
        x_values=tuple(draw(st.lists(st.integers(3, n_words + 1), min_size=1, max_size=2,
                                      unique=True))),
        y_start=draw(st.integers(1, 3)),
        y_step=draw(st.integers(1, 2)),
        z_min=draw(st.integers(1, 3)),
        z_step=draw(st.integers(1, 3)),
        samples_per_cell=draw(st.integers(1, 40)),
        rng_seed=draw(st.integers(0, 3)),
        evaluation_scope=draw(st.sampled_from(list(EvaluationScope))),
    )
    return store, lex, freq, cfg


def _exact_context(lex, freq, store, cfg, x):
    if cfg.evaluation_scope is EvaluationScope.FULL_LEXICON:
        in_store = [t for t in lex.tokens if t in store]
        return _EvalContext(in_store, [lex.rating(t) for t in in_store], store)
    base = select_base(lex, freq, store, x)
    return _EvalContext(base.tokens, base.ratings, store)


class TestBatchedKernelProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(search_problems())
    def test_same_cells_as_per_core_loop(self, problem):
        store, lex, freq, cfg = problem
        report = search_grid(lex, freq, store, cfg)
        with mock.patch.object(search, "_evaluate_cell", evaluate_cell_loop):
            reference = search_grid(lex, freq, store, cfg)
        # same best core, bit-identical best_r_s (repr round-trips), same counts
        assert report_fingerprint(report) == report_fingerprint(reference)
        for cell in report.cells:
            if cfg.evaluation_scope is EvaluationScope.BASE_DICTIONARY:
                base = select_base(lex, freq, store, cell.x)
                assert cell.best_r_s == evaluate_core(cell.best_core, base, store)
            else:
                ctx = _exact_context(lex, freq, store, cfg, cell.x)
                assert cell.best_r_s == ctx.evaluate(cell.best_core)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(search_problems(), st.integers(1, 40), st.randoms(use_true_random=False))
    def test_unflagged_screen_scores_are_exact(self, problem, samples, rnd):
        store, lex, freq, cfg = problem
        assume(len({lex.rating(t) for t in lex.tokens}) > 1)
        x = len(store)
        ctx = _exact_context(lex, freq, store, cfg, x)
        y = rnd.randint(1, x // 3)
        z = rnd.randint(1, y)
        pools = select_pools(select_base(lex, freq, store, x), y)
        pairs = list(_seed_pairs(y, z, samples, np.random.default_rng(rnd.randint(0, 9))))
        _assert_unflagged_screen_exact(pairs, z, pools, ctx)
