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
    SearchConfig,
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
    )
    return store, lex, freq, cfg


@st.composite
def floored_problems(draw):
    """Y abstract words near +e1 (the lowest rated) and Y concrete words near
    +e2 (the highest rated), each with a drawn third component, and the other
    words near -e1 - e2. A core floors both similarities of such a word, which
    then rates exactly 1 with a zero error bound, or not, by the signs of its
    seed means' third components: one block mixes cores that tie without a
    flag with cores that do not tie. Returns the base, its store, y and a z."""
    y = draw(st.integers(1, 5))
    third = st.floats(-3.0, 3.0)
    vectors = ([[1.0, 0.1 * i, draw(third)] for i in range(y)]  # no two pool words alike
               + [[0.1 * i, 1.0, draw(third)] for i in range(y)])
    others = draw(st.integers(max(2, y), 10))
    vectors += [[-draw(st.floats(0.05, 0.5)), -draw(st.floats(0.05, 0.5)), draw(third)]
                for _ in range(others)]
    ratings = ([1.0 + 0.1 * i for i in range(y)] + [5.0 - 0.1 * i for i in range(y)]
               + draw(st.lists(st.sampled_from([2.0, 2.5, 3.0, 3.5, 4.0]),
                               min_size=others, max_size=others)))
    tokens = [f"w{i:02d}" for i in range(len(vectors))]
    store = store_from_raw(tokens, vectors)
    base = select_base(RatingLexicon(dict(zip(tokens, ratings))),
                       FrequencyList({t: 1 for t in tokens}), store, len(tokens))
    return base, store, y, draw(st.integers(1, y))


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
            base = select_base(lex, freq, store, cell.x)
            assert cell.best_r_s == evaluate_core(cell.best_core, base, store)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(search_problems(), st.integers(1, 40), st.randoms(use_true_random=False))
    def test_unflagged_screen_scores_are_exact(self, problem, samples, rnd):
        store, lex, freq, cfg = problem
        assume(len({lex.rating(t) for t in lex.tokens}) > 1)
        x = len(store)
        base = select_base(lex, freq, store, x)
        y = rnd.randint(1, x // 3)
        z = rnd.randint(1, y)
        pools = select_pools(base, y)
        pairs = _seed_pairs(y, z, samples, np.random.default_rng(rnd.randint(0, 9)))
        _assert_unflagged_screen_exact(*pairs, pools, base, store)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(floored_problems(), st.integers(1, 40), st.integers(0, 9))
    def test_unflagged_screen_scores_are_exact_with_floored_words(self, problem, samples, seed):
        base, store, y, z = problem
        pairs = _seed_pairs(y, z, samples, np.random.default_rng(seed))
        _assert_unflagged_screen_exact(*pairs, select_pools(base, y), base, store)
