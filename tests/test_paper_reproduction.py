"""Optional large-scale reproduction suite; skipped unless real data is supplied.

Point these environment variables at local files to enable it:

  CADICT_RATINGS_TSV   expert ratings as `token TAB rating` (the 40k English
                       concreteness norms, unigram rows are used)
  CADICT_FREQ_TSV      the 1/3-million-word frequency list (`token TAB count`)
  CADICT_VECTORS       fastText English crawl vectors, as the .cavs cache that
                       `cadict cache-vectors` writes (as are CADICT_VECTORS_ELMO/_BERT)

The known-good-core replay runs in minutes. The full grid sweeps additionally
require CADICT_RUN_GRID=1 and take up to a few hours on a desktop. Static
vector files derived from contextual models enable the analogue checks via
CADICT_VECTORS_ELMO / CADICT_VECTORS_BERT.
"""

import os

import numpy as np
import pytest

from cadict.embeddings import open_store
from cadict.lexicon import load_frequencies, load_ratings
from cadict.metrics import spearman
from cadict.rater import SemanticCore, rate_all
from cadict.search import SearchConfig, search_grid

RATINGS = os.environ.get("CADICT_RATINGS_TSV")
FREQ = os.environ.get("CADICT_FREQ_TSV")
VECTORS = os.environ.get("CADICT_VECTORS")
RUN_GRID = os.environ.get("CADICT_RUN_GRID") == "1"

needs_data = pytest.mark.skipif(
    not (RATINGS and FREQ and VECTORS),
    reason="set CADICT_RATINGS_TSV, CADICT_FREQ_TSV, CADICT_VECTORS to enable",
)
needs_grid = pytest.mark.skipif(not RUN_GRID, reason="set CADICT_RUN_GRID=1 to enable")

# A 20-word core known to reach r_s = 0.764 against the English norms with
# fastText crawl vectors (found at X=2500, Y=100, Z=10).
KNOWN_GOOD_CORE = SemanticCore(
    seed_abstract=("desire", "moment", "reliability", "opportunity", "choice",
                   "concept", "value", "peace", "sensitivity", "democracy"),
    seed_concrete=("shoe", "clock", "bracelet", "computer", "bird",
                   "bed", "bean", "pantyhose", "neck", "oven"),
)


@pytest.fixture(scope="module")
def corpus():
    lex = load_ratings(RATINGS)
    freq = load_frequencies(FREQ)
    store = open_store(VECTORS, vocab_filter=set(lex.tokens))
    return lex, freq, store


@pytest.fixture(scope="module")
def full_grid_report(corpus):
    lex, freq, store = corpus
    return search_grid(lex, freq, store, SearchConfig(rng_seed=42))


def _score_against_lexicon(core, lex, store):
    tokens = [t for t in lex.tokens if t in store]
    batch = rate_all(tokens, core, store)
    gold = [lex.rating(t) for t in batch.tokens]
    return spearman(batch.raw, gold), len(gold)


@needs_data
def test_criterion_7_known_core_replay(corpus):
    lex, _, store = corpus
    r_s, n = _score_against_lexicon(KNOWN_GOOD_CORE, lex, store)
    print(f"acceptance criterion 7 [known-core replay]: r_s={r_s:.4f} over {n} words")
    assert r_s == pytest.approx(0.764, abs=0.02)


@needs_data
@needs_grid
def test_criterion_8_grid_landscape(full_grid_report):
    best = full_grid_report.best_overall
    x500 = max(c.best_r_s for c in full_grid_report.cells if c.x == 500)
    print(f"acceptance criterion 8 [grid landscape]: best={best.best_r_s:.4f} at "
          f"(X={best.x}, Y={best.y}, Z={best.z}); X=500 slice best={x500:.4f}")
    assert best.best_r_s == pytest.approx(0.797, abs=0.03)
    assert best.x == 2500
    assert x500 == pytest.approx(0.710, abs=0.03)


@needs_data
@needs_grid
def test_criterion_9_x1000_slice(full_grid_report):
    slice_cells = [c for c in full_grid_report.cells if c.x == 1000]
    best = max(c.best_r_s for c in slice_cells)
    top5 = sorted(slice_cells, key=lambda c: -c.best_r_s)[:5]
    mean_y_ratio = float(np.mean([c.y / c.x for c in top5]))
    print(f"acceptance criterion 9 [X=1000 slice]: best={best:.4f}, "
          f"top-5 mean Y/X={mean_y_ratio:.2f}")
    assert best == pytest.approx(0.763, abs=0.03)
    # optimal Y sits around 20% of X among the leading cells
    assert 0.10 <= mean_y_ratio <= 0.30


@needs_data
@needs_grid
def test_criterion_10_interior_maximum_in_z(full_grid_report):
    sweep = sorted((c for c in full_grid_report.cells if c.x == 2500 and c.y == 600),
                   key=lambda c: c.z)
    assert len(sweep) >= 3
    scores = [c.best_r_s for c in sweep]
    best_idx = scores.index(max(scores))
    print(f"acceptance criterion 10 [Z landscape]: max at Z={sweep[best_idx].z}")
    assert best_idx < len(sweep) - 1  # interior, not forced at the upper boundary
    assert max(scores[best_idx + 1:]) <= scores[best_idx] + 0.005


def _analogue(env_var, expected):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"set {env_var} to enable")
    lex = load_ratings(RATINGS)
    freq = load_frequencies(FREQ)
    store = open_store(path, vocab_filter=set(lex.tokens))
    report = search_grid(lex, freq, store, SearchConfig(rng_seed=42))
    assert report.best_overall.best_r_s == pytest.approx(expected, abs=0.03)


@needs_data
@needs_grid
def test_contextual_vectors_analogue_elmo():
    _analogue("CADICT_VECTORS_ELMO", 0.855)


@needs_data
@needs_grid
def test_contextual_vectors_analogue_bert():
    _analogue("CADICT_VECTORS_BERT", 0.832)
