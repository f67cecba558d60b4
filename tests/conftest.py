import numpy as np
import pytest

from cadict.embeddings import VectorStore, cache_vectors, load_vectors
from cadict.lexicon import FrequencyList, RatingLexicon


def write_vec_file(path, records, header=False):
    """Write (token, vector) records in the word-vectors text format."""
    lines = []
    if header:
        lines.append(f"{len(records)} {len(records[0][1])}")
    for token, vec in records:
        lines.append(token + " " + " ".join(repr(float(v)) for v in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def cache_from_records(path, records):
    """Write (token, vector) records as word-vectors text at `path`, then their
    cache beside it through `cache_vectors`; return the cache's path."""
    cache = path.with_suffix(".cavs")
    cache_vectors(write_vec_file(path, records), cache)
    return cache


def store_from_records(tmp_path, records, name="vectors.txt"):
    """Round a synthetic store through the real text-load path."""
    return load_vectors(write_vec_file(tmp_path / name, records))


def store_from_raw(tokens, matrix):
    """An in-memory store of the rows of `matrix`, each scaled to unit length."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return VectorStore(tokens, matrix / np.linalg.norm(matrix, axis=1)[:, None],
                       source_id="in-memory")


def clustered_dataset(tmp_path, n_words=300, d=10, sigma=0.05, seed=1234):
    """A store whose first coordinate encodes concreteness, with ratings linear in it.

    Words near +e1 are concrete (rating near 5), words near -e1 abstract
    (rating near 1). Frequencies descend with the word index so select_base
    keeps the construction order.
    """
    rng = np.random.default_rng(seed)
    latent = np.linspace(-1.0, 1.0, n_words)
    vectors = np.zeros((n_words, d))
    vectors[:, 0] = latent
    vectors += rng.normal(0.0, sigma, size=(n_words, d))
    tokens = [f"w{i:04d}" for i in range(n_words)]
    ratings = 3.0 + 2.0 * latent

    store = store_from_records(tmp_path, list(zip(tokens, vectors)), name="clustered.txt")
    lex = RatingLexicon({t: float(r) for t, r in zip(tokens, ratings)})
    freq = FrequencyList({t: n_words - i for i, t in enumerate(tokens)})
    return store, lex, freq


@pytest.fixture
def tiny_store(tmp_path):
    """e1/e2-style unit store used across rating tests."""
    records = [
        ("east", [1.0, 0.0]),
        ("north", [0.0, 1.0]),
        ("northeast", [1.0, 1.0]),
        ("south", [0.0, -2.0]),
    ]
    return store_from_records(tmp_path, records)
