import contextlib
import io
import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

import cadict
from cadict import embeddings
from cadict.embeddings import VectorStore, cache_vectors, load_vectors
from cadict.lexicon import FrequencyList, RatingLexicon


def python_env():
    """The environment for a Python subprocess that imports this cadict."""
    src = str(Path(cadict.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def listing(directory):
    """The names in `directory`, hidden ones too, sorted."""
    return sorted(os.listdir(directory))


def contents(directory):
    """The bytes of each file in `directory`, hidden ones too, by name."""
    return {name: (directory / name).read_bytes() for name in listing(directory)}


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


@pytest.fixture
def children(monkeypatch):
    """`cache_vectors` cuts any file of two bytes or more into ranges, and its
    children run their body, `_range_child`, in this process as they start. A
    child writes its rows to a duplicate of the staging descriptor that it would
    inherit, since it closes the descriptor it is given, and it is given this
    process as its parent, whose death signal it does not set. The list it
    returns gets each child's ``(start, stop)`` byte range."""
    started = []

    class Child:
        def __init__(self, argv, **kwargs):
            args = json.loads(argv[-1])
            started.append((args[1], args[2]))
            assert args[-2] == os.getpid()  # the parent that it ends with
            args[-1] = os.dup(args[-1])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                embeddings._range_child(json.dumps(args))
            self.stdout, self.returncode = out.getvalue().encode(), None

        def communicate(self):
            self.returncode = 0
            return self.stdout, b""

        def kill(self):
            pass

    monkeypatch.setattr(subprocess, "Popen", Child)
    monkeypatch.setattr(embeddings, "_end_with_parent", lambda parent: None)
    monkeypatch.setattr(embeddings, "MIN_RANGE_BYTES", 1)
    return started


@pytest.fixture
def passes(monkeypatch):
    """The list that gets the cuts of each parse that `cache_vectors` makes, in
    order: ``[0, None]`` for one pass over the whole file, which follows the
    cuts of byte ranges that it did not merge."""
    calls = []
    cache = embeddings._cache

    def spy(path, out, fold_case, cuts):
        calls.append(cuts)
        return cache(path, out, fold_case, cuts)

    monkeypatch.setattr(embeddings, "_cache", spy)
    return calls
