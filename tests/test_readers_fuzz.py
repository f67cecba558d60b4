"""Fuzzing of every input reader: whatever the bytes, a reader either returns
or raises DataError, the error the CLI turns into exit code 2."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cadict.cli import _load_predictions
from cadict.embeddings import load_cache, load_vectors, save_cache
from cadict.errors import DataError
from cadict.lexicon import load_frequencies, load_ratings
from cadict.rater import SemanticCore, load_core, save_core

from conftest import store_from_raw

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _soup(pieces):
    """Files made of the pieces a reader has to tell apart, in any order."""
    return st.one_of(st.binary(max_size=64),
                     st.lists(st.sampled_from(pieces), max_size=40).map(b"".join))


TABLE = _soup([b"dog", b"Cat", b"ice cream", b"\t", b"\n", b"\r\n", b" ", b"4.5", b"3",
               b"-1", b"0", b"1e999", b"nan", b"inf", b"word", b"\xff", b"\xc3", b"\xc3\xa9"])
VECTORS = _soup([b"a", b"B", b"\xc3\xa9", b" ", b"\t", b"\n", b"1", b"0", b"-2.5", b"2 3\n",
                 b"nan", b"inf", b"1e-160", b"1e308", b"x", b"\xff"])


def _reads_or_data_error(read, path):
    try:
        read(path)
    except DataError:
        pass


def _write(tmp_path, blob, name="input"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


@FUZZ
@given(blob=TABLE)
@example(blob=b"dog\t4.5\n\xff\t3\n")
def test_load_ratings(tmp_path, blob):
    _reads_or_data_error(load_ratings, _write(tmp_path, blob))


@FUZZ
@given(blob=TABLE)
@example(blob=b"dog\t4\n\xc3\t3\n")
def test_load_frequencies(tmp_path, blob):
    _reads_or_data_error(load_frequencies, _write(tmp_path, blob))


@FUZZ
@given(blob=TABLE, fold_case=st.booleans())
@example(blob=b"dog\t1.0\n\xfe\t2.0\n", fold_case=True)
def test_load_predictions(tmp_path, blob, fold_case):
    _reads_or_data_error(lambda p: _load_predictions(p, fold_case), _write(tmp_path, blob))


@FUZZ
@given(blob=VECTORS)
@example(blob=b"a 1 0\n\xff 0 1\n")
@example(blob=b"a 1e-160 1e-160\n")
@example(blob=b"a 1e200 1e200\n")
def test_load_vectors(tmp_path, blob):
    _reads_or_data_error(load_vectors, _write(tmp_path, blob))


@pytest.fixture(scope="module")
def cache_blob(tmp_path_factory):
    root = tmp_path_factory.mktemp("cache")
    store = store_from_raw(["ab", "b", "cd"], [[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]])
    save_cache(store, root / "store.cavs")
    return (root / "store.cavs").read_bytes()


@FUZZ
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
       cut=st.one_of(st.none(), st.integers(0, 10**6)))
@example(edits=[(-50, ord("a")), (-49, ord("b"))], cut=None)  # token "cd" -> "ab": duplicate
@example(edits=[(-52, ord(" "))], cut=None)  # token "b" -> " ": blank
@example(edits=[(-2, 0)], cut=None)  # last component -1.0 -> -2**-15: not unit
@example(edits=[(-2, 0xF8), (-1, 0x7F)], cut=None)  # last component -> NaN
def test_load_cache(tmp_path, cache_blob, edits, cut):
    blob = bytearray(cache_blob)
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    if cut is not None:
        blob = blob[:cut % (len(blob) + 1)]
    _reads_or_data_error(load_cache, _write(tmp_path, bytes(blob)))


@pytest.fixture(scope="module")
def core_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("core") / "core.json"
    save_core(SemanticCore(("idea", "hope"), ("rock", "tree")), path, provenance={"x": 1})
    return path.read_bytes()


@FUZZ
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3),
       blob=st.one_of(st.none(), st.binary(max_size=64)))
@example(edits=[(30, 0xFF)], blob=None)
@example(edits=[], blob=b"[" * 100_000)
def test_load_core(tmp_path, core_blob, edits, blob):
    data = bytearray(core_blob if blob is None else blob)
    for pos, byte in edits:
        if data:
            data[pos % len(data)] = byte
    _reads_or_data_error(load_core, _write(tmp_path, bytes(data)))

