import hashlib
import io
import itertools
import json
import math
import os
import re
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cadict import cli, embeddings
from cadict.embeddings import (
    CACHE_MAGIC,
    LoadReport,
    VectorStore,
    load_cache,
    load_vectors,
    open_store,
    save_cache,
)
from cadict.errors import DataError
from cadict.rater import (
    SIMILARITY_FLOOR,
    SemanticCore,
    rate_all,
    raw_ratings,
)

from conftest import cache_from_records, store_from_raw, store_from_records, write_vec_file
from oracles import load_vectors_by_line


class TestLoadVectors:
    def test_basic_load_and_normalization(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        assert len(store) == 2
        assert store.dimension == 2
        assert list(store.matrix[store.row_index("b")]) == [0.0, 1.0]
        assert store.load_report.accepted == 2

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 0\nb 1 2 3\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_vectors(path)

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "with_header.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        store = load_vectors(path)
        assert len(store) == 2
        assert store.dimension == 3

    def test_zero_norm_dropped_and_counted(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("z", [0, 0]), ("b", [0, 1])])
        assert len(store) == 2
        assert "z" not in store
        assert store.load_report.zero_norm_skipped == 1

    def test_underflowing_norm_counted_as_zero_norm(self, tmp_path):
        # its squared norm is subnormal, too inexact to make a unit row
        path = tmp_path / "tiny.txt"
        path.write_text("a 1e-160 1e-160\nb 0 1\n", encoding="utf-8")
        store = load_vectors(path)
        assert store.tokens == ("b",)
        assert store.load_report.zero_norm_skipped == 1

    def test_non_finite_counted_apart_from_zero_norm(self, tmp_path):
        path = tmp_path / "nonfinite.txt"
        path.write_text("a 1 0\nb nan 1\nc 0 0\nd inf 1\n", encoding="utf-8")
        store = load_vectors(path)
        assert store.tokens == ("a",)
        assert store.load_report == LoadReport(accepted=1, zero_norm_skipped=1,
                                               non_finite_skipped=2)
        assert store.load_report.drops() == "zero_norm_skipped=1, non_finite_skipped=2"

    @pytest.mark.parametrize("components, cause", [
        ("1e200 1e200", None),
        ("1.7e308 -1.7e308", None),
        ("1e-160 1e-160", "zero_norm_skipped"),
        ("inf 1", "non_finite_skipped"),
        ("nan 1", "non_finite_skipped"),
        ("1e200 inf", "non_finite_skipped"),
    ])
    def test_extreme_components(self, tmp_path, components, cause):
        # a finite record whose squares overflow is rescaled, not dropped
        path = tmp_path / "extreme.txt"
        path.write_text(f"a {components}\nb 0 1\n", encoding="utf-8")
        store = load_vectors(path)
        if cause is None:
            assert store.tokens == ("a", "b")
            signs = np.sign([float(v) for v in components.split()])
            assert np.allclose(store.matrix[0], signs / math.sqrt(2), rtol=0, atol=1e-15)
        else:
            assert store.tokens == ("b",)
            assert getattr(store.load_report, cause) == 1

    def test_duplicate_first_wins(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a 1 0\na 0 1\nb 0 1\n", encoding="utf-8")
        store = load_vectors(path)
        assert list(store.matrix[store.row_index("a")]) == [1.0, 0.0]
        assert store.load_report.duplicates_ignored == 1

    def test_case_folding_default_on(self, tmp_path):
        path = tmp_path / "case.txt"
        path.write_text("Dog 1 0\nCAT 0 1\n", encoding="utf-8")
        store = load_vectors(path)
        assert "dog" in store and "cat" in store
        unfolded = load_vectors(path, fold_case=False)
        assert "Dog" in unfolded and "dog" not in unfolded

    def test_fold_collision_counts_duplicate(self, tmp_path):
        path = tmp_path / "collide.txt"
        path.write_text("The 1 0\nthe 0 1\n", encoding="utf-8")
        store = load_vectors(path)
        assert len(store) == 1
        assert list(store.matrix[store.row_index("the")]) == [1.0, 0.0]
        assert store.load_report.duplicates_ignored == 1

    def test_unparseable_component_is_hard_error(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("a 1 0\nb x 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_vectors(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_vectors(path)

    def test_lookup_total_over_accepted(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [(f"w{i}", rng.normal(size=4)) for i in range(40)]
        store = store_from_records(tmp_path, records)
        assert store.load_report.accepted == len(store)
        for t in store.tokens:
            assert np.linalg.norm(store.matrix[store.row_index(t)]) == \
                pytest.approx(1.0, abs=1e-6)

    def test_store_immutable(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 5.0

    def test_oov_lookup_names_token(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0])])
        with pytest.raises(DataError, match="'missing'"):
            store.rows(["missing"])


def _outcome(load, path, **kwargs):
    """Everything a load shows its caller: tokens, matrix bytes and report, or the error."""
    try:
        store = load(path, **kwargs)
    except DataError as exc:
        return str(exc)
    return store.tokens, store.matrix.tobytes(), store.load_report


def traced_peak(call):
    """`call`'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


TOKENS = ["a", "A", "b", "B", "\u00e9", "\u00c9", "#", "7"]
# mostly plain numbers; then what `float` accepts and np.loadtxt refuses, drop
# causes (zero, non-finite, overflowing squares), and what nothing parses
COMPONENTS = (["1", "-2.5", "0.5", "3e-1", "2", "7"] * 4
              + ["1_0", "\u0661", "\u0661\u0662", "\uff11", "0", "-0", "1e-160",
                 "nan", "-inf", "1e999", "1e200", "1.7e308", "x", "#", "'1'"])
SEPARATORS = [" ", " ", "\t", "  ", "\x0b", "\x1c", "\u3000", " \t"]


@st.composite
def vector_files(draw):
    """Word-vectors text in the loader's whole input language, with its edge cases,
    sometimes after a byte-order mark."""
    dimension = draw(st.integers(1, 3))
    lines = [f"{draw(st.integers(0, 9))} {dimension}"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        width = draw(st.sampled_from([dimension] * 8 + [0, dimension + 1]))
        line = draw(st.sampled_from(TOKENS))
        for component in draw(st.lists(st.sampled_from(COMPONENTS), min_size=width,
                                       max_size=width)):
            line += draw(st.sampled_from(SEPARATORS)) + component
        lines.append(line + draw(st.sampled_from(["", "", " "])))
    return draw(st.sampled_from(["", "", "\ufeff"])) + "\n".join(lines) + draw(
        st.sampled_from(["\n", ""]))


# 1 to 3 lines a block reach every rule of the record walk; 4, 7 and 256 put
# whole files in blocks that numpy parses and `_TextLoad.rows` checks as arrays
BLOCK_SIZES = [1, 2, 3, 4, 7, 256]


class TestBlockParser:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=vector_files(), block_lines=st.sampled_from(BLOCK_SIZES),
           fold_case=st.booleans())
    @example(text="a 0 0\nA 1 0\nA 0 1\n", block_lines=3, fold_case=True)
    # in one numpy-parsed block: a duplicate of a kept record is dropped, one of
    # a zero row is kept, and an overflowing row is rescaled beside a NaN row
    @example(text="a 1 0\nb 0 1\na 2 2\nc 1 1\n", block_lines=4, fold_case=True)
    @example(text="a 0 0\nb 0 1\na 2 2\nb 1 1\n", block_lines=7, fold_case=True)
    @example(text="a 1e200 -1e200\nb nan 1\nc 1 2\nd inf 0\n", block_lines=256,
             fold_case=True)
    @example(text="a 1 0\nb 1_0 2\na x 1\n", block_lines=3, fold_case=True)
    # `a` is dropped for its zero norm, so the record walk's unparseable `a` on
    # line 3 is that line's error, not a duplicate
    @example(text="a 0 0\nb 1_0 1\na x 1\n", block_lines=3, fold_case=True)
    @example(text="a 1 0\nb 1e200 1e200\n", block_lines=2, fold_case=False)
    @example(text="\ufeff2 3\na 1 0 0\n", block_lines=3, fold_case=True)
    @example(text="\n \n2 3\na 1 0 0\n", block_lines=1, fold_case=True)
    @example(text="2 1\n5 7\n", block_lines=1, fold_case=True)
    def test_equals_the_line_loader(self, tmp_path, monkeypatch, text, block_lines, fold_case):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", block_lines)
        assert _outcome(load_vectors, path, fold_case=fold_case) == \
            _outcome(load_vectors_by_line, path, fold_case=fold_case)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=vector_files(), block_lines=st.sampled_from(BLOCK_SIZES),
           fold_case=st.booleans())
    @example(text="a 1 0\nb 0 0\nb 3 4\nA 5 5\nc 1e200 1e200\n", block_lines=7,
             fold_case=True)
    def test_cache_equals_the_saved_line_loader(self, tmp_path, monkeypatch, text, block_lines,
                                                fold_case):
        # `cache_vectors` writes what `save_cache` writes for the oracle's store, or
        # fails with its message
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", block_lines)

        def written(write):
            out = tmp_path / "out.cavs"
            try:
                write(out)
            except DataError as exc:
                return str(exc)
            return out.read_bytes()

        assert written(lambda out: embeddings.cache_vectors(path, out, fold_case=fold_case)) == \
            written(lambda out: save_cache(load_vectors_by_line(path, fold_case=fold_case), out))

    @pytest.mark.parametrize("dimension", [1, 3, 300, 301, 1024])
    def test_batched_row_dots_equal_vec_dot(self, tmp_path, dimension):
        # `_TextLoad.rows` takes its squared norms from one batched row dot, which
        # must give each row's ``vec.dot(vec)`` bit for bit at every width and
        # scale; np.einsum("ij,ij->i") does not at 300 components
        rng = np.random.default_rng(dimension)
        scales = 10.0 ** np.linspace(-150, 150, 61)
        rows = rng.normal(size=(61, dimension)) * scales[:, None]
        batched = np.matmul(rows[:, None, :], rows[:, :, None]).ravel()
        assert batched.tobytes() == np.array([vec.dot(vec) for vec in rows]).tobytes()
        path = write_vec_file(tmp_path / "v.txt",
                              [(f"w{i}", row) for i, row in enumerate(rows)])
        assert _outcome(load_vectors, path) == _outcome(load_vectors_by_line, path)

    def test_wide_rows_equal_the_line_loader(self, tmp_path):
        # at 300 components numpy's vectorised norms differ from the per-row ones:
        # np.einsum's sums are not ``vec.dot(vec)``'s, a batched row dot's are
        rng = np.random.default_rng(9)
        path = write_vec_file(tmp_path / "v.txt",
                              [(f"w{i}", rng.normal(size=300)) for i in range(300)])
        assert _outcome(load_vectors, path) == _outcome(load_vectors_by_line, path)

    # every rule of the loader: a header, a blank line, a case-fold collision, a
    # duplicate with a bad component in the block of its first record, ``1_0``,
    # a zero row, a row whose squares overflow and a non-finite row
    PINNED = ("9 3\n\nThe 1 0 0\nthe 0 1 0\nb 1_0 2 3\nb x 1 1\nzero 0 0 0\n"
              "big 1e200 -1e200 1e200\nnan nan 1 0\nc -2.5 0.5 3e-1\nD 2 7 -0.5\n")

    @pytest.mark.parametrize("block_lines", [1, 3, 1024])
    def test_load_pinned_across_versions(self, tmp_path, monkeypatch, block_lines):
        # the digest of the tokens, the matrix bytes and the report: any version
        # of the loader must give these, bit for bit, at every block size
        path = tmp_path / "pinned.vec"
        path.write_text(self.PINNED, encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", block_lines)
        store = load_vectors(path)
        blob = ("\n".join(store.tokens).encode() + store.matrix.tobytes()
                + repr(store.load_report).encode())
        assert hashlib.sha256(blob).hexdigest() == \
            "9e9de576439329bb9c735ddede51c6f038c8678196e6df46af05d92fc4ce4b3a"

    @pytest.mark.parametrize("block_lines", [1, 3, 1024])
    @pytest.mark.parametrize("fold_case, digest", [
        (True, "3b9139b633436ca37938409c27222214ceff7759c04cf85751da4572d304f35b"),
        (False, "36718e9ad278679561089764cec792a8b2aa11f292264203ce88b185ddb2ade7"),
    ])
    def test_cache_pinned_across_versions(self, tmp_path, monkeypatch, block_lines,
                                          fold_case, digest):
        # the cache bytes of the pinned file; the header's source_id is the path as given
        monkeypatch.chdir(tmp_path)
        Path("pinned.vec").write_text(self.PINNED, encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", block_lines)
        save_cache(load_vectors("pinned.vec", fold_case=fold_case), "saved.cavs")
        assert hashlib.sha256(Path("saved.cavs").read_bytes()).hexdigest() == digest

    @staticmethod
    def _replays(caplog):
        return [r.getMessage() for r in caplog.records if "line by line" in r.getMessage()]

    def test_clean_blocks_are_not_replayed(self, tmp_path, monkeypatch, caplog):
        rng = np.random.default_rng(6)
        records = [(f"w{i}", rng.normal(size=3)) for i in range(12)]
        path = write_vec_file(tmp_path / "v.txt", records)
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 4)
        with caplog.at_level("DEBUG", logger="cadict.embeddings"):
            store = load_vectors(path)
        assert len(store) == 12
        assert self._replays(caplog) == []

    def test_one_float_only_component_replays_one_block(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "v.txt"
        lines = [f"w{i} {i + 1} 1" for i in range(12)]
        lines[5] = "w5 1_0 1"  # float() reads 10; np.loadtxt refuses it
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 4)
        with caplog.at_level("DEBUG", logger="cadict.embeddings"):
            store = load_vectors(path)
        assert self._replays(caplog) == [f"{path}: lines 5-8 parsed line by line"]
        assert len(store) == 12
        assert store.matrix[5].tolist() == (np.array([10.0, 1.0]) / math.sqrt(101)).tolist()

    def test_unfiltered_load_reads_a_pipe_once(self, tmp_path):
        rng = np.random.default_rng(12)
        path = write_vec_file(tmp_path / "v.txt",
                              [(f"w{i}", rng.normal(size=4)) for i in range(50)])
        read_fd, write_fd = os.pipe()
        os.write(write_fd, path.read_bytes())  # less than a pipe holds
        os.close(write_fd)
        try:
            piped = _outcome(load_vectors, f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
        assert piped == _outcome(load_vectors, path)

    @pytest.mark.parametrize("last", ["", "end"])
    def test_line_endings_give_one_store(self, tmp_path, last):
        # the padded header's line ending falls at the end of the file's first
        # 8 KB buffered read, or of its fourth
        outcomes = set()
        for pad in (io.DEFAULT_BUFFER_SIZE - 1, (1 << 15) - 1):
            lines = ["3 2".ljust(pad), "", "a 1 0", "b 0 2", "A 3 4", "c 1 1"]
            for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
                path = tmp_path / f"{name}.txt"
                path.write_bytes((newline.join(lines) + (newline if last else "")).encode())
                outcomes.add(_outcome(load_vectors, path))
        assert len(outcomes) == 1
        ((tokens, _, report),) = outcomes
        assert tokens == ("a", "b", "c") and report.duplicates_ignored == 1

    def test_bad_record_before_an_undecodable_byte_is_reported_first(self, tmp_path):
        # the file is read once, and the parse meets its undecodable bytes in
        # line order, after the bad record on line 2
        text = b"a 1 0\nb 1 2 3\n" + b"".join(b"w%d 1 0\n" % i for i in range(2000))
        path = tmp_path / "v.txt"
        path.write_bytes(text + b"\xff 1 0\n")
        assert len(text) > 18 * 1024
        with pytest.raises(DataError) as exc:
            load_vectors(path)
        assert str(exc.value) == f"{path}: line 2: expected 2 components, found 3"


def _cached(path, **kwargs):
    """What `cache_vectors` shows its caller: the cache bytes, report and
    dimension, or the error's message."""
    out = Path(f"{path}.cavs")
    try:
        report, dimension = embeddings.cache_vectors(path, out, **kwargs)
    except DataError as exc:
        return str(exc)
    return out.read_bytes(), report, dimension


def _cut_at(monkeypatch, path, cuts):
    """Make `cache_vectors` cut `path` at `cuts` (offsets inside it) for any
    process count above 1."""
    size = path.stat().st_size
    monkeypatch.setattr(embeddings, "_split",
                        lambda path, processes: [0, *cuts, size] if processes > 1 else [0, None])


def _line_ends(blob: bytes, after: int) -> list[int]:
    """The offsets just after each ``\\n`` of `blob` from `after` on, but its end."""
    return [i + 1 for i, byte in enumerate(blob) if byte == 10 and after < i + 1 < len(blob)]


class TestByteRanges:
    """`cache_vectors` with processes: each byte range parsed on its own, as a
    child process parses it (here in this process: the `children` fixture), and
    the ranges merged in order, or dropped for one pass when in doubt, must give
    the cache, report and error of one pass."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=vector_files(), block_lines=st.sampled_from([1, 3, 1024]),
           processes=st.sampled_from([2, 3, 5]), min_range=st.sampled_from([1, 4, 16]),
           chunk=st.sampled_from([(1, 5), (3, 0), None]), fold_case=st.booleans())
    def test_ranges_equal_one_pass(self, tmp_path, monkeypatch, children, text, block_lines,
                                   processes, min_range, chunk, fold_case):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", block_lines)
        one = _cached(path, fold_case=fold_case)
        monkeypatch.setattr(embeddings, "MIN_RANGE_BYTES", min_range)
        if chunk and not isinstance(one, str):
            # (rows, extra bytes) a piece: the staged rows kept around the skipped
            # duplicates are copied in several pieces
            rows, extra = chunk
            monkeypatch.setattr(embeddings, "CHUNK_BYTES", rows * one[2] * 8 + extra)
        assert _cached(path, fold_case=fold_case, processes=processes) == one

    # a header, blank lines, a case-fold collision, and duplicates of kept,
    # zero-norm, non-finite and unparseable records, near and far
    EDGES = ["", "3 3", "", "a 1 0 0", "b 0 0 0", "C 0 1 0", "", "d nan 1 0", "A 0 0 0",
             "B 0 0 1", "c 1 1 1", "D 2 0 0", "a x 1 1", "e 1 2 3", "", "b 3 x 1",
             "e 0 0 0", "f 1e200 1e200 1", "E nan 0 0", "g 0 0 0", "h inf 0 0", "g 1 0 1"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    def test_every_cut_equals_one_pass(self, tmp_path, monkeypatch, children, passes, newline,
                                       bom):
        path = tmp_path / "v.txt"
        blob = (bom + newline.join(self.EDGES) + newline).encode()
        path.write_bytes(blob)
        one = _cached(path)
        passes.clear()
        assert one[1] == LoadReport(accepted=7, duplicates_ignored=6, zero_norm_skipped=2,
                                    non_finite_skipped=2)
        ends = _line_ends(blob, after=blob.index(b"a 1 0 0"))
        cuts = [[cut] for cut in ends]
        if newline == "\n" and not bom:  # and every pair of cuts
            cuts += [[a, b] for a in ends for b in ends if a < b]
        for cut in cuts:
            _cut_at(monkeypatch, path, cut)
            children.clear()
            assert _cached(path, processes=3) == one, cut
            assert children == list(zip(cut, [*cut[1:], len(blob)]))
            assert passes == [[0, *cut, len(blob)]]  # merged, not parsed again
            passes.clear()

    def test_a_later_range_defers_to_the_tokens_kept_before_it(self, tmp_path, monkeypatch,
                                                               children):
        # one pass checks for a duplicate before it parses the components and
        # before the norm; a token whose first record was dropped is kept later
        path = tmp_path / "v.txt"
        first = "a 1 0\nb 0 0\nc 1 1\nd nan 0\n"
        path.write_text(first + "a 0 0\nb 2 0\nc x 1\nd 0 1\na nan 1\nd 1 1\n", encoding="utf-8")
        _cut_at(monkeypatch, path, [len(first)])
        for processes in (1, 2):
            report, _ = embeddings.cache_vectors(path, tmp_path / "v.cavs", processes=processes)
            assert report == LoadReport(accepted=4, duplicates_ignored=4, zero_norm_skipped=1,
                                        non_finite_skipped=1)
            assert load_cache(tmp_path / "v.cavs").tokens == ("a", "c", "b", "d")
        assert children == [(len(first), path.stat().st_size)]

    def test_unparseable_record_of_a_new_token_is_an_error(self, tmp_path, monkeypatch,
                                                           children):
        path = tmp_path / "v.txt"
        first = "a 1 0\nb 0 0\n\n"
        path.write_text(first + "a x 1\nb x 1\nc 1 x\n", encoding="utf-8")
        _cut_at(monkeypatch, path, [len(first)])
        for processes in (1, 2):
            assert _cached(path, processes=processes) == \
                f"{path}: line 5: unparseable vector component"

    @pytest.mark.parametrize("block_lines", [1, 3, 1024])
    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("fold_case, digest, report", [
        (True, "3b9139b633436ca37938409c27222214ceff7759c04cf85751da4572d304f35b",
         LoadReport(accepted=5, duplicates_ignored=2, zero_norm_skipped=1, non_finite_skipped=1)),
        (False, "36718e9ad278679561089764cec792a8b2aa11f292264203ce88b185ddb2ade7",
         LoadReport(accepted=6, duplicates_ignored=1, zero_norm_skipped=1, non_finite_skipped=1)),
    ])
    def test_cache_pinned_at_every_process_count(self, tmp_path, monkeypatch, children, passes,
                                                 block_lines, processes, fold_case, digest,
                                                 report):
        # the digests of `test_cache_pinned_across_versions`, with ranges that
        # cut the pinned file into `processes` parts
        monkeypatch.chdir(tmp_path)
        Path("pinned.vec").write_text(TestBlockParser.PINNED, encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", block_lines)
        monkeypatch.setattr(embeddings, "MIN_RANGE_BYTES", 16)
        assert embeddings.cache_vectors("pinned.vec", "v.cavs", fold_case=fold_case,
                                        processes=processes) == (report, 3)
        assert hashlib.sha256(Path("v.cavs").read_bytes()).hexdigest() == digest
        assert len(children) == processes - 1
        assert len(passes) == 1  # merged, not parsed again

    # blocks of 2 lines, with a duplicate of a token that an earlier block kept:
    # its rest parses (also the rest of a token dropped for its zero norm, which
    # is kept later), does not parse, or has another width; then duplicates of a
    # later range's own tokens and of the first range's. The digests, reports and
    # error are those of the loader that sent numpy no rest of such a duplicate
    DUPLICATES = {
        "rest parses": ("a 1 0\nz 0 0\nb 0 1\nA nan 1\nz 3 4\nc 1 1\n",
                        "e9e7195036b75d8dcb89718e3ed2f606f16baed1591d9767f8cdb50f5ab05d3b",
                        LoadReport(accepted=4, duplicates_ignored=1, zero_norm_skipped=1)),
        "rest does not parse": ("a 1 0\nb 0 1\na x 2\nc 1 1\n",
                                "3f9cc6243ad382b5a68aed1c2a590abe041c925371ec53db0ea0a4e04742a87f",
                                LoadReport(accepted=3, duplicates_ignored=1)),
        "rest of another width": ("a 1 0\nb 0 1\na 2 2 2\nc 1 1\n", None,
                                  "line 3: expected 2 components, found 3"),
        "in a later range": ("a 1 0\nb 0 1\nc 1 1\na 2 0\nc 0 2\nd 1 2\nb 0 0\n",
                             "fe08e13abdf5184f0a3e705d06f4ad1e34a79f142fdfc5279b933c42e88a9f93",
                             LoadReport(accepted=4, duplicates_ignored=3)),
    }

    @pytest.mark.parametrize("case", list(DUPLICATES))
    def test_duplicates_in_a_numpy_block(self, tmp_path, monkeypatch, children, case):
        text, digest, expected = self.DUPLICATES[case]
        monkeypatch.chdir(tmp_path)
        path = Path("v.txt")
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 2)
        walked = []
        records = embeddings._TextLoad.records
        monkeypatch.setattr(embeddings._TextLoad, "records",
                            lambda load, *args: walked.append(load.start) or records(load, *args))
        one = _cached(path)
        if digest is None:
            assert one == f"{path}: {expected}"
        else:
            assert (hashlib.sha256(one[0]).hexdigest(), one[1:]) == (digest, (expected, 2))
        # a block with a duplicate whose rest numpy reads is checked as arrays;
        # the record walk takes only the block that numpy refuses
        assert walked == ([] if case in ("rest parses", "in a later range") else [0])
        ends = _line_ends(text.encode(), after=0)
        for cut in ends:
            _cut_at(monkeypatch, path, [cut])
            children.clear()
            assert _cached(path, processes=2) == one, cut
            assert children == [(cut, len(text))]

    # byte ranges, each after the first cut at a line end: with 2 processes the
    # second and third are one range. Either way, one pass's reading of a later
    # range may differ from its own, so the ranges are not merged
    DOUBTS = {
        "a later range with a wrong width": [b"a 1 0\nb 0 1\n", b"c 1 1 1\nd 0 1 1\n",
                                             b"e 1 1 0\n"],
        "an unparseable new token": [b"a 1 0\nb 0 0\n", b"c 1 1\nb x 1\n", b"d 1 1\n"],
        "an undecodable byte": [b"a 1 0\nb 0 1\n", b"c 1 1\n\xff 0 1\n", b"d 1 1\n"],
        "a first record of another width": [b"a 1 0\nb 0 1\n", b"c 1 1 1\nd 0 1\n",
                                            b"e 1 1\n"],
        # the header follows the first range; a later range reads it as a record
        "a first range of blank lines only": [b"\n", b"\n2 1\n", b"a 1\nb -2\n"],
    }

    @pytest.mark.parametrize("case", list(DOUBTS))
    def test_doubtful_ranges_give_one_pass(self, tmp_path, monkeypatch, children, passes,
                                           caplog, case):
        ranges = self.DOUBTS[case]
        path = tmp_path / "v.txt"
        path.write_bytes(b"".join(ranges))
        one = _cached(path)
        cuts = list(itertools.accumulate(map(len, ranges[:-1])))
        for processes in (2, 3):
            _cut_at(monkeypatch, path, cuts[:processes - 1])
            passes.clear()
            caplog.clear()
            with caplog.at_level("DEBUG", logger="cadict.embeddings"):
                assert _cached(path, processes=processes) == one
            assert passes == [[0, *cuts[:processes - 1], path.stat().st_size], [0, None]]
            assert len([m for m in caplog.messages
                        if m.startswith(f"{path}: byte ranges not merged, ")]) == 1
        assert len(children) == 3

    @pytest.mark.parametrize("text", [
        b"a 1 0\rb 0 1\ra 1 1\r",  # no \n to cut at
        b"3 2\n\n \n",  # no record
        b"\n 2 3\n7\nb 1 1\n",  # a first record with no component
        b"\xff\na 1 0\nb 1 1\n",  # a line before the first record does not decode
    ])
    def test_a_file_that_cannot_be_cut_is_one_range(self, tmp_path, children, text):
        path = tmp_path / "v.txt"
        path.write_bytes(text)
        assert _cached(path, processes=2) == _cached(path)
        if b"\n" not in text:
            assert children == []

    def test_bad_record_before_an_undecodable_byte_in_a_later_range(self, tmp_path,
                                                                     children):
        # `test_bad_record_before_an_undecodable_byte_is_reported_first`, cut
        text = b"a 1 0\nb 1 2 3\n" + b"".join(b"w%d 1 0\n" % i for i in range(2000))
        path = tmp_path / "v.txt"
        path.write_bytes(text + b"\xff 1 0\n")
        for processes in (1, 2, 3):
            assert _cached(path, processes=processes) == \
                f"{path}: line 2: expected 2 components, found 3"
        assert len(children) == 3

    @pytest.mark.parametrize("bad, reason", [(b"\xff", "invalid start byte"),
                                             (b"\xe2\x82", "invalid continuation byte"),
                                             (b"\x80", "invalid start byte")])
    def test_undecodable_bytes_hide_their_chunk_at_a_cut(self, tmp_path, monkeypatch,
                                                         children, bad, reason):
        # one pass decodes 8 KiB chunks: bytes that do not decode hide every
        # line that ends in their chunk, which may end the range before a cut
        chunk = 8192
        lines = [b"w%04d 1 0\n" % i for i in range(3 * chunk // 10)]  # 10 bytes a line
        cut = (chunk + 500) // 10 * 10  # in chunk 1
        outcomes = {}
        # a bad record in chunk 0, and in chunk 1 before and after the cut
        for record in (400, chunk // 10 + 40, chunk // 10 + 60):
            blob = b"".join(lines[:record] + [b"bad 1 2 3\n"] + lines[record:])
            for at in (cut, 2 * chunk - 3, 2 * chunk, 2 * chunk + 5):
                path = tmp_path / f"v-{record}-{at}.txt"
                path.write_bytes(blob[:at] + bad + blob[at:])
                one = _cached(path)
                _cut_at(monkeypatch, path, [cut])
                assert _cached(path, processes=2) == one
                outcomes[record, at] = one.split(": ", 1)[1]
        assert outcomes == {
            (400, cut): "line 401: expected 2 components, found 3",
            (400, 2 * chunk - 3): "line 401: expected 2 components, found 3",
            (400, 2 * chunk): "line 401: expected 2 components, found 3",
            (400, 2 * chunk + 5): "line 401: expected 2 components, found 3",
            # its chunk is the cut's: hidden by bytes after the cut in that chunk
            **{(chunk // 10 + 40, at): f"not UTF-8 text ({reason})"
               for at in (cut, 2 * chunk - 3)},
            (chunk // 10 + 40, 2 * chunk): f"line {chunk // 10 + 41}: expected 2 components, "
                                           "found 3",
            (chunk // 10 + 40, 2 * chunk + 5): f"line {chunk // 10 + 41}: expected 2 "
                                               "components, found 3",
            # after the cut: hidden, or not, in the second range
            **{(chunk // 10 + 60, at): f"not UTF-8 text ({reason})"
               for at in (cut, 2 * chunk - 3)},
            (chunk // 10 + 60, 2 * chunk): f"line {chunk // 10 + 61}: expected 2 components, "
                                           "found 3",
            (chunk // 10 + 60, 2 * chunk + 5): f"line {chunk // 10 + 61}: expected 2 "
                                               "components, found 3",
        }


class TestCosine:
    """Cosine similarity as every rating computes it: `raw_ratings` takes the dot
    product of load-normalized rows, one per seed when the seeds are single words."""

    def test_orthogonal(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 1])])
        # numerator cos(a, b) = 0 floors; denominator cos(a, a) = 1
        raw, floored = raw_ratings(store.rows(["a"]), SemanticCore(("a",), ("b",)), store)
        assert raw[0] == SIMILARITY_FLOOR
        assert not floored[0]

    def test_colinear_scales(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 2]), ("b", [2, 4]), ("c", [1, 0])])
        # a and b point the same way, so c is equally similar to both
        batch = rate_all(["c"], SemanticCore(("a",), ("b",)), store)
        assert batch.raw[0] == pytest.approx(1.0, abs=1e-9)

    def test_known_value(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [1, 1])])
        batch = rate_all(["b"], SemanticCore(("b",), ("a",)), store)
        assert batch.raw[0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    @staticmethod
    def _store_with_ref(tmp_path, seed):
        """Random words plus "ref", which sits on an extra axis no word uses: under
        the core (ref; s) a word w rates max(cos(w, s), floor) / floor."""
        rng = np.random.default_rng(seed)
        records = [(f"w{i:02d}", np.append(rng.normal(size=8), 0.0)) for i in range(20)]
        records.append(("ref", np.eye(9)[8]))
        return store_from_records(tmp_path, records)

    def test_symmetry_exact(self, tmp_path):
        store = self._store_with_ref(tmp_path, 1)
        words = store.tokens[:-1]
        checked = 0
        for a in words:
            for b in words:
                if a == b:
                    continue
                ab, _ = raw_ratings(store.rows([a]), SemanticCore(("ref",), (b,)), store)
                ba, _ = raw_ratings(store.rows([b]), SemanticCore(("ref",), (a,)), store)
                assert ab[0] == ba[0]
                checked += ab[0] > 1.0
        assert checked > 100

    def test_self_similarity(self, tmp_path):
        store = self._store_with_ref(tmp_path, 2)
        for t in store.tokens[:-1]:
            batch = rate_all([t], SemanticCore(("ref",), (t,)), store)
            assert batch.raw[0] * SIMILARITY_FLOOR == pytest.approx(1.0, abs=1e-9)
            assert batch.floored[0]

    def test_scale_invariance_through_load(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = [rng.normal(size=6) for _ in range(15)]
        records = [(f"w{i}", v) for i, v in enumerate(vectors)]
        scales = rng.uniform(0.01, 100.0, size=15)
        scaled = [(f"w{i}", v * s) for i, (v, s) in enumerate(zip(vectors, scales))]
        s1 = store_from_records(tmp_path, records, name="plain.txt")
        s2 = store_from_records(tmp_path, scaled, name="scaled.txt")
        for i in range(15):
            for j in range(15):
                if i == j:
                    continue
                core = SemanticCore((f"w{i}",), (f"w{j}",))
                r1, _ = raw_ratings(s1.matrix, core, s1)
                r2, _ = raw_ratings(s2.matrix, core, s2)
                assert np.allclose(r1, r2, rtol=1e-9, atol=0.0)

    def test_dimension_mismatch_rejected(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 1])])
        with pytest.raises(ValueError):
            raw_ratings(np.ones((1, 3)) / math.sqrt(3), SemanticCore(("a",), ("b",)), store)


class TestCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        records = [(f"w{i}", rng.normal(size=5)) for i in range(25)]
        store = store_from_records(tmp_path, records)
        cache = tmp_path / "store.cavs"
        save_cache(store, cache)
        loaded = load_cache(cache)
        assert set(loaded.tokens) == set(store.tokens)
        assert loaded.dimension == store.dimension
        assert loaded.source_id == store.source_id
        for t in store.tokens:
            row = store.matrix[store.row_index(t)]
            assert np.array_equal(loaded.matrix[loaded.row_index(t)], row)

    def test_save_writes_the_matrix_without_a_copy(self, tmp_path):
        rng = np.random.default_rng(5)
        store = store_from_raw([f"w{i}" for i in range(4000)], rng.normal(size=(4000, 100)))
        cache = tmp_path / "store.cavs"
        _, peak = traced_peak(lambda: save_cache(store, cache))
        assert peak < 0.1 * store.matrix.nbytes
        assert cache.read_bytes().endswith(store.matrix.tobytes())

    @pytest.fixture
    def big_text(self, tmp_path, monkeypatch):
        """A 20,000 x 100 text file and its rows, read in 256-line blocks: a
        block's lines and parse buffers are held beside the matrix, and smaller
        blocks keep them small next to it."""
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(20_000, 100)).round(4)
        path = tmp_path / "v.vec"
        path.write_text("".join(f"w{i} {' '.join(map(str, row))}\n"
                                for i, row in enumerate(rows.tolist())), encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 256)
        return path, rows

    def test_write_holds_the_parsed_matrix_once(self, tmp_path, big_text):
        path, rows = big_text
        cache = tmp_path / "v.cavs"
        _, peak = traced_peak(lambda: save_cache(load_vectors(path), cache))
        assert peak < 1.3 * rows.nbytes
        assert len(load_cache(cache)) == 20_000

    def test_text_load_holds_the_matrix_once(self, big_text):
        path, rows = big_text
        store, peak = traced_peak(lambda: load_vectors(path))
        assert peak < 1.3 * rows.nbytes
        assert len(store) == 20_000

    def test_cache_command_holds_one_block_not_the_matrix(self, tmp_path, big_text):
        # the token index and one 256-line block, not 20,000 rows
        path, rows = big_text
        cache = tmp_path / "v.cavs"
        code, peak = traced_peak(lambda: cli.main(["cache-vectors", "--vectors", str(path),
                                                   "--out", str(cache)]))
        assert code == 0
        assert peak < 0.25 * rows.nbytes
        assert np.array_equal(load_cache(cache).matrix, load_vectors(path).matrix)

    def test_cache_command_holds_the_kept_tokens_once(self, tmp_path):
        # 100,000 one-component records: their token strings and one ordered dict
        # of them, 10.7 MB traced; a token list beside a token -> row dict and
        # its ints took 14.3 MB
        path = tmp_path / "v.vec"
        path.write_text("".join(f"w{i} {i % 7 + 1}\n" for i in range(100_000)),
                        encoding="utf-8")
        (report, _), peak = traced_peak(
            lambda: embeddings.cache_vectors(path, tmp_path / "v.cavs"))
        assert report.accepted == 100_000
        assert peak < 12.5e6

    def test_cache_vocab_filter(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2]), ("c", [1, 1])])
        cache = tmp_path / "store.cavs"
        save_cache(store, cache)
        loaded = load_cache(cache, vocab_filter={"a", "c"})
        assert set(loaded.tokens) == {"a", "c"}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_a_cache.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError) as exc:
            load_cache(path)
        assert str(exc.value) == (f"{path}: not a cadict vector cache (bad magic); convert "
                                  "word-vectors text with `cadict cache-vectors` first")

    def test_truncated_cache_rejected(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        cache = tmp_path / "store.cavs"
        save_cache(store, cache)
        blob = cache.read_bytes()
        cache.write_bytes(blob[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_cache(cache)

    @pytest.mark.parametrize("vocab_filter", [None, {"b"}])
    def test_bytes_after_the_vector_data_rejected(self, tmp_path, vocab_filter):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2]), ("c", [1, 1])])
        cache = tmp_path / "store.cavs"
        save_cache(store, cache)
        with open(cache, "ab") as fh:
            fh.write(b"x" * 31)
        with pytest.raises(DataError) as exc:
            load_cache(cache, vocab_filter=vocab_filter)
        assert str(exc.value) == f"{cache}: corrupt cache: 31 bytes after the vector data"

    @pytest.mark.parametrize("keep, vocab_filter", [
        *(pytest.param(keep, None, id=str(keep)) for keep in (10, 12, 20, 40)),
        *(pytest.param(keep, {"b"}, id=f"{keep}-filtered") for keep in (10, 12, 20, 40, -1)),
    ])
    def test_cache_cut_anywhere_is_data_error(self, tmp_path, keep, vocab_filter):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        cache = tmp_path / "store.cavs"
        save_cache(store, cache)
        cache.write_bytes(cache.read_bytes()[:keep])
        with pytest.raises(DataError, match="truncated"):
            load_cache(cache, vocab_filter=vocab_filter)

    @pytest.mark.parametrize("piece", [1, 3, 7])
    def test_filtered_load_equals_the_kept_rows(self, tmp_path, monkeypatch, piece):
        # token-list pieces of a few bytes cut tokens, and their 2- and 3-byte characters
        monkeypatch.setattr(embeddings, "TOKEN_PIECE_BYTES", piece)
        rng = np.random.default_rng(7)
        tokens = ["w\u00e9\u65e5"[i % 3] + str(i) for i in range(50)]
        cache = tmp_path / "store.cavs"
        saved = store_from_raw(tokens, rng.normal(size=(50, 6)))
        save_cache(saved, cache)
        # scattered rows; whole kept chunks around a partial one; no filter at all,
        # whose blocks are read and checked on threads but with one usable CPU
        for kept in ({t for t in tokens if rng.random() < 0.3} | {tokens[0], tokens[49]},
                     set(tokens[:21]) | set(tokens[42:]) | {tokens[30]}, None):
            idx = [i for i, t in enumerate(tokens) if kept is None or t in kept]
            for rows_per_chunk, cpus in itertools.product((1, 3, 7, 50, 64), (1, 3)):
                # a chunk size that is not a whole number of rows reads whole rows
                monkeypatch.setattr(embeddings, "CHUNK_BYTES", rows_per_chunk * 6 * 8 + 5)
                monkeypatch.setattr(embeddings, "usable_cpus", lambda: cpus)
                part = load_cache(cache, vocab_filter=kept)
                assert part.tokens == tuple(tokens[i] for i in idx)
                assert part.matrix.tobytes() == saved.matrix[idx].tobytes()
                assert part.load_report == LoadReport(accepted=len(idx),
                                                      filtered_out=50 - len(idx))

    @staticmethod
    def _blocks_cache(tmp_path, monkeypatch) -> tuple[Path, VectorStore]:
        """A cache of 50 rows of 6 components, read and checked in blocks of 7
        rows: the last block holds row 49 alone."""
        monkeypatch.setattr(embeddings, "CHUNK_BYTES", 7 * 6 * 8)
        rng = np.random.default_rng(11)
        saved = store_from_raw([f"w{i}" for i in range(50)], rng.normal(size=(50, 6)))
        cache = tmp_path / "store.cavs"
        save_cache(saved, cache)
        return cache, saved

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_non_unit_row_in_the_last_block_is_corrupt(self, tmp_path, monkeypatch, cpus):
        cache, saved = self._blocks_cache(tmp_path, monkeypatch)
        monkeypatch.setattr(embeddings, "usable_cpus", lambda: cpus)
        blob = cache.read_bytes()
        cache.write_bytes(blob[:-48] + np.array([2.0, 0, 0, 0, 0, 0]).tobytes())
        for kept in (None, set(saved.tokens)):
            with pytest.raises(DataError) as exc:
                load_cache(cache, vocab_filter=kept)
            assert str(exc.value) == f"{cache}: corrupt cache: store rows must be unit-normalized"

    @pytest.mark.parametrize("tokens, error", [
        pytest.param("\n".join(f"w{i}" for i in range(25)).encode() + b"\xff" +
                     "\n".join(f"w{i}" for i in range(25, 50)).encode(),
                     "corrupt cache token list: 'utf-8' codec can't decode byte 0xff in "
                     "position 89: invalid start byte", id="undecodable"),
        pytest.param("\n".join(f"w{i}" for i in range(49)).encode(),
                     "cache token count mismatch", id="count"),
    ])
    @pytest.mark.parametrize("data", ["whole", "short", "long"])
    def test_token_list_error_waits_for_the_reads(self, tmp_path, monkeypatch, tokens, error,
                                                  data):
        # the rows are read on threads while the token list is decoded: its error
        # is raised once every block is read, and leaves no thread behind; a
        # cache whose vector data is short or long starts no read before it
        monkeypatch.setattr(embeddings, "CHUNK_BYTES", 7 * 6 * 8)
        monkeypatch.setattr(embeddings, "usable_cpus", lambda: 3)
        rows = np.eye(6)[np.arange(50) % 6].tobytes()
        rows = {"whole": rows, "short": rows[:-8], "long": rows + b"x" * 31}[data]
        header = b'{"count": 50, "dimension": 6, "dtype": "<f8", "source_id": "x", "version": 1}'
        cache = tmp_path / "store.cavs"
        cache.write_bytes(self._cache_bytes(header, tokens, rows))
        preadv, reads = os.preadv, []

        def slow_preadv(*args):
            time.sleep(0.02)
            reads.append(threading.current_thread())
            return preadv(*args)

        monkeypatch.setattr(os, "preadv", slow_preadv)
        before = threading.active_count()
        with pytest.raises(DataError) as exc:
            load_cache(cache)
        assert threading.active_count() == before
        assert str(exc.value) == f"{cache}: {error}"
        assert len(reads) == (8 if data == "whole" else 0)
        assert threading.current_thread() not in reads

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("bad", [0, 20, 49])
    def test_constructor_rejects_a_bad_row_in_any_block(self, tmp_path, monkeypatch, cpus, bad):
        _, saved = self._blocks_cache(tmp_path, monkeypatch)
        monkeypatch.setattr(embeddings, "usable_cpus", lambda: cpus)
        # a row a little long, and one whose squares overflow without a warning
        for row in (saved.matrix[bad] * 1.001, np.full(6, 1e200)):
            matrix = saved.matrix.copy()
            matrix[bad] = row
            with pytest.raises(ValueError, match="^store rows must be unit-normalized$"):
                VectorStore(saved.tokens, matrix, source_id="x")

    def test_the_first_failing_block_raises(self, monkeypatch):
        # pieces of one row on more threads than CPUs, switching threads often:
        # every piece from row 10 on raises, and row 10's error is the one seen
        monkeypatch.setattr(embeddings, "usable_cpus", lambda: 4)
        done = []

        def work(src, dst, rows):
            if dst >= 10:
                raise ValueError(dst)
            done.append(dst)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                done.clear()
                blocks = embeddings._Blocks(
                    work, list(embeddings._pieces(range(40), embeddings.CHUNK_BYTES)))
                assert blocks.threads == 4
                with pytest.raises(ValueError) as exc:
                    blocks.finish()
                assert exc.value.args == (10,)
                assert sorted(done) == list(range(10))
        finally:
            sys.setswitchinterval(interval)

    def test_load_logs_its_threads(self, tmp_path, monkeypatch, caplog):
        cache, saved = self._blocks_cache(tmp_path, monkeypatch)
        monkeypatch.setattr(embeddings, "usable_cpus", lambda: 2)
        with caplog.at_level("DEBUG", logger="cadict.embeddings"):
            load_cache(cache)
            load_cache(cache, vocab_filter=set(saved.tokens[:30]))
            monkeypatch.setattr(embeddings, "CHUNK_BYTES", 1 << 24)
            load_cache(cache)
        assert caplog.messages == [f"{cache}: 50 rows read on 2 threads",
                                   f"{cache}: 30 rows read on 1 thread",
                                   f"{cache}: 50 rows read on 1 thread"]

    def test_filtered_load_holds_only_the_kept_rows(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        tokens = [f"w{i}" for i in range(20_000)]
        cache = tmp_path / "store.cavs"
        save_cache(store_from_raw(tokens, rng.normal(size=(20_000, 100))), cache)
        monkeypatch.setattr(embeddings, "CHUNK_BYTES", 1 << 16)
        kept = set(tokens[::10])
        store, peak = traced_peak(lambda: load_cache(cache, vocab_filter=kept))
        assert len(store) == 2_000
        assert peak < 0.5 * 20_000 * 100 * 8

    def test_filtered_load_holds_only_the_kept_tokens(self, tmp_path):
        # 100,000 tokens of 6 characters: as Python strings they take about 6 MB
        rng = np.random.default_rng(9)
        tokens = [f"w{i:05d}" for i in range(100_000)]
        cache = tmp_path / "store.cavs"
        save_cache(store_from_raw(tokens, rng.normal(size=(100_000, 2))), cache)
        kept = set(tokens[::100])
        store, peak = traced_peak(lambda: load_cache(cache, vocab_filter=kept))
        assert store.tokens == tuple(tokens[::100])
        assert peak < 3_000_000  # one 64 kB piece of tokens is about 1.5 MB of strings

    @staticmethod
    def _cache_bytes(header: bytes, tokens: bytes, data: bytes = b"") -> bytes:
        return (CACHE_MAGIC + struct.pack("<I", len(header)) + header
                + struct.pack("<Q", len(tokens)) + tokens + data)

    @pytest.mark.parametrize("header", [
        b"{not json",
        b"\xff\xfe",
        b'{"count": 1, "source_id": "x"}',
        b'{"count": "many", "dimension": 2, "source_id": "x"}',
        b"[1, 2]",
        b'{"count": 1, "dimension": 0, "source_id": "x"}',
        pytest.param(b'{"count": 0, "dimension": 99999999999999999999, "source_id": "x"}',
                     id="empty-with-huge-dimension"),
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
    ])
    def test_corrupt_header_is_data_error(self, tmp_path, header):
        cache = tmp_path / "store.cavs"
        cache.write_bytes(self._cache_bytes(header, b"a", np.zeros(2).tobytes()))
        with pytest.raises(DataError, match="corrupt cache header"):
            load_cache(cache)

    @pytest.mark.parametrize("edit, named", [
        ({"dtype": "<f4"}, "dtype '<f4'"),
        ({"version": 2}, "version 2"),
        ({"version": True}, "version True"),
        ({"version": None}, "version None"),
    ], ids=["f4", "version-2", "version-true", "no-version"])
    def test_unknown_version_or_dtype_is_data_error(self, tmp_path, edit, named):
        # the header of a valid cache, edited by hand: the error names the value
        # it refuses, whatever the rest of the file holds
        header = {"count": 1, "dimension": 2, "dtype": "<f8", "source_id": "x", "version": 1}
        cache = tmp_path / "store.cavs"
        cache.write_bytes(self._cache_bytes(json.dumps({**header, **edit}).encode(), b"a",
                                            np.array([1.0, 0.0], dtype="<f4").tobytes()))
        with pytest.raises(DataError, match=f"unsupported cache {named}"):
            load_cache(cache)

    def test_undecodable_tokens_are_data_error(self, tmp_path):
        header = b'{"count": 1, "dimension": 2, "dtype": "<f8", "source_id": "x", "version": 1}'
        cache = tmp_path / "store.cavs"
        cache.write_bytes(self._cache_bytes(header, b"\xff", np.array([1.0, 0.0]).tobytes()))
        with pytest.raises(DataError, match="token list"):
            load_cache(cache)

    def test_huge_declared_length_is_truncation_not_allocation(self, tmp_path):
        cache = tmp_path / "store.cavs"
        cache.write_bytes(CACHE_MAGIC + struct.pack("<I", 2**32 - 1) + b"{}")
        with pytest.raises(DataError, match=str(cache)):
            load_cache(cache)

    def test_load_cache_refuses_a_pipe(self):
        # a pipe is no cache file: it is refused before it is read
        lines = [f"w{i:03d} {i + 1} 1 0 0\n" for i in range(3000)]
        read_fd, write_fd = os.pipe()
        os.write(write_fd, "".join(lines).encode())  # 48 KB: less than a pipe holds
        # the write end stays open, so that opening the read end does not block;
        # should the pipe be read to its end, it closes after 5 s so the test fails
        closed = []
        closer = threading.Timer(5.0, lambda: closed.append(os.close(write_fd)))
        closer.start()
        try:
            with pytest.raises(DataError, match=f"/dev/fd/{read_fd}: not a cadict vector cache"):
                load_cache(f"/dev/fd/{read_fd}", vocab_filter={line.split()[0] for line in lines})
        finally:
            closer.cancel()
            closer.join()
            os.close(read_fd)
            if not closed:
                os.close(write_fd)

    def test_load_cache_refuses_a_pipe_that_holds_a_cache(self, tmp_path):
        cache = cache_from_records(tmp_path / "v.vec", [("a", [1, 0]), ("b", [0, 2])])
        read_fd, write_fd = os.pipe()
        os.write(write_fd, cache.read_bytes())  # less than a pipe holds
        os.close(write_fd)
        try:
            with pytest.raises(DataError, match=f"^/dev/fd/{read_fd}: .*not a regular file"):
                load_cache(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)

    def test_load_cache_refuses_a_device(self):
        with pytest.raises(DataError, match="not a cadict vector cache"):
            load_cache(os.devnull, vocab_filter={"a"})

    def test_open_store_reads_a_cache(self, tmp_path):
        # the name under which perfbench/work.py loads its store
        cache = cache_from_records(tmp_path / "v.vec", [("a", [1, 0]), ("b", [0, 2]), ("c", [1, 1])])
        for kept in (None, {"a", "c"}):
            assert _outcome(open_store, cache, vocab_filter=kept) == \
                _outcome(load_cache, cache, vocab_filter=kept)
        assert "magic" in _outcome(open_store, tmp_path / "v.vec")

    def test_text_load_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        # `load_vectors` caches the text in a temporary directory, removed when
        # the load ends, also when the parse fails
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        good = write_vec_file(tmp_path / "v.vec", [("a", [1, 0]), ("b", [0, 2])])
        bad = tmp_path / "bad.vec"
        bad.write_text("a 1 0\nb 1 2 3\n", encoding="utf-8")
        assert load_vectors(good).source_id == str(good)
        with pytest.raises(DataError, match="line 2"):
            load_vectors(bad)
        assert list((tmp_path / "tmp").iterdir()) == []


class TestStoreConstruction:
    def test_from_raw_normalizes(self):
        store = store_from_raw(["a", "b"], [[3.0, 0.0], [0.0, 0.5]])
        assert store.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit"):
            VectorStore(["a"], np.array([[2.0, 0.0]]), source_id="x")

    @pytest.mark.parametrize("tokens, matrix", [
        (["a", "b"], np.array([[1.0, 0.0]])),  # fewer rows than tokens
        (["a"], np.array([1.0, 0.0])),  # not two-dimensional
    ])
    def test_constructor_rejects_shape_mismatch(self, tokens, matrix):
        with pytest.raises(ValueError, match="matrix shape does not match token count"):
            VectorStore(tokens, matrix, source_id="x")

    def test_empty_store_is_data_error(self):
        with pytest.raises(DataError, match="vector store from 'x' is empty"):
            VectorStore([], np.empty((0, 2)), source_id="x")

    @pytest.mark.parametrize("bad", ["a b", " a", "\x1c", ""])
    def test_constructor_rejects_bad_tokens(self, bad):
        with pytest.raises(ValueError, match=f"bad token for store: {re.escape(repr(bad))}"):
            VectorStore(["ok", bad], np.array([[1.0, 0.0], [0.0, 1.0]]), source_id="x")

    def test_overflowing_row_rejected_without_warning(self):
        # an overflowing row's norm is inf, and a NaN row's is NaN: neither is unit
        for row in ([1e200, 1e200], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="unit"):
                VectorStore(["a"], np.array([row]), source_id="x")
