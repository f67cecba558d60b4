import math
import struct

import numpy as np
import pytest

from cadict.embeddings import (
    CACHE_MAGIC,
    VectorStore,
    cosine,
    load_cache,
    load_vectors,
    open_store,
    save_cache,
)
from cadict.errors import DataError

from conftest import store_from_records, write_vec_file


class TestLoadVectors:
    def test_basic_load_and_normalization(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        assert len(store) == 2
        assert store.dimension == 2
        assert list(store.vector("b")) == [0.0, 1.0]
        assert store.load_report.accepted == 2

    def test_vocab_filter(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])],
                                   vocab_filter={"a"})
        assert len(store) == 1
        assert "a" in store and "b" not in store
        assert store.load_report.filtered_out == 1

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

    def test_duplicate_first_wins(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a 1 0\na 0 1\nb 0 1\n", encoding="utf-8")
        store = load_vectors(path)
        assert list(store.vector("a")) == [1.0, 0.0]
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
        assert list(store.vector("the")) == [1.0, 0.0]
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
            assert np.linalg.norm(store.vector(t)) == pytest.approx(1.0, abs=1e-6)

    def test_store_immutable(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 5.0

    def test_oov_lookup_names_token(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0])])
        with pytest.raises(DataError, match="'missing'"):
            store.vector("missing")


class TestCosine:
    def test_orthogonal(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 1])])
        assert cosine(store.get("a"), store.get("b")) == 0.0

    def test_colinear_scales(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 2]), ("b", [2, 4])])
        assert cosine(store.get("a"), store.get("b")) == pytest.approx(1.0, abs=1e-9)

    def test_known_value(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [1, 1])])
        expected = 1 / math.sqrt(2)
        assert cosine(store.get("a"), store.get("b")) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [(f"w{i}", rng.normal(size=8)) for i in range(20)]
        store = store_from_records(tmp_path, records)
        for i in range(0, 20, 3):
            for j in range(1, 20, 4):
                a, b = store.get(f"w{i}"), store.get(f"w{j}")
                assert cosine(a, b) == cosine(b, a)

    def test_self_similarity(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [(f"w{i}", rng.normal(size=8)) for i in range(30)]
        store = store_from_records(tmp_path, records)
        for t in store.tokens:
            assert cosine(store.get(t), store.get(t)) == pytest.approx(1.0, abs=1e-9)

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
                c1 = cosine(s1.get(f"w{i}"), s1.get(f"w{j}"))
                c2 = cosine(s2.get(f"w{i}"), s2.get(f"w{j}"))
                assert c1 == pytest.approx(c2, abs=1e-9)

    def test_dimension_mismatch_rejected(self, tmp_path):
        a = store_from_records(tmp_path, [("a", [1, 0])], name="d2.txt").get("a")
        b = store_from_records(tmp_path, [("b", [1, 0, 0])], name="d3.txt").get("b")
        with pytest.raises(ValueError, match="dimension"):
            cosine(a, b)


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
            assert np.max(np.abs(loaded.vector(t) - store.vector(t))) < 1e-7
            assert np.array_equal(loaded.vector(t), store.vector(t))

    def test_cache_vocab_filter(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2]), ("c", [1, 1])])
        cache = tmp_path / "store.cavs"
        save_cache(store, cache)
        loaded = load_cache(cache, vocab_filter={"a", "c"})
        assert set(loaded.tokens) == {"a", "c"}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_a_cache.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_cache(path)

    def test_truncated_cache_rejected(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        cache = tmp_path / "store.cavs"
        save_cache(store, cache)
        blob = cache.read_bytes()
        cache.write_bytes(blob[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_cache(cache)

    @pytest.mark.parametrize("keep", [10, 12, 20, 40])
    def test_cache_cut_anywhere_is_data_error(self, tmp_path, keep):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        cache = tmp_path / "store.cavs"
        save_cache(store, cache)
        cache.write_bytes(cache.read_bytes()[:keep])
        with pytest.raises(DataError, match="truncated"):
            load_cache(cache)

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
    ])
    def test_corrupt_header_is_data_error(self, tmp_path, header):
        cache = tmp_path / "store.cavs"
        cache.write_bytes(self._cache_bytes(header, b"a", np.zeros(2).tobytes()))
        with pytest.raises(DataError, match="corrupt cache header"):
            load_cache(cache)

    def test_undecodable_tokens_are_data_error(self, tmp_path):
        header = b'{"count": 1, "dimension": 2, "source_id": "x"}'
        cache = tmp_path / "store.cavs"
        cache.write_bytes(self._cache_bytes(header, b"\xff", np.array([1.0, 0.0]).tobytes()))
        with pytest.raises(DataError, match="token list"):
            load_cache(cache)

    def test_huge_declared_length_is_truncation_not_allocation(self, tmp_path):
        cache = tmp_path / "store.cavs"
        cache.write_bytes(CACHE_MAGIC + struct.pack("<I", 2**32 - 1) + b"{}")
        with pytest.raises(DataError, match=str(cache)):
            load_cache(cache)

    def test_open_store_sniffs_format(self, tmp_path):
        records = [("a", [1, 0]), ("b", [0, 2])]
        text_path = write_vec_file(tmp_path / "v.txt", records)
        store = open_store(text_path)
        cache = tmp_path / "v.cavs"
        save_cache(store, cache)
        via_cache = open_store(cache)
        assert set(via_cache.tokens) == set(store.tokens)
        assert cosine(via_cache.get("a"), via_cache.get("b")) == \
            cosine(store.get("a"), store.get("b"))


class TestStoreConstruction:
    def test_from_raw_normalizes(self):
        store = VectorStore.from_raw(["a", "b"], [[3.0, 0.0], [0.0, 0.5]])
        assert list(store.vector("a")) == [1.0, 0.0]
        assert list(store.vector("b")) == [0.0, 1.0]

    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit"):
            VectorStore(["a"], np.array([[2.0, 0.0]]), source_id="x")

    def test_constructor_rejects_bad_tokens(self):
        with pytest.raises(ValueError, match="token"):
            VectorStore.from_raw(["a b"], [[1.0, 0.0]])

    def test_from_raw_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            VectorStore.from_raw(["a"], [[0.0, 0.0]])
