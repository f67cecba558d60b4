import math
import struct

import numpy as np
import pytest

from cadict.embeddings import (
    CACHE_MAGIC,
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

from conftest import store_from_raw, store_from_records, write_vec_file


class TestLoadVectors:
    def test_basic_load_and_normalization(self, tmp_path):
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 2])])
        assert len(store) == 2
        assert store.dimension == 2
        assert list(store.matrix[store.row_index("b")]) == [0.0, 1.0]
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

    def test_underflowing_norm_counted_as_zero_norm(self, tmp_path):
        # its squared norm is subnormal, too inexact to make a unit row
        path = tmp_path / "tiny.txt"
        path.write_text("a 1e-160 1e-160\nb 0 1\n", encoding="utf-8")
        store = load_vectors(path)
        assert store.tokens == ("b",)
        assert store.load_report.zero_norm_skipped == 1

    def test_non_finite_counted_apart_from_zero_norm(self, tmp_path, caplog):
        path = tmp_path / "nonfinite.txt"
        path.write_text("a 1 0\nb nan 1\nc 0 0\nd inf 1\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            store = load_vectors(path)
        assert store.tokens == ("a",)
        assert store.load_report.zero_norm_skipped == 1
        assert store.load_report.non_finite_skipped == 2
        assert "zero_norm_skipped=1, non_finite_skipped=2" in caplog.text

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
        pytest.param(b'{"count": 0, "dimension": 99999999999999999999, "source_id": "x"}',
                     id="empty-with-huge-dimension"),
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
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
        assert via_cache.tokens == store.tokens
        assert np.array_equal(via_cache.matrix, store.matrix)


class TestStoreConstruction:
    def test_from_raw_normalizes(self):
        store = store_from_raw(["a", "b"], [[3.0, 0.0], [0.0, 0.5]])
        assert store.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="unit"):
            VectorStore(["a"], np.array([[2.0, 0.0]]), source_id="x")

    def test_constructor_rejects_bad_tokens(self):
        with pytest.raises(ValueError, match="token"):
            VectorStore(["a b"], np.array([[1.0, 0.0]]), source_id="x")

    def test_overflowing_row_rejected_without_warning(self):
        # an overflowing row's norm is inf, and a NaN row's is NaN: neither is unit
        for row in ([1e200, 1e200], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="unit"):
                VectorStore(["a"], np.array([row]), source_id="x")
