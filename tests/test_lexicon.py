import numpy as np
import pytest

from cadict.errors import DataError, InfeasibleError
from cadict.lexicon import (
    BaseDictionary,
    load_frequencies,
    load_ratings,
    select_base,
    select_pools,
    FrequencyList,
    RatingLexicon,
)

from conftest import store_from_records


def write_tsv(path, rows):
    path.write_text("".join(f"{a}\t{b}\n" for a, b in rows), encoding="utf-8")
    return path


class TestLoadRatings:
    def test_passthrough(self, tmp_path):
        lex = load_ratings(write_tsv(tmp_path / "r.tsv", [("dog", 4.85), ("idea", 1.61)]))
        assert len(lex) == 2
        assert lex.rating("dog") == 4.85
        assert lex.rating("idea") == 1.61

    def test_multiword_excluded(self, tmp_path):
        lex = load_ratings(write_tsv(tmp_path / "r.tsv",
                                     [("ice cream", 4.9), ("dog", 4.85)]))
        assert len(lex) == 1
        assert "ice cream" not in lex
        assert lex.report.multiword_excluded == 1

    def test_out_of_range_rejected(self, tmp_path):
        rows = [("dog", 7.0)] + [(f"w{i}", 3.0) for i in range(20)]
        lex = load_ratings(write_tsv(tmp_path / "r.tsv", rows))
        assert "dog" not in lex
        assert lex.report.rejected == 1

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("Word\tRating\ndog\t4.85\n", encoding="utf-8")
        lex = load_ratings(path)
        assert len(lex) == 1
        assert lex.report.rejected == 0

    def test_too_many_rejects_is_hard_error(self, tmp_path):
        rows = [("a", 3.0), ("b", 9.0)]  # 50% rejected
        with pytest.raises(DataError, match="10%"):
            load_ratings(write_tsv(tmp_path / "r.tsv", rows))

    def test_duplicate_first_wins(self, tmp_path):
        lex = load_ratings(write_tsv(tmp_path / "r.tsv", [("dog", 4.0), ("dog", 2.0)]))
        assert lex.rating("dog") == 4.0
        assert lex.report.duplicates_ignored == 1

    def test_case_folding(self, tmp_path):
        lex = load_ratings(write_tsv(tmp_path / "r.tsv", [("Dog", 4.0)]))
        assert "dog" in lex

    def test_unparseable_row_counted(self, tmp_path):
        rows = [(f"w{i}", 3.0) for i in range(20)]
        path = tmp_path / "r.tsv"
        body = "".join(f"{a}\t{b}\n" for a, b in rows) + "broken-row\n"
        path.write_text(body, encoding="utf-8")
        lex = load_ratings(path)
        assert len(lex) == 20
        assert lex.report.rejected == 1


class TestLoadFrequencies:
    def test_large_count_accepted(self, tmp_path):
        freq = load_frequencies(write_tsv(tmp_path / "f.tsv", [("the", 23135851162)]))
        assert freq.count("the") == 23135851162

    def test_negative_rejected(self, tmp_path):
        freq = load_frequencies(write_tsv(tmp_path / "f.tsv", [("x", -1), ("a", 5)]))
        assert "x" not in freq
        assert freq.report.rejected == 1

    def test_non_integer_rejected(self, tmp_path):
        freq = load_frequencies(write_tsv(tmp_path / "f.tsv", [("x", "1.5"), ("a", 5)]))
        assert "x" not in freq
        assert freq.report.rejected == 1

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "f.tsv"
        path.write_text("", encoding="utf-8")
        with caplog.at_level("WARNING"):
            freq = load_frequencies(path)
        assert len(freq) == 0
        assert any("empty" in r.message for r in caplog.records)

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("word\tcount\nthe\t100\n", encoding="utf-8")
        freq = load_frequencies(path)
        assert len(freq) == 1
        assert freq.report.rejected == 0


def _simple_inputs(tmp_path):
    lex = RatingLexicon({"a": 1.2, "b": 4.8, "c": 3.0})
    freq = FrequencyList({"a": 10, "b": 5, "c": 1})
    store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 1]), ("c", [1, 1])])
    return lex, freq, store


class TestSelectBase:
    def test_top_by_frequency(self, tmp_path):
        lex, freq, store = _simple_inputs(tmp_path)
        base = select_base(lex, freq, store, 2)
        assert base.tokens == ("a", "b")
        assert list(base.ratings) == [1.2, 4.8]
        assert base.frequencies == (10, 5)
        assert base.x == 2

    def test_shortfall_reports_maximum(self, tmp_path):
        lex, freq, store = _simple_inputs(tmp_path)
        with pytest.raises(InfeasibleError, match="only 3"):
            select_base(lex, freq, store, 4)

    def test_store_intersection(self, tmp_path):
        lex = RatingLexicon({"a": 1.2, "b": 4.8, "c": 3.0})
        freq = FrequencyList({"a": 10, "b": 5, "c": 1})
        store = store_from_records(tmp_path, [("a", [1, 0]), ("b", [0, 1])])
        with pytest.raises(InfeasibleError, match="only 2"):
            select_base(lex, freq, store, 3)

    def test_frequency_tie_breaks_lexicographic(self, tmp_path):
        lex = RatingLexicon({"z": 1.0, "m": 2.0, "a": 3.0})
        freq = FrequencyList({"z": 5, "m": 5, "a": 5})
        store = store_from_records(tmp_path, [("z", [1, 0]), ("m", [0, 1]), ("a", [1, 1])])
        base = select_base(lex, freq, store, 2)
        assert base.tokens == ("a", "m")

    def test_deterministic(self, tmp_path):
        lex, freq, store = _simple_inputs(tmp_path)
        b1 = select_base(lex, freq, store, 3)
        b2 = select_base(lex, freq, store, 3)
        assert b1.tokens == b2.tokens
        assert b1.frequencies == b2.frequencies
        assert np.array_equal(b1.ratings, b2.ratings)


def _base(tokens_ratings, freqs=None):
    tokens = tuple(t for t, _ in tokens_ratings)
    ratings = np.array([r for _, r in tokens_ratings], dtype=float)
    if freqs is None:
        freqs = tuple(range(len(tokens), 0, -1))
    return BaseDictionary(tokens=tokens, ratings=ratings, frequencies=tuple(freqs))


class TestSelectPools:
    def test_order_statistics(self):
        base = _base([("a", 1.0), ("b", 2.0), ("c", 3.0),
                      ("d", 4.0), ("e", 4.5), ("f", 5.0)])
        pools = select_pools(base, 2)
        assert pools.abstract == ("a", "b")
        assert pools.concrete == ("f", "e")

    def test_boundary_accepted(self):
        base = _base([(f"w{i}", 1 + i * 0.5) for i in range(9)])
        pools = select_pools(base, 3)  # Y = X/3 exactly
        assert len(pools.abstract) == len(pools.concrete) == 3

    def test_boundary_exceeded(self):
        base = _base([(f"w{i}", 1 + i * 0.5) for i in range(9)])
        with pytest.raises(InfeasibleError):
            select_pools(base, 4)

    def test_rating_tie_prefers_higher_frequency(self):
        base = _base([("a", 1.0), ("b", 1.0), ("c", 3.0), ("d", 3.0),
                      ("e", 5.0), ("f", 5.0)],
                     freqs=(1, 9, 5, 5, 2, 8))
        pools = select_pools(base, 2)
        assert pools.abstract == ("b", "a")  # tie at 1.0: b has the higher count
        assert pools.concrete == ("f", "e")

    def test_pools_never_overlap_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            ratings = np.round(rng.uniform(1, 5, size=n), 1)  # coarse: force ties
            base = _base([(f"w{i:02d}", float(r)) for i, r in enumerate(ratings)],
                         freqs=tuple(int(c) for c in rng.integers(1, 5, size=n)))
            y = int(rng.integers(1, max(2, n // 3 + 1)))
            if y > n // 3:
                continue
            pools = select_pools(base, y)
            assert not set(pools.abstract) & set(pools.concrete)
            assert len(pools.abstract) == len(pools.concrete) == y

    def test_abstract_rated_at_most_concrete(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            ratings = np.round(rng.uniform(1, 5, size=n), 1)
            base = _base([(f"w{i:02d}", float(r)) for i, r in enumerate(ratings)])
            y = n // 3
            if y < 1:
                continue
            pools = select_pools(base, y)
            by_token = dict(zip(base.tokens, base.ratings))
            max_abstract = max(by_token[t] for t in pools.abstract)
            min_concrete = min(by_token[t] for t in pools.concrete)
            assert max_abstract <= min_concrete
