import math

import numpy as np
import pytest

from cadict.embeddings import LoadReport
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

from conftest import store_from_raw, store_from_records
from oracles import pools_by_rule, tokens_of


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

    @pytest.mark.parametrize("rating", [0.5, 5.5])
    def test_constructor_rejects_rating_outside_scale(self, rating):
        with pytest.raises(ValueError, match=rf"rating out of \[1, 5\] for 'dog': {rating}"):
            RatingLexicon({"cat": 3.0, "dog": rating})

    def test_constructor_rejects_nan_rating(self):
        # NaN lies in no range; the first rating outside [1, 5] is named
        for entries in ({"cat": 3.0, "dog": math.nan}, {"cat": 3.0, "dog": math.nan, "emu": 9.0}):
            with pytest.raises(ValueError, match=r"rating out of \[1, 5\] for 'dog': nan"):
                RatingLexicon(entries)

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("Word\tRating\ndog\t4.85\n", encoding="utf-8")
        lex = load_ratings(path)
        assert len(lex) == 1
        assert lex.report.rejected == 0

    def test_header_after_blank_lines_autodetected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("\n  \nWord\tRating\n" + "".join(f"w{i}\t3.0\n" for i in range(5)),
                        encoding="utf-8")
        lex = load_ratings(path)
        assert len(lex) == 5
        assert lex.report == LoadReport(accepted=5)

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
        rows = [("x", -1)] + [(f"w{i}", 5) for i in range(20)]
        freq = load_frequencies(write_tsv(tmp_path / "f.tsv", rows))
        assert "x" not in freq
        assert freq.report.rejected == 1

    def test_constructor_rejects_negative_count(self):
        with pytest.raises(ValueError, match="negative count for 'x': -1"):
            FrequencyList({"the": 5, "x": -1})

    def test_constructor_checks_counts_beside_nan(self):
        # a NaN count is refused by name, as it would misorder `select_base`'s
        # sort; a negative count before it keeps its own message
        with pytest.raises(ValueError, match="NaN count for 'nan': nan"):
            FrequencyList({"the": 5, "nan": math.nan, "x": -1})
        with pytest.raises(ValueError, match="negative count for 'x': -1"):
            FrequencyList({"the": 5, "x": -1, "nan": math.nan})

    def test_non_integer_rejected(self, tmp_path):
        rows = [("x", "1.5")] + [(f"w{i}", 5) for i in range(20)]
        freq = load_frequencies(write_tsv(tmp_path / "f.tsv", rows))
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

    def test_vocab_filter_keeps_only_its_words(self, tmp_path):
        # a valid row outside the filter is filtered out before the duplicate
        # check; a bad row is still rejected, and the 10% rule counts every row
        rows = [("The", 9), ("cat", 5), ("the", 3), ("dog", -1), ("CAT", 2), ("emu", 1),
                *((f"w{i}", 1) for i in range(10))]
        path = write_tsv(tmp_path / "f.tsv", rows)
        freq = load_frequencies(path, vocab_filter={"the", "emu"})
        assert (len(freq), freq.count("the"), freq.count("emu")) == (2, 9, 1)
        assert freq.report == LoadReport(accepted=2, rejected=1, duplicates_ignored=1,
                                         filtered_out=12)
        bad = write_tsv(tmp_path / "bad.tsv", rows + [("x", "1.5")] * 8)
        with pytest.raises(DataError, match=r"9 of 24 rows rejected"):
            load_frequencies(bad, vocab_filter={"the"})


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
        assert base.x == 2

    def test_shortfall_reports_maximum(self, tmp_path):
        lex, freq, store = _simple_inputs(tmp_path)
        with pytest.raises(InfeasibleError, match="only 3"):
            select_base(lex, freq, store, 4)

    @pytest.mark.parametrize("x", [0, -1])
    def test_non_positive_size_rejected(self, tmp_path, x):
        lex, freq, store = _simple_inputs(tmp_path)
        with pytest.raises(ValueError, match="x must be a positive integer"):
            select_base(lex, freq, store, x)

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
        assert base.rows.tolist() == [2, 1]  # their store rows

    def test_order_is_count_descending_then_token(self, tmp_path):
        # many equal counts, in neither token nor count order
        rng = np.random.default_rng(12)
        tokens = [f"w{i:03d}" for i in rng.permutation(200)]
        lex = RatingLexicon({t: 3.0 for t in tokens})
        freq = FrequencyList({t: int(c) for t, c in zip(tokens, rng.integers(0, 6, 200))})
        store = store_from_records(tmp_path, [(t, [1, 1]) for t in tokens])
        expected = sorted(tokens, key=lambda t: (-freq.count(t), t))[:150]
        assert select_base(lex, freq, store, 150).tokens == tuple(expected)

    def test_deterministic(self, tmp_path):
        lex, freq, store = _simple_inputs(tmp_path)
        b1 = select_base(lex, freq, store, 3)
        b2 = select_base(lex, freq, store, 3)
        assert b1.tokens == b2.tokens
        assert np.array_equal(b1.ratings, b2.ratings)


def _base(tokens_ratings):
    """A base dictionary in the given order, as if `select_base` had ranked it
    from a store that holds its words in that order."""
    tokens = tuple(t for t, _ in tokens_ratings)
    ratings = np.array([r for _, r in tokens_ratings], dtype=float)
    return BaseDictionary(tokens=tokens, rows=np.arange(len(tokens)), ratings=ratings)


class TestSelectPools:
    def test_order_statistics(self):
        base = _base([("a", 1.0), ("b", 2.0), ("c", 3.0),
                      ("d", 4.0), ("e", 4.5), ("f", 5.0)])
        pools = select_pools(base, 2)
        assert tokens_of(base.tokens, pools.abstract) == ("a", "b")
        assert tokens_of(base.tokens, pools.concrete) == ("f", "e")

    def test_boundary_accepted(self):
        base = _base([(f"w{i}", 1 + i * 0.5) for i in range(9)])
        pools = select_pools(base, 3)  # Y = X/3 exactly
        assert len(pools.abstract) == len(pools.concrete) == 3

    def test_boundary_exceeded(self):
        base = _base([(f"w{i}", 1 + i * 0.5) for i in range(9)])
        with pytest.raises(InfeasibleError):
            select_pools(base, 4)

    @pytest.mark.parametrize("y", [0, -1])
    def test_non_positive_size_rejected(self, y):
        base = _base([(f"w{i}", 1 + i * 0.5) for i in range(9)])
        with pytest.raises(ValueError, match="y must be a positive integer"):
            select_pools(base, y)

    def test_rating_tie_prefers_higher_frequency(self):
        ratings = {"a": 1.0, "b": 1.0, "c": 3.0, "d": 3.0, "e": 5.0, "f": 5.0}
        counts = {"a": 1, "b": 9, "c": 5, "d": 5, "e": 2, "f": 8}
        store = store_from_raw(list(ratings), np.eye(6))
        base = select_base(RatingLexicon(ratings), FrequencyList(counts), store, 6)
        pools = select_pools(base, 2)
        # tie at 1.0: b has the higher count
        assert tokens_of(store.tokens, pools.abstract) == ("b", "a")
        assert tokens_of(store.tokens, pools.concrete) == ("f", "e")

    def test_pools_never_overlap_random(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            ratings = np.round(rng.uniform(1, 5, size=n), 1)  # coarse: force ties
            base = _base([(f"w{i:02d}", float(r)) for i, r in enumerate(ratings)])
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
            max_abstract = max(by_token[t] for t in tokens_of(base.tokens, pools.abstract))
            min_concrete = min(by_token[t] for t in tokens_of(base.tokens, pools.concrete))
            assert max_abstract <= min_concrete

    def test_matches_the_rating_count_token_rule(self):
        # frequency reaches the pools only through the base order, so the
        # pools must equal the rule that sorts on the counts themselves
        rng = np.random.default_rng(23)
        for _ in range(2000):
            n = int(rng.integers(3, 40))
            tokens = [f"w{i:02d}" for i in rng.permutation(n)]
            ratings = {t: float(r) for t, r in zip(tokens, rng.integers(1, 6, size=n))}
            counts = {t: int(c) for t, c in zip(tokens, rng.integers(0, 4, size=n))}
            store = store_from_raw(tokens, rng.normal(size=(n, 2)))
            x = int(rng.integers(3, n + 1))
            base = select_base(RatingLexicon(ratings), FrequencyList(counts), store, x)
            y = int(rng.integers(1, x // 3 + 1))
            pools = select_pools(base, y)
            assert ((tokens_of(store.tokens, pools.abstract),
                     tokens_of(store.tokens, pools.concrete)) == pools_by_rule(base, y, counts))
