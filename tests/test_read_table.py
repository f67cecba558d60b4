"""The block-wise table reader against its per-row oracle, and the chunked
dictionary writer against its per-row one."""

from unittest import mock

import numpy as np
import pytest

from cadict import lexicon, rater
from cadict.errors import DataError
from cadict.lexicon import COUNTS, PREDICTIONS, RATINGS, WORDS, read_table
from cadict.rater import BatchRating, SemanticCore, build_dictionary

from oracles import read_table_by_row, write_dictionary_by_row

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KINDS = {"ratings": RATINGS, "counts": COUNTS, "predictions": PREDICTIONS, "words": WORDS}
BOM = "\ufeff"

# tokens that fold together, multiword ones (a plain space, U+00A0, U+2003),
# blank ones, one that reads as a number, and values that parse, do not, or
# fall outside a kind's range
TOKENS = ["dog", "Dog", "DOG", "cat", " cat ", "emu", "ice cream", "ice\u00a0cream",
          "ice\u2003cream", "", " ", "\u03a3", "word", "7"]
VALUES = ["4.5", "3", "1", "5", "0", "-1", "6", "1_0", "nan", "inf", "-inf", "1e999",
          "2.5e0", " 2 ", "", "abc", "rating", "NOUN", "\u0663"]
BLANKS = ["", " ", "\t", " \t "]
HEADERS = ["word\trating", "Word\tPOS"]

row = st.tuples(st.sampled_from(TOKENS), st.lists(st.sampled_from(VALUES), max_size=3)).map(
    lambda r: "\t".join([r[0], *r[1]]))
table_text = st.tuples(
    st.sampled_from(["", BOM]),
    st.lists(st.sampled_from(BLANKS), max_size=2),
    st.one_of(st.none(), st.sampled_from(HEADERS)),
    st.lists(st.one_of(row, row, row, st.sampled_from(BLANKS)), max_size=30),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
).map(lambda t: t[0] + t[4].join(t[1] + ([t[2]] if t[2] else []) + t[3])
      + (t[4] if t[5] and (t[1] or t[2] or t[3]) else ""))


def _outcome(read):
    """A read's entries in order with their value types, and its report; or
    its DataError message."""
    try:
        entries, report = read()
    except DataError as exc:
        return str(exc)
    return [(t, v, type(v)) for t, v in entries.items()], report


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=table_text, kind=st.sampled_from(sorted(KINDS)), fold_case=st.booleans(),
       vocab_filter=st.one_of(st.none(), st.just({"dog", "cat", "ice cream", "\u03c3"})),
       block=st.sampled_from([1, 2, 7, 64]))
@example(text="dog\tNOUN\ncat\tNOUN\nrun\tVERB\n", kind="words", fold_case=True,
         vocab_filter=None, block=64)
@example(text="\n \nword\trating\n\ndog\t4.5\nDog\t2\n", kind="words", fold_case=True,
         vocab_filter=None, block=2)
@example(text="dog\t4.5\ncat\t3\nDOG\t2\ncat\t1\n", kind="ratings", fold_case=True,
         vocab_filter=None, block=2)
@example(text="dog\tnan\ncat\t2\n", kind="ratings", fold_case=True, vocab_filter=None,
         block=64)
@example(text="dog\t4.5\nemu\t3\ncat\t3\t4\n5\n", kind="predictions", fold_case=True,
         vocab_filter=None, block=64)  # after the first row, as many cells as 2-field rows
def test_reader_equals_the_per_row_oracle(tmp_path, text, kind, fold_case, vocab_filter, block):
    path = tmp_path / "table.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(lambda: read_table_by_row(path, fold_case, kind, vocab_filter))
    with mock.patch.object(lexicon, "TABLE_BLOCK_LINES", block):
        got = _outcome(lambda: read_table(path, fold_case, KINDS[kind], vocab_filter))
    assert got == expected


def _well_formed(kind, n, bad_after=None, multiword_every=None):
    """`n` rows of `kind` that keep its rules, after a header where the kind has
    one; with `bad_after`, a row with a blank token follows that row, and with
    `multiword_every`, every such row's token is two words."""
    header = ["word\trating\n"] if kind != "words" else []
    row = {"ratings": "W{0}\t{1}.5\n", "counts": "w{0}\t{0}\n",
           "predictions": "w{0}\t0.{0}\t{1}.25\t-\n", "words": "w{0}\n"}[kind]
    rows = [row.format(i, 1 + i % 4) for i in range(n)]
    if multiword_every:
        rows[::multiword_every] = ["x " + r for r in rows[::multiword_every]]
    if bad_after is not None:
        rows.insert(bad_after + 1, "\t\n")
    return "".join(header + rows)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_well_formed_table_parses_no_row_alone(tmp_path, kind):
    # the speed of the block path, checked without timing it: no row of a
    # well-formed table goes through the per-row rules, and the result is the oracle's
    path = tmp_path / "table.tsv"
    path.write_text(_well_formed(kind, 100_000), encoding="utf-8")
    with mock.patch.object(lexicon, "_row_value", wraps=lexicon._row_value) as per_row:
        entries, report = read_table(path, True, KINDS[kind])
    assert per_row.call_count == 0
    assert report.accepted == 100_000
    oracle_entries, oracle_report = read_table_by_row(path, True, kind)
    assert list(entries.items()) == list(oracle_entries.items())
    assert report == oracle_report

    # nor does a row of a table whose every 14th token is two words, 7% of
    # rows as in real norms: a ratings table drops those rows and keeps the rest
    path.write_text(_well_formed(kind, 100_000, multiword_every=14), encoding="utf-8")
    with mock.patch.object(lexicon, "_row_value", wraps=lexicon._row_value) as per_row:
        entries, report = read_table(path, True, KINDS[kind])
    assert per_row.call_count == 0
    assert report.multiword_excluded == (7143 if kind == "ratings" else 0)
    oracle_entries, oracle_report = read_table_by_row(path, True, kind)
    assert list(entries.items()) == list(oracle_entries.items())
    assert report == oracle_report

    # a bad row sends only its own block through them
    path.write_text(_well_formed(kind, 100_000, bad_after=77_777), encoding="utf-8")
    with mock.patch.object(lexicon, "_row_value", wraps=lexicon._row_value) as per_row:
        try:
            read_table(path, True, KINDS[kind])
        except DataError:  # a predictions read stops at the refused row
            pass
    assert 0 < per_row.call_count <= lexicon.TABLE_BLOCK_LINES


def test_word_list_of_words_and_tags_keeps_its_first_word(tmp_path):
    path = tmp_path / "words.tsv"
    path.write_text("dog\tNOUN\ncat\tNOUN\nrun\tVERB\n", encoding="utf-8")
    entries, report = read_table(path, True, WORDS)
    assert list(entries) == ["dog", "cat", "run"]
    assert report.accepted == 3
    # a ratings TSV read as a word list still loses its header
    path.write_text("Word\tRating\n\ndog\t4.85\ncat\t4.9\n", encoding="utf-8")
    assert list(read_table(path, True, WORDS)[0]) == ["dog", "cat"]
    # with no row after it, a lone first row is a word
    path.write_text("word\tpos\n", encoding="utf-8")
    assert list(read_table(path, True, WORDS)[0]) == ["word"]


def test_bad_row_before_an_undecodable_byte_is_reported_first(tmp_path):
    # the decoder reads 8 KiB at a time; the rows read before the chunk that
    # holds the bad byte are still checked, so line 2's error is the one given
    path = tmp_path / "pred.tsv"
    good = "".join(f"w{i}\t{i}.5\n" for i in range(2000)).encode("utf-8")
    path.write_bytes(b"a\t1.0\nb\tx\n" + good + b"\xff\t2.0\n")
    with pytest.raises(DataError) as exc:
        read_table(path, True, PREDICTIONS)
    assert str(exc.value) == f"{path}: line 2: unparseable rating 'x'"
    with pytest.raises(DataError) as oracle:
        read_table_by_row(path, True, "predictions")
    assert str(oracle.value) == str(exc.value)


def _batch(raw, scaled, floored):
    tokens = tuple(f"w{i}" for i in range(len(raw) - 2)) + ("50%", "%s")
    return BatchRating(tokens=tokens, raw=np.array(raw, dtype=np.float64),
                       scaled=np.array(scaled, dtype=np.float64),
                       floored=np.array(floored, dtype=bool), skipped=())


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_dictionary_bytes_equal_the_per_row_writer(tmp_path, monkeypatch, chunk):
    # raw values where %.9g turns to exponent form or rounds up to it, and
    # scaled values on a rounding edge; floored rows in between; tokens with %
    rng = np.random.default_rng(5)
    edge_raw = [1e-05, 123456789.5, 1234567890.5, 999999999.7, 0.1, 1 / 3, 1e16, 5e-324,
                1e6, 2.5, 1.0]
    edge_scaled = [1.0, 5.0, 1.0005, 2.0015, 4.9995, 3.0, 1.2345, 2.5, 4.0625, 1.001, 3.3335]
    raw = edge_raw + (10.0 ** rng.uniform(-8, 10, 9990)).tolist()
    scaled = edge_scaled + rng.uniform(1.0, 5.0, 9990).tolist()
    batch = _batch(raw, scaled, rng.random(len(raw)) < 0.3)
    monkeypatch.setattr(rater, "rate_all", lambda *args: batch)
    monkeypatch.setattr(rater, "DICTIONARY_CHUNK_ROWS", chunk)
    core = SemanticCore(("a",), ("b",))
    summary = build_dictionary(core, None, None, tmp_path / "chunked.tsv")
    write_dictionary_by_row(batch, tmp_path / "by_row.tsv")
    assert (tmp_path / "chunked.tsv").read_bytes() == (tmp_path / "by_row.tsv").read_bytes()
    assert (summary.rated, summary.floored) == (len(raw), int(batch.floored.sum()))
