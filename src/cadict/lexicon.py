"""Expert ratings and frequency lists; base-dictionary and candidate-pool selection.

The working vocabulary everywhere downstream is the three-way intersection of
expert ratings, the frequency list, and the vector store. Multiword lexicon
entries are dropped at load: static vector files key on single tokens.
"""

from __future__ import annotations

import logging
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path
from typing import Any, Callable, Container, Iterator

import numpy as np

from cadict.embeddings import LoadReport, VectorStore
from cadict.errors import DataError, InfeasibleError, open_text

logger = logging.getLogger(__name__)


class RatingLexicon:
    """Token -> expert rating on the 1 (most abstract) .. 5 (most concrete) scale."""

    def __init__(self, entries: dict[str, float], report: LoadReport | None = None):
        for token, rating in entries.items():
            if not 1.0 <= rating <= 5.0:
                raise ValueError(f"rating out of [1, 5] for {token!r}: {rating}")
        self._entries = dict(entries)
        self.report = report or LoadReport(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def rating(self, token: str) -> float:
        return self._entries[token]

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._entries)


class FrequencyList:
    """Token -> corpus count, used to rank words by frequency."""

    def __init__(self, entries: dict[str, int], report: LoadReport | None = None):
        for token, count in entries.items():
            if count < 0:
                raise ValueError(f"negative count for {token!r}: {count}")
        self._entries = dict(entries)
        self.report = report or LoadReport(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def count(self, token: str) -> int:
        return self._entries[token]


@dataclass(frozen=True, eq=False)
class BaseDictionary:
    """The X most frequent expert-rated in-store words, frequency-descending,
    equal counts in token order; `select_pools` relies on that order. `rows`
    holds each word's vector-store row, resolved once here for the search."""

    tokens: tuple[str, ...]
    rows: np.ndarray
    ratings: np.ndarray

    @property
    def x(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, eq=False)
class CandidatePools:
    """Y most abstract and Y most concrete base words, as vector-store row
    arrays; always disjoint."""

    abstract: np.ndarray
    concrete: np.ndarray


@dataclass(frozen=True)
class TableKind:
    """The rules of one kind of `token TAB value ...` table, stated once:
    `read_table` checks whole blocks of rows against them, and goes row by row
    only to find the row that breaks one.

    A row has `min_fields` to `max_fields` tab-separated fields. `value` parses
    the second field, which must then lie in [`lo`, `hi`]; a kind without one is
    a word list, whose rows have no value. With `multiword`, a row whose token
    is more than one word is dropped as `multiword_excluded`. A row that breaks
    another rule is counted as `rejected`, or, when the kind has `refusals`, is
    a DataError with the message for its rule: the width, the parse, the range.
    """

    min_fields: int = 1
    max_fields: float = math.inf
    value: Callable[[str], Any] | None = None
    lo: float = -math.inf
    hi: float = math.inf
    multiword: bool = False
    refusals: tuple[str, str, str] | None = None

    def refuse(self, rule: int, field: str = "") -> str:
        """The drop cause of a row that breaks `rule`, an index into `refusals`,
        or the row's DataError when the kind refuses such rows."""
        if self.refusals is None:
            return "rejected"
        raise DataError(self.refusals[rule].format(field))


RATINGS = TableKind(min_fields=2, max_fields=2, value=float, lo=1.0, hi=5.0, multiword=True)
COUNTS = TableKind(min_fields=2, max_fields=2, value=int, lo=0)
# a prediction must be finite: NaN lies in no range, and infinity not in this one
PREDICTIONS = TableKind(min_fields=2, value=float, lo=-sys.float_info.max,
                        hi=sys.float_info.max,
                        refusals=("need at least 2 tab-separated columns",
                                  "unparseable rating {!r}", "non-finite rating {!r}"))
WORDS = TableKind()

TABLE_BLOCK_LINES = 8192  # table lines read and checked at a time by `read_table`


def _row_value(kind: TableKind, fields: list[str]) -> Any:
    """The value of one row's `fields` under `kind`'s rules, or the name of the
    LoadReport field that counts the row as dropped."""
    if not kind.min_fields <= len(fields) <= kind.max_fields:
        return kind.refuse(0)
    if kind.multiword and len(fields[0].split()) > 1:
        return "multiword_excluded"
    if kind.value is None:
        return None
    try:
        value = kind.value(fields[1])
    except ValueError:
        return kind.refuse(1, fields[1])
    return value if kind.lo <= value <= kind.hi else kind.refuse(2, fields[1])


def _block_rows(kind: TableKind, lines: list[str]) -> tuple[list[str], list, int] | None:
    """The stripped tokens and the values of the rows of `lines` that `kind`
    keeps, and the number of multiword rows it drops, when each line has the
    first one's tab count and a token and no other row breaks a rule; None when
    some row may. The joined block is split once and checked by column."""
    width = lines[0].count("\t") + 1
    if not kind.min_fields <= width <= kind.max_fields:
        return None
    cells = "\t".join(lines).split("\t")
    # `width` cells a line, and each line's newline ending a line's last cell,
    # hold only when every line has `width` fields
    newlines = len(lines) - (not lines[-1].endswith("\n"))
    if len(cells) != width * len(lines) or \
            "".join(cells[width - 1::width]).count("\n") != newlines:
        return None
    # a last cell keeps its line's newline, which `strip`, `float` and `int` skip
    tokens = list(map(str.strip, cells[0::width]))
    if "" in tokens:
        return None
    fields = cells[1::width]
    multiword = 0
    if kind.multiword and len(" ".join(tokens).split()) != len(tokens):
        # the rows of one word; a multiword row is dropped before its value is read
        single = [len(words) == 1 for words in map(str.split, tokens)]
        multiword = len(tokens) - sum(single)
        tokens, fields = list(compress(tokens, single)), list(compress(fields, single))
    if kind.value is None:
        return tokens, [None] * len(tokens), multiword
    try:
        values = list(map(kind.value, fields))
    except ValueError:
        return None
    total = sum(values)  # NaN if a value is, and then min and max cannot be trusted
    # an infinite bound holds for every value but NaN, so its pass is skipped
    if values and (total != total or kind.lo > -math.inf and min(values) < kind.lo
                   or kind.hi < math.inf and max(values) > kind.hi):
        return None
    return tokens, values, multiword


def _second_field_is_number(line: str) -> bool | None:
    """Whether the second tab-separated field of `line` reads as a number; None
    when it has no second field."""
    fields = line.rstrip("\r\n").split("\t", 2)
    if len(fields) < 2:
        return None
    try:
        float(fields[1])
    except ValueError:
        return False
    return True


def _next_row(lines: Iterator[str], read: list[str]) -> str | None:
    """Append the lines of `lines` up to and including the next non-blank one to
    `read`, and return that line; None at the end."""
    for line in lines:
        read.append(line)
        if line.strip():
            return line
    return None


class _Table:
    """One pass over a table: the entries kept so far, in the order their
    tokens were first read, and the drop counts."""

    def __init__(self, path: str | Path, kind: TableKind, fold_case: bool,
                 vocab_filter: Container[str] | None):
        self.path, self.kind = path, kind
        self.fold_case, self.vocab_filter = fold_case, vocab_filter
        self.entries: dict[str, Any] = {}
        self.drops: Counter[str] = Counter()

    def block(self, lines: list[str], lineno: int) -> None:
        """Add the rows of `lines`, the first of which is line `lineno`. When
        every line has one tab count, the joined block is split once and its
        columns are checked whole by `_block_rows`, which drops multiword rows
        itself; when they are not, or some other row breaks a rule, `rows` reads
        the block a row at a time."""
        checked = _block_rows(self.kind, lines) if lines else None
        if checked is None:
            self.add(*self.rows(lines, lineno))
        else:
            tokens, values, multiword = checked
            self.drops["multiword_excluded"] += multiword
            self.add(tokens, values)

    def rows(self, lines: list[str], start: int) -> tuple[list[str], list]:
        """The stripped tokens and the values of the rows of `lines`, the first
        of which is line `start`, that keep the kind's rules, one row at a time:
        blank lines are skipped, a dropped row is counted, and a refused one is
        a DataError naming its line."""
        tokens, values = [], []
        for lineno, line in enumerate(lines, start):
            if not line.strip():
                continue
            fields = line.rstrip("\r\n").split("\t")
            try:
                value = _row_value(self.kind, fields)
            except DataError as exc:
                raise DataError(f"{self.path}: line {lineno}: {exc}") from None
            token = fields[0].strip()
            if isinstance(value, str) or not token:
                self.drops[value if token else "rejected"] += 1
                continue
            tokens.append(token)
            values.append(value)
        return tokens, values

    def add(self, tokens: list[str], values: list) -> None:
        """Keep the rows (token, value) whose folded token passes the filter, in
        order; a token kept before, in this block or an earlier one, counts as a
        duplicate."""
        if self.fold_case:
            joined = "\n".join(tokens)
            if joined.lower() != joined:  # else every token is lowercase already
                tokens = list(map(str.lower, tokens))
        if self.vocab_filter is not None:
            kept = list(map(self.vocab_filter.__contains__, tokens))
            self.drops["filtered_out"] += len(tokens) - sum(kept)
            tokens, values = list(compress(tokens, kept)), list(compress(values, kept))
        entries, count = self.entries, len(tokens)
        if not entries.keys().isdisjoint(tokens):  # drop the tokens of earlier blocks
            new = list(map(operator.not_, map(entries.__contains__, tokens)))
            tokens, values = list(compress(tokens, new)), list(compress(values, new))
        before = len(entries)
        entries.update(zip(tokens, values))
        if len(entries) - before < len(tokens):  # a token repeated here: its first value wins
            entries.update(zip(reversed(tokens), reversed(values)))
        self.drops["duplicates_ignored"] += count - (len(entries) - before)

    def report(self) -> LoadReport:
        return LoadReport(accepted=len(self.entries), **self.drops)


def read_table(path: str | Path, fold_case: bool, kind: TableKind,
               vocab_filter: Container[str] | None = None
               ) -> tuple[dict[str, Any], LoadReport]:
    """Read a `token TAB value ...` UTF-8 table of `kind` into a token -> value map.

    Blank lines are skipped. The first non-blank line is a header when its
    second field is not a number; in a word list, only when the next non-blank
    line's second field is one, as in a ratings TSV, so that a list of words
    and tags keeps its first word. Tokens are stripped, and lowercased when
    `fold_case` is on; the first row of a token wins. A row that breaks one of
    `kind`'s rules is counted as dropped in the LoadReport, or rejects the file
    with a DataError naming its line. With `vocab_filter`, a valid row whose
    (folded) token is not in it is counted as `filtered_out`, not kept; every
    row is still parsed and counted. The first row is read alone, for the
    header; then `_Table.block` takes `TABLE_BLOCK_LINES` lines at a time.
    """
    table = _Table(path, kind, fold_case, vocab_filter)
    with open_text(path) as fh:
        head: list[str] = []  # the lines up to the first row, and any read to sniff it
        first = _next_row(fh, head)
        if first is not None:
            start = len(head) - 1  # the lines before the first row are blank
            if _second_field_is_number(first) is False and (
                    kind.value is not None or _second_field_is_number(_next_row(fh, head) or "")):
                start += 1  # the first row is a header
            table.block(head[start:], 1 + start)
        lineno = 1 + len(head)
        for line in fh:
            lines = [line]
            try:
                lines.extend(islice(fh, TABLE_BLOCK_LINES - 1))
            finally:  # the lines read before an undecodable one still count, and err, first
                table.block(lines, lineno)
            lineno += len(lines)
    return table.entries, table.report()


def _read_lexicon_table(path: str | Path, fold_case: bool, kind: TableKind, name: str,
                        vocab_filter: set[str] | None = None
                        ) -> tuple[dict[str, Any], LoadReport]:
    entries, report = read_table(path, fold_case, kind, vocab_filter)
    if report.rejected * 10 > report.rows:
        raise DataError(f"{path}: {report.rejected} of {report.rows} rows rejected (>10%); "
                        f"this does not look like a {name} file")
    if report.rows == 0:
        logger.warning("%s: empty %s file", path, name)
    return entries, report


def load_ratings(path: str | Path, fold_case: bool = True) -> RatingLexicon:
    """Load a `token TAB rating` TSV of expert ratings.

    A header is auto-detected on the first non-blank row (second field non-numeric).
    Multiword tokens are excluded and counted separately; rows with a rating
    outside [1, 5] or that do not parse are rejected and counted. More than
    10% rejected rows is a hard error: the file is probably the wrong one.
    """
    return RatingLexicon(*_read_lexicon_table(path, fold_case, RATINGS, "ratings"))


def load_frequencies(path: str | Path, fold_case: bool = True,
                     vocab_filter: set[str] | None = None) -> FrequencyList:
    """Load a `token TAB count` TSV; negative or non-integer counts are rejected,
    and more than 10% rejected rows is a hard error, as in `load_ratings`. With
    `vocab_filter`, only its tokens' counts are kept; the others count as
    `filtered_out`, and the 10% rule still counts every row."""
    return FrequencyList(*_read_lexicon_table(path, fold_case, COUNTS, "frequency",
                                              vocab_filter))


def select_base(lex: RatingLexicon, freq: FrequencyList, store: VectorStore,
                x: int) -> BaseDictionary:
    """Pick the `x` most frequent words of the ratings/frequency/store intersection,
    with their store rows.

    Frequency ties break lexicographically, so the result is deterministic.
    """
    if x < 1:
        raise ValueError("x must be a positive integer")
    # the lexicons' dicts' own methods: no Python call per token
    ratings, counts = lex._entries, freq._entries
    common = list(filter(store.__contains__, filter(counts.__contains__, ratings)))
    if len(common) < x:
        raise InfeasibleError(
            f"base dictionary of {x} requested but only {len(common)} words are in the "
            "intersection of ratings, frequencies, and vectors"
        )
    common.sort()
    common.sort(key=counts.__getitem__, reverse=True)  # a reversed sort keeps equal counts in order
    chosen = common[:x]
    return BaseDictionary(
        tokens=tuple(chosen),
        rows=np.array([store.row_index(t) for t in chosen], dtype=np.intp),
        ratings=np.array(list(map(ratings.__getitem__, chosen)), dtype=np.float64),
    )


def select_pools(base: BaseDictionary, y: int) -> CandidatePools:
    """Take the `y` lowest-rated (abstract) and `y` highest-rated (concrete) base words.

    Requires y <= X/3, which keeps the pools comfortably disjoint. Rating ties
    keep base order (higher frequency first, then lexicographic); the concrete
    pool is picked from the words the abstract pool did not take, so the two
    never overlap even on pathological all-tied ratings.
    """
    if y < 1:
        raise ValueError("y must be a positive integer")
    if y > base.x // 3:
        raise InfeasibleError(f"y={y} exceeds X/3={base.x // 3} for X={base.x}")

    order = np.argsort(base.ratings, kind="stable")
    rest = order[y:]  # equal ratings still in base order
    concrete = rest[np.argsort(-base.ratings[rest], kind="stable")[:y]]
    return CandidatePools(abstract=base.rows[order[:y]], concrete=base.rows[concrete])
