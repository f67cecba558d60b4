"""Expert ratings and frequency lists; base-dictionary and candidate-pool selection.

The working vocabulary everywhere downstream is the three-way intersection of
expert ratings, the frequency list, and the vector store. Multiword lexicon
entries are dropped at load: static vector files key on single tokens.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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


def read_table(path: str | Path, fold_case: bool,
               parse: Callable[[list[str]], Any]) -> tuple[dict[str, Any], LoadReport]:
    """Read a `token TAB value ...` UTF-8 table into a token -> value map.

    Blank lines are skipped, and the first non-blank line is a header when its
    second field is not a number. Tokens are stripped, and lowercased when
    `fold_case` is on; the first row of a token wins. `parse` maps one row's
    tab-separated fields to its value. It may instead return the name of the
    LoadReport field that counts the row as dropped, or raise DataError to
    reject the file; the message then gets the file and line prefixed.
    """
    entries: dict[str, Any] = {}
    drops: dict[str, int] = {}
    with open_text(path) as fh:
        lines = ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
        for i, (lineno, line) in enumerate(lines):
            fields = line.rstrip("\r\n").split("\t")
            if i == 0 and len(fields) >= 2:
                try:
                    float(fields[1])
                except ValueError:
                    continue  # header
            try:
                value = parse(fields)
            except DataError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            token = fields[0].strip()
            if isinstance(value, str) or not token:
                cause = value if token else "rejected"
                drops[cause] = drops.get(cause, 0) + 1
                continue
            if fold_case:
                token = token.lower()
            if token in entries:
                drops["duplicates_ignored"] = drops.get("duplicates_ignored", 0) + 1
                continue
            entries[token] = value
    return entries, LoadReport(accepted=len(entries), **drops)


def _parse_rating(fields: list[str]) -> float | str:
    if len(fields) != 2:
        return "rejected"
    if len(fields[0].split()) > 1:
        return "multiword_excluded"
    try:
        rating = float(fields[1])
    except ValueError:
        return "rejected"
    return rating if 1.0 <= rating <= 5.0 else "rejected"


def _parse_count(fields: list[str]) -> int | str:
    if len(fields) != 2:
        return "rejected"
    try:
        count = int(fields[1])
    except ValueError:
        return "rejected"
    return count if count >= 0 else "rejected"


def _read_lexicon_table(path: str | Path, fold_case: bool, parse: Callable[[list[str]], Any],
                        kind: str) -> tuple[dict[str, Any], LoadReport]:
    entries, report = read_table(path, fold_case, parse)
    if report.rejected * 10 > report.rows:
        raise DataError(f"{path}: {report.rejected} of {report.rows} rows rejected (>10%); "
                        f"this does not look like a {kind} file")
    if report.rows == 0:
        logger.warning("%s: empty %s file", path, kind)
    return entries, report


def load_ratings(path: str | Path, fold_case: bool = True) -> RatingLexicon:
    """Load a `token TAB rating` TSV of expert ratings.

    A header is auto-detected on the first non-blank row (second field non-numeric).
    Multiword tokens are excluded and counted separately; rows with a rating
    outside [1, 5] or that do not parse are rejected and counted. More than
    10% rejected rows is a hard error: the file is probably the wrong one.
    """
    return RatingLexicon(*_read_lexicon_table(path, fold_case, _parse_rating, "ratings"))


def load_frequencies(path: str | Path, fold_case: bool = True) -> FrequencyList:
    """Load a `token TAB count` TSV; negative or non-integer counts are rejected,
    and more than 10% rejected rows is a hard error, as in `load_ratings`."""
    return FrequencyList(*_read_lexicon_table(path, fold_case, _parse_count, "frequency"))


def select_base(lex: RatingLexicon, freq: FrequencyList, store: VectorStore,
                x: int) -> BaseDictionary:
    """Pick the `x` most frequent words of the ratings/frequency/store intersection,
    with their store rows.

    Frequency ties break lexicographically, so the result is deterministic.
    """
    if x < 1:
        raise ValueError("x must be a positive integer")
    common = [t for t in lex.tokens if t in freq and t in store]
    if len(common) < x:
        raise InfeasibleError(
            f"base dictionary of {x} requested but only {len(common)} words are in the "
            "intersection of ratings, frequencies, and vectors"
        )
    common.sort()
    common.sort(key=freq.count, reverse=True)  # a reversed sort keeps equal counts in order
    chosen = common[:x]
    return BaseDictionary(
        tokens=tuple(chosen),
        rows=np.array([store.row_index(t) for t in chosen], dtype=np.intp),
        ratings=np.array([lex.rating(t) for t in chosen], dtype=np.float64),
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
