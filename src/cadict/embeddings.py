"""Static word vectors: text-format parsing, unit normalization, a binary cache.

Vectors are L2-normalized once at load so that every later similarity is a
plain dot product; the seed search downstream evaluates millions of them.
A binary cache format is provided because parsing multi-gigabyte text dumps
dominates start-up time otherwise.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from cadict.errors import DataError, open_text

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"CAVS0001"
# a smaller norm has a subnormal square, too inexact to normalize the row by
MIN_NORM = math.sqrt(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class LoadReport:
    """Records kept from one input file, and the records dropped, by cause."""

    accepted: int
    rejected: int = 0
    multiword_excluded: int = 0
    duplicates_ignored: int = 0
    zero_norm_skipped: int = 0
    non_finite_skipped: int = 0
    filtered_out: int = 0

    @property
    def rows(self) -> int:
        """Every record read: the accepted ones plus the dropped ones."""
        return sum(vars(self).values())

    def drops(self) -> str:
        """The non-zero drop counts by cause, e.g. ``zero_norm_skipped=2, duplicates_ignored=1``."""
        return ", ".join(f"{cause}={count}" for cause, count in vars(self).items()
                         if cause != "accepted" and count)


class VectorStore:
    """Immutable token -> unit vector map over a single dense matrix.

    Rows are float64 and L2-normalized; the matrix is marked read-only after
    construction, so no caller can change a published store.
    """

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray, source_id: str,
                 load_report: LoadReport | None = None):
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise ValueError("matrix shape does not match token count")
        if matrix.shape[0] == 0:
            raise DataError(f"vector store from {source_id!r} is empty")
        self._tokens = tuple(tokens)
        for t in self._tokens:
            if not t or len(t.split()) != 1:
                raise ValueError(f"bad token for store: {t!r}")
        self._index = {t: i for i, t in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise ValueError("duplicate tokens in store construction")
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        # einsum needs no full-size temporary; a corrupt row's squares may
        # overflow, and its inf norm then fails the unit check all the same
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        if not np.allclose(norms, 1.0, atol=1e-6):
            raise ValueError("store rows must be unit-normalized")
        matrix.setflags(write=False)
        self._matrix = matrix
        self._source_id = source_id
        self._load_report = load_report or LoadReport(len(self._tokens))

    @property
    def dimension(self) -> int:
        return self._matrix.shape[1]

    @property
    def source_id(self) -> str:
        return self._source_id

    @property
    def load_report(self) -> LoadReport:
        return self._load_report

    @property
    def tokens(self) -> tuple[str, ...]:
        """All stored tokens, in load order."""
        return self._tokens

    @property
    def matrix(self) -> np.ndarray:
        """The (n, d) read-only matrix of unit rows."""
        return self._matrix

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def row_index(self, token: str) -> int | None:
        return self._index.get(token)

    def rows(self, tokens: Iterable[str]) -> np.ndarray:
        """Stacked unit vectors for `tokens`, in the given order."""
        idx = []
        for t in tokens:
            i = self._index.get(t)
            if i is None:
                raise DataError(f"token not in vector store: {t!r}")
            idx.append(i)
        return self._matrix[np.asarray(idx, dtype=np.intp)]


def _looks_like_header(parts: list[str]) -> bool:
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


def load_vectors(path: str | Path, vocab_filter: set[str] | None = None,
                 fold_case: bool = True) -> VectorStore:
    """Parse a word-vectors text file into a VectorStore.

    Format: optional first line ``N d`` (two integers), then one
    ``token v1 ... vd`` record per line, whitespace separated, UTF-8.
    The dimension is inferred from the first record; any later record with a
    different component count is a hard error naming the line. Zero-norm
    vectors (norm below `MIN_NORM`) and non-finite ones are dropped and
    counted apart; a finite vector whose norm overflows is kept. On
    duplicate tokens the first occurrence wins. Tokens are folded to
    lowercase unless `fold_case` is off; `vocab_filter`, when given, is
    matched after folding.
    """
    path = Path(path)
    if fold_case and vocab_filter is not None:
        vocab_filter = {t.lower() for t in vocab_filter}

    tokens: list[str] = []
    rows: list[np.ndarray] = []
    index: dict[str, int] = {}
    dimension: int | None = None
    zero_norm = non_finite = duplicates = filtered = 0

    # a finite record's squares may overflow; such a record is rescaled below
    with open_text(path) as fh, np.errstate(over="ignore"):
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and _looks_like_header(parts):
                continue
            width = len(parts) - 1
            if dimension is None:
                if width < 1:
                    raise DataError(f"{path}: line {lineno}: record has no vector components")
                dimension = width
            elif width != dimension:
                raise DataError(
                    f"{path}: line {lineno}: expected {dimension} components, found {width}"
                )
            token = parts[0].lower() if fold_case else parts[0]
            if vocab_filter is not None and token not in vocab_filter:
                filtered += 1
                continue
            if token in index:
                duplicates += 1
                continue
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: unparseable vector component") from exc
            norm = float(np.linalg.norm(vec))
            if not math.isfinite(norm) and np.isfinite(vec).all():
                # its squares overflowed: scale it by a power of two, as `pearson` does
                vec = np.ldexp(vec, -np.frexp(np.max(np.abs(vec)))[1])
                norm = float(np.linalg.norm(vec))
            if norm < MIN_NORM:
                zero_norm += 1
                continue
            if not math.isfinite(norm):
                non_finite += 1
                continue
            index[token] = len(tokens)
            tokens.append(token)
            rows.append(vec / norm)

    if not tokens:
        raise DataError(f"{path}: no usable vector records")
    report = LoadReport(
        accepted=len(tokens),
        zero_norm_skipped=zero_norm,
        non_finite_skipped=non_finite,
        duplicates_ignored=duplicates,
        filtered_out=filtered,
    )
    if zero_norm or non_finite or duplicates:
        logger.warning("%s: dropped %s", path, report.drops())
    try:
        return VectorStore(tokens, np.vstack(rows), source_id=str(path), load_report=report)
    except ValueError as exc:  # a row the store's checks refuse
        raise DataError(f"{path}: {exc}") from exc


def save_cache(store: VectorStore, path: str | Path) -> None:
    """Write a binary cache of `store`; loads back via `load_cache` byte-exactly."""
    header = {
        "version": 1,
        "dimension": store.dimension,
        "count": len(store),
        "source_id": store.source_id,
        "dtype": "<f8",
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    token_blob = "\n".join(store.tokens).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<I", len(header_blob)))
        fh.write(header_blob)
        fh.write(struct.pack("<Q", len(token_blob)))
        fh.write(token_blob)
        fh.write(np.ascontiguousarray(store.matrix, dtype="<f8").tobytes())


def _read_exact(fh, size: int, path: Path, what: str) -> bytes:
    # checked before reading, so a corrupt length never becomes a huge allocation
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{path}: cache truncated in the {what}")
    return fh.read(size)


def load_cache(path: str | Path, vocab_filter: set[str] | None = None) -> VectorStore:
    """Load a binary cache written by `save_cache`.

    A truncated or corrupt file is a DataError naming the file and the part
    that is unreadable.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise DataError(f"{path}: not a cadict vector cache (bad magic)")
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "header length"))
        try:
            header = json.loads(_read_exact(fh, header_len, path, "header").decode("utf-8"))
            count, dim = int(header["count"]), int(header["dimension"])
            source_id = str(header["source_id"])
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise DataError(f"{path}: corrupt cache header: {exc}") from exc
        if count < 1 or dim < 1:
            raise DataError(f"{path}: corrupt cache header: count={count}, dimension={dim}")
        (token_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "token length"))
        try:
            token_blob = _read_exact(fh, token_len, path, "token list").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: corrupt cache token list: {exc}") from exc
        tokens = token_blob.split("\n") if token_blob else []
        if len(tokens) != count:
            raise DataError(f"{path}: cache token count mismatch")
        data = _read_exact(fh, count * dim * 8, path, "vector data")
        matrix = np.frombuffer(data, dtype="<f8").reshape(count, dim)

    filtered = 0
    if vocab_filter is not None:
        keep = [i for i, t in enumerate(tokens) if t in vocab_filter]
        filtered = len(tokens) - len(keep)
        tokens = [tokens[i] for i in keep]
        matrix = matrix[np.asarray(keep, dtype=np.intp)] if keep else matrix[:0]
        if not tokens:
            raise DataError(f"{path}: vocab filter removed every cached vector")
    report = LoadReport(accepted=len(tokens), filtered_out=filtered)
    try:
        return VectorStore(tokens, matrix, source_id=source_id, load_report=report)
    except ValueError as exc:  # blank or duplicate tokens, rows not unit length
        raise DataError(f"{path}: corrupt cache: {exc}") from exc


def open_store(path: str | Path, vocab_filter: set[str] | None = None,
               fold_case: bool = True) -> VectorStore:
    """Open either a word-vectors text file or a binary cache, by sniffing magic bytes."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(CACHE_MAGIC))
    if head == CACHE_MAGIC:
        return load_cache(path, vocab_filter=vocab_filter)
    return load_vectors(path, vocab_filter=vocab_filter, fold_case=fold_case)
