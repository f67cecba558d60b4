"""Static word vectors: text-format parsing, unit normalization, a binary cache.

Vectors are L2-normalized once at load so that every later similarity is a
plain dot product; the seed search downstream evaluates millions of them.
A binary cache format is provided because parsing multi-gigabyte text dumps
dominates start-up time otherwise.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import shutil
import stat
import struct
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from cadict.errors import DataError, open_text

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"CAVS0001"
CACHE_FORMAT = {"version": 1, "dtype": "<f8"}  # header fields `load_cache` requires as written
BLOCK_LINES = 1024  # text lines per np.loadtxt call: larger blocks cost memory, not time
CHUNK_BYTES = 1 << 24  # cache bytes read at a time by `load_cache`
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


def _check_unit_rows(matrix: np.ndarray) -> None:
    """A ValueError unless every row of the 2-d `matrix` has unit L2 norm."""
    # einsum needs no full-size temporary; a corrupt row's squares may
    # overflow, and its inf norm then fails the unit check all the same
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    if not np.allclose(norms, 1.0, atol=1e-6):
        raise ValueError("store rows must be unit-normalized")


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
        _check_unit_rows(matrix)
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


class _TextLoad:
    """One pass over a word-vectors text file: the records accepted so far, the
    drop counts, and the unit rows of the kept records in a matrix of `capacity`
    rows reserved at the first accepted record. Without `staging` that matrix
    holds every kept row; with it, it is one block's buffer, reused for each
    block and written to `staging` after it."""

    def __init__(self, path: Path, vocab_filter: set[str] | None, fold_case: bool,
                 capacity: int, staging: BinaryIO | None = None):
        self.path, self.vocab_filter, self.fold_case = path, vocab_filter, fold_case
        self.capacity, self.staging = capacity, staging
        self.tokens: list[str] = []
        self.matrix: np.ndarray | None = None
        self.index: dict[str, int] = {}
        self.dimension: int | None = None
        self.started = False  # a non-blank line has been read
        self.drops: Counter[str] = Counter()

    def block(self, numbered: list[tuple[int, str]]) -> None:
        """Add (line number, line) pairs, each split once into token and rest.

        One np.loadtxt call parses the rests of the records that may be kept; if
        it refuses them (``1_0``, a bad component, unequal widths), each rest is
        split and read by `float` instead. One walk in line order then applies
        each rule once: width, filter, duplicate, components, norm, zero and
        non-finite drops. A bad record is a DataError naming its line. The kept
        rows are copied into their slice of the matrix, or into the head of the
        block buffer, and divided there by their norms."""
        records, rests = [], []
        for lineno, line in numbered:
            head = line.split(None, 1)
            if not head:
                continue
            if not self.started:  # the first non-blank line may be an ``N d`` header
                self.started = True
                if _looks_like_header(line.split()):
                    continue
            token = head[0].lower() if self.fold_case else head[0]
            rest = head[1] if len(head) == 2 else ""
            wanted = self.vocab_filter is None or token in self.vocab_filter
            sent = bool(rest) and wanted and token not in self.index
            records.append((lineno, token, rest, wanted, sent))
            if sent:
                rests.append(rest)
        try:
            matrix = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2) if rests else ()
            parsed = iter(matrix) if len(matrix) == len(rests) else None
        except ValueError:
            parsed = None
        if parsed is None:
            logger.debug("%s: lines %d-%d parsed line by line",
                         self.path, numbered[0][0], numbered[-1][0])
        vecs, norms = [], []
        for lineno, token, rest, wanted, sent in records:
            fields = next(parsed) if sent and parsed is not None else rest.split()
            if self.dimension is None:
                if len(fields) < 1:
                    raise DataError(f"{self.path}: line {lineno}: record has no vector components")
                self.dimension = len(fields)
            elif len(fields) != self.dimension:
                raise DataError(f"{self.path}: line {lineno}: "
                                f"expected {self.dimension} components, found {len(fields)}")
            if not wanted or token in self.index:
                self.drops["duplicates_ignored" if wanted else "filtered_out"] += 1
                continue
            try:
                vec = np.asarray(fields, dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{self.path}: line {lineno}: "
                                "unparseable vector component") from exc
            norm = math.sqrt(vec.dot(vec))  # as np.linalg.norm computes it, bit for bit
            if not math.isfinite(norm) and np.isfinite(vec).all():
                # finite, but its squares overflowed: scale by a power of two, as `pearson` does
                np.ldexp(vec, -np.frexp(np.max(np.abs(vec)))[1], out=vec)
                norm = math.sqrt(vec.dot(vec))
            if norm < MIN_NORM or not math.isfinite(norm):
                self.drops["zero_norm_skipped" if norm < MIN_NORM else "non_finite_skipped"] += 1
                continue
            self.index[token] = len(self.tokens)
            self.tokens.append(token)
            vecs.append(vec)
            norms.append(norm)
        if vecs:
            if self.matrix is None:
                self.matrix = np.empty((self.capacity, self.dimension))
            start = 0 if self.staging is not None else len(self.tokens) - len(vecs)
            rows = self.matrix[start:start + len(vecs)]
            np.stack(vecs, out=rows)
            rows /= np.array(norms)[:, None]
            if self.staging is not None:
                try:
                    _check_unit_rows(rows)
                except ValueError as exc:  # the check `VectorStore` would make
                    raise DataError(f"{self.path}: {exc}") from exc
                self.staging.write(rows.astype("<f8", copy=False).data)

    def parse(self, reads: str | None = None) -> None:
        """Read the whole file through `block`, `BLOCK_LINES` lines at a time; a
        file with no usable record is a DataError. With `reads`, the file must be
        a regular one, which `reads` says is read twice (`_check_regular`)."""
        # a finite record's squares may overflow; `block` rescales such a record
        with open_text(self.path) as fh, np.errstate(over="ignore"):
            if reads is not None:
                _check_regular(fh, self.path, reads)
            numbered = enumerate(fh, start=1)
            for first in numbered:
                lines = [first]
                try:
                    lines.extend(itertools.islice(numbered, BLOCK_LINES - 1))
                finally:  # the lines read before an undecodable one still count, and err, first
                    self.block(lines)
        if not self.tokens:
            raise DataError(f"{self.path}: no usable vector records")

    def report(self) -> LoadReport:
        return LoadReport(accepted=len(self.tokens), **self.drops)


def _check_regular(fh, path: Path, reads: str) -> None:
    """A DataError unless `fh` is a regular file, which `reads` says is read
    twice: a pipe cannot be, and its second read would miss what the first took."""
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        raise DataError(f"{path}: not a regular file; it is read twice, {reads}")


def _count_lines(path: Path) -> int:
    """The number of lines that `open_text` yields from `path`, plus at most one.
    Bytes that do not decode are replaced here and left to the parse to report."""
    count = 1
    with open_text(path, errors="replace") as fh:
        _check_regular(fh, path, "to count its lines and to parse them")
        while chunk := fh.read(1 << 15):
            count += chunk.count("\n")
    return count


def load_vectors(path: str | Path, vocab_filter: set[str] | None = None,
                 fold_case: bool = True) -> VectorStore:
    """Parse a word-vectors text file into a VectorStore.

    Format: an optional ``N d`` header (two integers) on the first non-blank
    line, then one ``token v1 ... vd`` record per line, whitespace separated,
    UTF-8 with an optional byte-order mark. The dimension is inferred from the
    first record; any later record with a different component count, or a
    component that does not parse, is a hard error naming the line. Zero-norm
    vectors (norm below `MIN_NORM`) and non-finite ones are dropped and
    counted apart; a finite vector whose norm overflows is kept. On
    duplicate tokens the first occurrence wins. Tokens are folded to
    lowercase unless `fold_case` is off; `vocab_filter`, when given, is
    matched after folding. Records are parsed `BLOCK_LINES` lines at a time
    by `_TextLoad.block`, into one matrix that the store then holds: it has a
    row for each member of `vocab_filter`, or for each line of the file.
    """
    path = Path(path)
    if fold_case and vocab_filter is not None:
        vocab_filter = {t.lower() for t in vocab_filter}
    # every kept token is a distinct member of the filter, and each is on its own line
    capacity = len(vocab_filter) if vocab_filter is not None else _count_lines(path)
    load = _TextLoad(path, vocab_filter, fold_case, capacity)
    load.parse()
    tokens, matrix, report = load.tokens, load.matrix[:len(load.tokens)], load.report()
    del load  # its token index goes before the store builds its own
    try:
        return VectorStore(tokens, matrix, source_id=str(path), load_report=report)
    except ValueError as exc:  # a row the store's checks refuse
        raise DataError(f"{path}: {exc}") from exc


def _cache_head(tokens: Sequence[str], dimension: int, source_id: str) -> bytes:
    """Everything a cache holds before its rows: the magic, the header and the tokens."""
    header = {
        **CACHE_FORMAT,
        "dimension": dimension,
        "count": len(tokens),
        "source_id": source_id,
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    token_blob = "\n".join(tokens).encode("utf-8")
    return b"".join((CACHE_MAGIC, struct.pack("<I", len(header_blob)), header_blob,
                     struct.pack("<Q", len(token_blob)), token_blob))


def save_cache(store: VectorStore, path: str | Path) -> None:
    """Write a binary cache of `store`; loads back via `load_cache` byte-exactly."""
    head = _cache_head(store.tokens, store.dimension, store.source_id)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(np.ascontiguousarray(store.matrix, dtype="<f8").data)


def cache_vectors(path: str | Path, out: str | Path,
                  fold_case: bool = True) -> tuple[LoadReport, int]:
    """Parse a word-vectors text file and write its binary cache to `out`: the
    bytes of ``save_cache(load_vectors(path, fold_case=fold_case), out)``, with
    the same checks and errors. It returns the load report and the dimension.

    Only the token index and one block of rows are held. Each block's unit rows
    are written to a staging file in `out`'s directory, which takes about the
    matrix's bytes there, and copied after the header and the tokens once the
    parse has succeeded; `out` is not opened before then. `path` must be a
    regular file, since the caller reads it again to hash it."""
    path, out = Path(path), Path(out)
    # removed when closed; its prefix names `out` in an error from creating it
    with tempfile.TemporaryFile(dir=out.parent, prefix=f"{out.name}.staging.") as staging:
        load = _TextLoad(path, None, fold_case, BLOCK_LINES, staging)
        load.parse(reads="to parse it and to hash it for the manifest")
        head = _cache_head(load.tokens, load.dimension, str(path))
        staging.seek(0)
        with open(out, "wb") as fh:
            fh.write(head)
            shutil.copyfileobj(staging, fh)
    return load.report(), load.dimension


def _check_left(fh, size: int, path: Path, what: str) -> None:
    # checked before reading, so a corrupt length never becomes a huge allocation
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{path}: cache truncated in the {what}")


def _read_exact(fh, size: int, path: Path, what: str) -> bytes:
    _check_left(fh, size, path, what)
    return fh.read(size)


def load_cache(path: str | Path, vocab_filter: set[str] | None = None) -> VectorStore:
    """Load a binary cache written by `save_cache`.

    A truncated or corrupt file is a DataError naming the file and the part
    that is unreadable, and so is a header whose version or dtype is not the
    one `save_cache` writes. With `vocab_filter`, only the kept rows are held.
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
        for key, expected in CACHE_FORMAT.items():
            value = header.get(key)
            if type(value) is not type(expected) or value != expected:
                raise DataError(f"{path}: unsupported cache {key} {value!r} "
                                f"(expected {expected!r}); re-run cache-vectors")
        (token_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "token length"))
        try:
            token_blob = _read_exact(fh, token_len, path, "token list").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: corrupt cache token list: {exc}") from exc
        tokens = token_blob.split("\n") if token_blob else []
        if len(tokens) != count:
            raise DataError(f"{path}: cache token count mismatch")
        _check_left(fh, count * dim * 8, path, "vector data")
        keep = (np.arange(count) if vocab_filter is None
                else np.flatnonzero([t in vocab_filter for t in tokens]))
        if not keep.size:
            raise DataError(f"{path}: vocab filter removed every cached vector")
        # a chunk whose rows are all kept is read into its place, any other through
        # one reused buffer, so only the kept rows and one chunk are ever held
        matrix = np.empty((keep.size, dim), dtype="<f8")
        step = max(1, CHUNK_BYTES // (dim * 8))
        chunk = np.empty((min(step, count), dim), dtype="<f8")
        for start in range(0, count, step):
            stop = min(start + step, count)
            lo, hi = np.searchsorted(keep, [start, stop])
            whole = hi - lo == stop - start
            rows = matrix[lo:hi] if whole else chunk[:stop - start]
            if fh.readinto(rows.data) != rows.nbytes:
                raise DataError(f"{path}: cache truncated in the vector data")
            if not whole:
                matrix[lo:hi] = rows[keep[lo:hi] - start]
        if vocab_filter is not None:
            tokens = [tokens[i] for i in keep]

    report = LoadReport(accepted=len(tokens), filtered_out=count - len(tokens))
    try:
        return VectorStore(tokens, matrix, source_id=source_id, load_report=report)
    except ValueError as exc:  # blank or duplicate tokens, rows not unit length
        raise DataError(f"{path}: corrupt cache: {exc}") from exc


def open_store(path: str | Path, vocab_filter: set[str] | None = None,
               fold_case: bool = True) -> VectorStore:
    """Open either a word-vectors text file or a binary cache, by sniffing magic
    bytes. The path must name a regular file, since the loader opens it again."""
    path = Path(path)
    with open(path, "rb") as fh:
        _check_regular(fh, path, "to sniff its format and to load it")
        head = fh.read(len(CACHE_MAGIC))
    if head == CACHE_MAGIC:
        return load_cache(path, vocab_filter=vocab_filter)
    return load_vectors(path, vocab_filter=vocab_filter, fold_case=fold_case)
