"""Static word vectors: text-format parsing, unit normalization, a binary cache.

Vectors are L2-normalized once at load so that every later similarity is a
plain dot product; the seed search downstream evaluates millions of them.
A binary cache format is provided because parsing multi-gigabyte text dumps
dominates start-up time otherwise.
"""

from __future__ import annotations

import codecs
import itertools
import json
import logging
import math
import os
import shutil
import struct
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator, Sequence

import numpy as np

from cadict.errors import DataError, check_regular, open_text

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"CAVS0001"
CACHE_FORMAT = {"version": 1, "dtype": "<f8"}  # header fields `load_cache` requires as written
# text lines per np.loadtxt call. On a 40k x 300 text (2-vCPU Xeon), cache_vectors'
# median CPU time was 1.09 s at 1024 lines, 1.02 s at 512 and 256 and 1.04-1.07 s
# at 128, and the ingest benchmark's peak RSS 45.2 MB at 512, 42.8 MB at 256 and
# 41.5 MB at 128: larger blocks cost memory, and smaller ones time
BLOCK_LINES = 256
CHUNK_BYTES = 1 << 24  # cache bytes read at a time by `load_cache`
TOKEN_PIECE_BYTES = 1 << 16  # token-list bytes decoded and split at a time by `load_cache`
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
    """One pass over a word-vectors text file: the tokens kept so far, in order,
    and the drop counts; each block's unit rows are written to `staging`."""

    def __init__(self, path: Path, vocab_filter: set[str] | None, fold_case: bool,
                 staging: BinaryIO):
        self.path, self.vocab_filter, self.fold_case = path, vocab_filter, fold_case
        self.staging = staging
        # the kept tokens in row order, as an ordered dict's keys: not a set,
        # whose table grows 4x at a time below 50k entries
        self.tokens: dict[str, None] = {}
        self.dimension: int | None = None
        self.started = False  # a non-blank line has been read
        self.drops: Counter[str] = Counter()

    def block(self, numbered: list[tuple[int, str]]) -> None:
        """Add (line number, line) pairs, each split once into token and rest.

        One np.loadtxt call parses the rests of the records that may be kept.
        When it parsed every record of the block at the store's width, `rows`
        checks them as arrays. Otherwise, and when numpy refuses the rests
        (``1_0``, a bad component, unequal widths), `records` walks the block
        in line order; it alone names a bad record's line in a DataError."""
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
            sent = bool(rest) and wanted and token not in self.tokens
            records.append((lineno, token, rest, wanted, sent))
            if sent:
                rests.append(rest)
        try:
            matrix = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2) if rests else None
        except ValueError:
            matrix = None
        if matrix is None or len(matrix) != len(rests):
            if rests:
                logger.debug("%s: lines %d-%d parsed line by line",
                             self.path, numbered[0][0], numbered[-1][0])
            self.records(records, None)
        elif len(rests) == len(records) and self.dimension in (None, matrix.shape[1]):
            self.dimension = matrix.shape[1]
            self.rows([token for _, token, *_ in records], matrix)
        else:
            self.records(records, iter(matrix))

    def rows(self, tokens: list[str], matrix: np.ndarray) -> None:
        """Keep the rows of `matrix`, the parsed records of `tokens`, by the
        rules of `records`, checked as arrays: one batched row dot gives the
        squared norms, the same ``ddot`` per row as ``vec.dot(vec)``."""
        squares = np.matmul(matrix[:, None, :], matrix[:, :, None]).ravel()
        for i in np.flatnonzero(~np.isfinite(squares)).tolist():
            vec = matrix[i]
            if np.isfinite(vec).all():  # finite, but its squares overflowed
                np.ldexp(vec, -np.frexp(np.max(np.abs(vec)))[1], out=vec)
                squares[i] = vec.dot(vec)
        norms = np.sqrt(squares)
        zero = norms < MIN_NORM
        keep = ~zero & np.isfinite(norms)
        kept, duplicates = self.tokens, []
        for i, (token, good) in enumerate(zip(tokens, keep.tolist())):
            if token in kept:  # a first occurrence dropped for its norm kept no token
                duplicates.append(i)
            elif good:
                kept[token] = None
        dropped = ~keep
        dropped[duplicates] = keep[duplicates] = False
        self.drops["duplicates_ignored"] += len(duplicates)
        self.drops["zero_norm_skipped"] += int(np.count_nonzero(dropped & zero))
        self.drops["non_finite_skipped"] += int(np.count_nonzero(dropped & ~zero))
        if not keep.all():
            matrix, norms = matrix[keep], norms[keep]
        self.write(matrix, norms)

    def records(self, records: list[tuple[int, str, str, bool, bool]],
                parsed: Iterator[np.ndarray] | None) -> None:
        """Keep the `records` of one block one at a time, applying each rule once
        in line order: width, filter, duplicate, components, norm, zero and
        non-finite drops. A record sent to numpy takes its row from `parsed`;
        without it, or for a record not sent, the rest is split and read by
        `float`. A bad record is a DataError naming its line."""
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
            if not wanted or token in self.tokens:
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
            self.tokens[token] = None
            vecs.append(vec)
            norms.append(norm)
        if vecs:
            self.write(np.stack(vecs), np.array(norms))

    def write(self, rows: np.ndarray, norms: np.ndarray) -> None:
        """Divide the kept `rows` by their `norms` in place, check that they are
        unit rows and write them to the staging file."""
        if not len(rows):
            return
        rows /= norms[:, None]
        try:
            _check_unit_rows(rows)
        except ValueError as exc:  # the check `VectorStore` would make
            raise DataError(f"{self.path}: {exc}") from exc
        self.staging.write(rows.astype("<f8", copy=False).data)

    def parse(self) -> None:
        """Read the whole file through `block`, `BLOCK_LINES` lines at a time; a
        file with no usable record is a DataError."""
        # a finite record's squares may overflow; `rows` and `records` rescale it
        with open_text(self.path) as fh, np.errstate(over="ignore"):
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


def _unstage(staging: BinaryIO, count: int, dimension: int) -> np.ndarray:
    """The `count` rows staged in `staging`, read into one matrix last
    `CHUNK_BYTES` chunk first; the file is cut behind each chunk, so the staged
    bytes and the matrix never both hold every row."""
    matrix = np.empty((count, dimension), dtype="<f8")
    step = max(1, CHUNK_BYTES // (dimension * 8))
    for start in reversed(range(0, count, step)):
        staging.seek(start * dimension * 8)
        staging.readinto(matrix[start:start + step].data)
        staging.truncate(start * dimension * 8)
    return matrix


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
    by `_TextLoad.block`, whose kept rows are staged in a temporary file in
    ``TMPDIR`` (about the matrix's bytes) and read back by `_unstage`.
    """
    path = Path(path)
    if fold_case and vocab_filter is not None:
        vocab_filter = {t.lower() for t in vocab_filter}
    with tempfile.TemporaryFile() as staging:
        load = _TextLoad(path, vocab_filter, fold_case, staging)
        load.parse()
        matrix = _unstage(staging, len(load.tokens), load.dimension)
    tokens, report = tuple(load.tokens), load.report()
    del load  # its tokens' dict goes before the store builds its index
    try:
        return VectorStore(tokens, matrix, source_id=str(path), load_report=report)
    except ValueError as exc:  # a row the store's checks refuse
        raise DataError(f"{path}: {exc}") from exc


def _cache_head(tokens: Collection[str], dimension: int, source_id: str) -> list[bytes]:
    """Everything a cache holds before its rows, in pieces to write in turn: the
    magic, the header and the token list's length, then the token list. The
    tokens are encoded once, a piece at a time, so the list's bytes are held
    once and never beside one joined str of every token."""
    header = {
        **CACHE_FORMAT,
        "dimension": dimension,
        "count": len(tokens),
        "source_id": source_id,
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    rest = iter(tokens)
    blob: list[bytes] = []
    while piece := list(itertools.islice(rest, 1 << 14)):  # tokens a piece
        blob += (b"\n", "\n".join(piece).encode("utf-8"))
    del blob[:1]  # no newline before the first piece
    return [CACHE_MAGIC, struct.pack("<I", len(header_blob)), header_blob,
            struct.pack("<Q", sum(map(len, blob))), *blob]


def save_cache(store: VectorStore, path: str | Path) -> None:
    """Write a binary cache of `store`; loads back via `load_cache` byte-exactly."""
    head = _cache_head(store.tokens, store.dimension, store.source_id)
    with open(path, "wb") as fh:
        fh.writelines(head)
        fh.write(np.ascontiguousarray(store.matrix, dtype="<f8").data)


def cache_vectors(path: str | Path, out: str | Path,
                  fold_case: bool = True) -> tuple[LoadReport, int]:
    """Parse a word-vectors text file and write its binary cache to `out`: the
    bytes of ``save_cache(load_vectors(path, fold_case=fold_case), out)``, with
    the same checks and errors. It returns the load report and the dimension.

    Only the kept tokens and one block of rows are held. Each block's unit rows
    are written to a staging file in `out`'s directory, which takes about the
    matrix's bytes there, and copied after the header and the tokens once the
    parse has succeeded; `out` is not opened before then."""
    path, out = Path(path), Path(out)
    # removed when closed; its prefix names `out` in an error from creating it
    with tempfile.TemporaryFile(dir=out.parent, prefix=f"{out.name}.staging.") as staging:
        load = _TextLoad(path, None, fold_case, staging)
        load.parse()
        head = _cache_head(load.tokens, load.dimension, str(path))
        staging.seek(0)
        with open(out, "wb") as fh:
            fh.writelines(head)
            shutil.copyfileobj(staging, fh)
    return load.report(), load.dimension


def _check_left(fh, size: int, path: Path, what: str) -> None:
    # checked before reading, so a corrupt length never becomes a huge allocation
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"{path}: cache truncated in the {what}")


def _read_exact(fh, size: int, path: Path, what: str) -> bytes:
    _check_left(fh, size, path, what)
    return fh.read(size)


def _token_pieces(fh, size: int, path: Path) -> Iterator[list[str]]:
    """The `size`-byte token list at `fh`, decoded and split `TOKEN_PIECE_BYTES`
    at a time: each piece's whole tokens, in order. A token cut by a piece's end
    comes with the next piece, so only one piece's tokens exist at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    tail = ""
    for start in range(0, size, TOKEN_PIECE_BYTES):
        last = start + TOKEN_PIECE_BYTES >= size
        try:
            text = decoder.decode(fh.read(min(TOKEN_PIECE_BYTES, size - start)), final=last)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: corrupt cache token list: {exc}") from exc
        tokens = (tail + text).split("\n")
        tail = "" if last else tokens.pop()
        yield tokens


def load_cache(path: str | Path, vocab_filter: set[str] | None = None) -> VectorStore:
    """Load a binary cache written by `save_cache`.

    A truncated or corrupt file is a DataError naming the file and the part
    that is unreadable, and so is a header whose version or dtype is not the
    one `save_cache` writes. With `vocab_filter`, only the kept tokens and rows
    are held: the token list is split a piece at a time (`_token_pieces`), and
    each run of consecutive kept rows is read straight into its place.
    """
    path = Path(path)
    # unbuffered, so that each run of kept rows costs one read of just its bytes
    with open(path, "rb", buffering=0) as fh:
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
        _check_left(fh, token_len, path, "token list")
        tokens: list[str] = []
        rows = None if vocab_filter is None else array("q")  # each kept token's row
        total = 0
        for piece in _token_pieces(fh, token_len, path):
            if rows is None:
                tokens += piece
            else:
                kept = list(map(vocab_filter.__contains__, piece))
                tokens += itertools.compress(piece, kept)
                rows.extend(itertools.compress(range(total, total + len(piece)), kept))
            total += len(piece)
        if total != count:
            raise DataError(f"{path}: cache token count mismatch")
        _check_left(fh, count * dim * 8, path, "vector data")
        if not tokens:
            raise DataError(f"{path}: vocab filter removed every cached vector")
        matrix = np.empty((len(tokens), dim), dtype="<f8")
        _read_rows(fh, matrix, rows, path)

    report = LoadReport(accepted=len(tokens), filtered_out=count - len(tokens))
    try:
        return VectorStore(tokens, matrix, source_id=source_id, load_report=report)
    except ValueError as exc:  # blank or duplicate tokens, rows not unit length
        raise DataError(f"{path}: corrupt cache: {exc}") from exc


def _read_rows(fh, matrix: np.ndarray, rows: array | None, path: Path) -> None:
    """Fill `matrix` with the cache rows numbered `rows` (every row when None),
    read from `fh`, which stands at the first row. Each run of consecutive rows
    is read straight into its place, at most `CHUNK_BYTES` a read, so nothing
    but the matrix is held."""
    row_bytes = matrix.shape[1] * 8
    if rows is None:
        runs = [(0, len(matrix), 0)]
    else:
        breaks = (np.flatnonzero(np.diff(rows) != 1) + 1).tolist()
        starts = [0, *breaks]
        runs = zip(starts, [*breaks, len(rows)], [rows[i] for i in starts])
    data = fh.tell()
    step = max(1, CHUNK_BYTES // row_bytes)
    for lo, hi, first in runs:
        fh.seek(data + first * row_bytes)
        for start in range(lo, hi, step):
            part = matrix[start:min(start + step, hi)]
            if fh.readinto(part.data) != part.nbytes:
                raise DataError(f"{path}: cache truncated in the vector data")


def open_store(path: str | Path, vocab_filter: set[str] | None = None,
               fold_case: bool = True) -> VectorStore:
    """Open either a word-vectors text file or a binary cache, by sniffing magic
    bytes. The path must name a regular file, since the loader opens it again."""
    path = Path(path)
    check_regular(path, "to sniff its format and to load it")
    with open(path, "rb") as fh:
        head = fh.read(len(CACHE_MAGIC))
    if head == CACHE_MAGIC:
        return load_cache(path, vocab_filter=vocab_filter)
    return load_vectors(path, vocab_filter=vocab_filter, fold_case=fold_case)
