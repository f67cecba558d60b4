"""Static word vectors: one text parser, unit normalization, a binary cache.

Vectors are L2-normalized once, when `cache_vectors` parses a text file into
a binary cache, so that every later similarity is a plain dot product; the
seed search downstream evaluates millions of them. Every run-time load reads
that cache through `load_cache`, since parsing a multi-gigabyte text dump
would otherwise dominate each run's start-up time.

A large text is parsed in byte ranges, each cut just after a ``\\n``, by
several processes at once: this one parses the first range, and a child
process each of the others. Each applies the parser's rules to its own range
and leaves undecided only what depends on the ranges before it: whether a token
it kept, or dropped, was kept earlier. The ranges are merged in order into the
cache bytes, load report and first error of one pass over the whole file.
"""

from __future__ import annotations

import codecs
import io
import itertools
import json
import logging
import math
import os
import stat
import struct
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator, Sequence

import numpy as np

from cadict.errors import DataError, decoding

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"CAVS0001"
CACHE_FORMAT = {"version": 1, "dtype": "<f8"}  # header fields `load_cache` requires as written
# text lines per np.loadtxt call. On a 40k x 300 text (2-vCPU Xeon), cache_vectors'
# median CPU time was 1.09 s at 1024 lines, 1.02 s at 512 and 256 and 1.04-1.07 s
# at 128, and the ingest benchmark's peak RSS 45.2 MB at 512, 42.8 MB at 256 and
# 41.5 MB at 128: larger blocks cost memory, and smaller ones time
BLOCK_LINES = 256
CHUNK_BYTES = 1 << 24  # cache bytes read at a time by `load_cache`
COPY_BYTES = 1 << 16  # staged row bytes copied into a cache at a time
# the text that one process parses while a child process starts: on a 2-vCPU Xeon
# a child started (Python, numpy and cadict imported) in about 0.2 s, the time one
# process took to parse about 16 MB of 300-d rows. `cache_vectors` cuts a file into
# at most one range per MIN_RANGE_BYTES, and the first range, which it parses
# itself while the children start, is MIN_RANGE_BYTES longer than each child's
MIN_RANGE_BYTES = 1 << 24
# the bytes a TextIOWrapper reads, and decodes, at a time from a file it opened
TEXT_CHUNK_BYTES = 8192
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


UNPARSEABLE = "unparseable vector component"


class _RecordError(DataError):
    """A bad record of a word-vectors text: the message names its `line`."""

    def __init__(self, path: Path, line: int, detail: str):
        super().__init__(f"{path}: line {line}: {detail}")
        self.line, self.detail = line, detail


_CONTINUATION = bytes(range(0x80, 0xC0))  # the bytes that go on a UTF-8 character


class _Range(io.RawIOBase):
    """Bytes ``[start, stop)`` of the open file `fh`, read as a TextIOWrapper
    over the whole file reads them: in the file's grid of `TEXT_CHUNK_BYTES`
    chunks. The wrapper decodes a read at a time, so bytes that do not decode
    hide every line that ends in their chunk. A range that stops inside a chunk
    checks that the rest of it, the next range's start, decodes too before it
    hands over its last piece."""

    def __init__(self, fh: BinaryIO, start: int, stop: int | None):
        self.fh, self.pos, self.stop = fh, start, stop
        self.tail = b""  # the end of the last piece, which may begin a character
        if start:
            fh.seek(start)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = min(len(buffer), TEXT_CHUNK_BYTES - self.pos % TEXT_CHUNK_BYTES)
        if self.stop is not None:
            size = min(size, self.stop - self.pos)
        piece = memoryview(buffer)[:size]
        n = self.fh.readinto(piece) or 0
        piece = piece[:n]
        self.pos += n
        if n and self.pos == self.stop and self.stop % TEXT_CHUNK_BYTES:
            rest = os.pread(self.fh.fileno(), TEXT_CHUNK_BYTES - self.stop % TEXT_CHUNK_BYTES,
                            self.stop)
            # raises as one pass's decode of this whole chunk would: `tail`, but for
            # its leading continuation bytes, begins any character the piece begins
            codecs.utf_8_decode(self.tail.lstrip(_CONTINUATION) + bytes(piece) + rest)
        self.tail = bytes(piece[-3:])
        return n


def _looks_like_header(parts: list[str]) -> bool:
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


class _TextLoad:
    """One pass over the bytes ``[start, stop)`` of a word-vectors text file (by
    default the whole file): the tokens kept so far, in order, the drop counts
    and the lines read; each block's unit rows are written to `staging`.

    A range after the first holds no header, and its records have the
    `dimension` of the file's first record. The earlier ranges change how it
    reads a record only through their kept tokens, so it reads as if they kept
    none. It lists in `undecided` the records whose outcome an earlier kept
    token would change, so that `_Merge.add` can decide them: those it dropped
    for their norm, and those whose components do not parse, which are a bad
    record only when no earlier range kept their token."""

    def __init__(self, path: Path, fold_case: bool, staging: BinaryIO, start: int = 0,
                 stop: int | None = None, dimension: int | None = None):
        self.path, self.fold_case = path, fold_case
        self.staging = staging
        self.start, self.stop = start, stop
        # the kept tokens in row order, as an ordered dict's keys: not a set,
        # whose table grows 4x at a time below 50k entries
        self.tokens: dict[str, None] = {}
        self.dimension = dimension
        self.started = start > 0  # a non-blank line has been read
        self.drops: Counter[str] = Counter()
        self.lines = 0
        # (line, token, drop cause, or None for components that do not parse)
        self.undecided: list[tuple[int, str, str | None]] | None = [] if start else None

    def block(self, numbered: list[tuple[int, str]]) -> None:
        """Add (line number, line) pairs, each split once into token and rest.

        One np.loadtxt call parses the rests of every record with components,
        duplicates too. When it parsed every record of the block at the store's
        width, `rows` checks them as arrays and drops the duplicates. Otherwise,
        and when numpy refuses the rests (``1_0``, a bad component, unequal
        widths, a duplicate's too), `records` walks the block in line order; it
        alone names a bad record's line in a DataError."""
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
            records.append((lineno, token, rest))
            if rest:
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
            self.rows(records, matrix)
        else:
            self.records(records, iter(matrix))

    def rows(self, records: list[tuple[int, str, str]], matrix: np.ndarray) -> None:
        """Keep the rows of `matrix`, the parsed `records`, by the rules of
        `records`, checked as arrays: one batched row dot gives the squared
        norms, the same ``ddot`` per row as ``vec.dot(vec)``."""
        tokens = [token for _, token, *_ in records]
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
        if self.undecided is not None:
            self.undecided += [(records[i][0], tokens[i],
                                "zero_norm_skipped" if zero[i] else "non_finite_skipped")
                               for i in np.flatnonzero(dropped).tolist()]
        if not keep.all():
            matrix, norms = matrix[keep], norms[keep]
        self.write(matrix, norms)

    def records(self, records: list[tuple[int, str, str]],
                parsed: Iterator[np.ndarray] | None) -> None:
        """Keep the `records` of one block one at a time, applying each rule once
        in line order: width, duplicate, components, norm, zero and
        non-finite drops. A record with components takes its row from
        `parsed`; without it, the rest is split and read by `float`. A bad
        record is a DataError naming its line, but for components that do not
        parse in a range after the first: `undecided`."""
        vecs, norms = [], []
        for lineno, token, rest in records:
            fields = next(parsed) if rest and parsed is not None else rest.split()
            if self.dimension is None:
                if len(fields) < 1:
                    raise _RecordError(self.path, lineno, "record has no vector components")
                self.dimension = len(fields)
            elif len(fields) != self.dimension:
                raise _RecordError(self.path, lineno, f"expected {self.dimension} "
                                   f"components, found {len(fields)}")
            if token in self.tokens:
                self.drops["duplicates_ignored"] += 1
                continue
            try:
                vec = np.asarray(fields, dtype=np.float64)
            except ValueError as exc:
                if self.undecided is None:
                    raise _RecordError(self.path, lineno, UNPARSEABLE) from exc
                self.undecided.append((lineno, token, None))
                continue
            norm = math.sqrt(vec.dot(vec))  # as np.linalg.norm computes it, bit for bit
            if not math.isfinite(norm) and np.isfinite(vec).all():
                # finite, but its squares overflowed: scale by a power of two, as `pearson` does
                np.ldexp(vec, -np.frexp(np.max(np.abs(vec)))[1], out=vec)
                norm = math.sqrt(vec.dot(vec))
            if norm < MIN_NORM or not math.isfinite(norm):
                cause = "zero_norm_skipped" if norm < MIN_NORM else "non_finite_skipped"
                self.drops[cause] += 1
                if self.undecided is not None:
                    self.undecided.append((lineno, token, cause))
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

    def parse(self, block_lines: int | None = None) -> None:
        """Read the range through `block`, `block_lines` lines at a time (by
        default `BLOCK_LINES`), as UTF-8 with an optional byte-order mark at the
        start of the file."""
        block_lines = block_lines or BLOCK_LINES
        # a finite record's squares may overflow; `rows` and `records` rescale it
        with decoding(self.path), open(self.path, "rb", buffering=0) as raw, \
                io.TextIOWrapper(_Range(raw, self.start, self.stop),
                                 encoding="utf-8" if self.start else "utf-8-sig") as fh, \
                np.errstate(over="ignore"):
            numbered = enumerate(fh, start=1)
            for first in numbered:
                lines = [first]
                try:
                    lines.extend(itertools.islice(numbered, block_lines - 1))
                finally:  # the lines read before an undecodable one still count, and err, first
                    self.block(lines)
                self.lines = lines[-1][0]


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


def cache_vectors(path: str | Path, out: str | Path, fold_case: bool = True,
                  processes: int = 1) -> tuple[LoadReport, int]:
    """Parse a word-vectors text file and write its binary cache to `out`; it
    returns the load report and the dimension. This is cadict's one text parser.

    Format: an optional ``N d`` header (two integers) on the first non-blank
    line, then one ``token v1 ... vd`` record per line, whitespace separated,
    UTF-8 with an optional byte-order mark. The dimension is inferred from the
    first record; any later record with a different component count, or a
    component that does not parse, is a hard error naming the line. Zero-norm
    vectors (norm below `MIN_NORM`) and non-finite ones are dropped and
    counted apart; a finite vector whose norm overflows is kept. On
    duplicate tokens the first occurrence wins. Tokens are folded to
    lowercase unless `fold_case` is off.

    Records are parsed `BLOCK_LINES` lines at a time by `_TextLoad.block`.
    With `processes` above 1, a file of at least two `MIN_RANGE_BYTES` is cut
    into up to `processes` byte ranges (`_split`). This process parses the
    first, a child process each of the others, and `_Merge` joins them in range
    order; the cache bytes, report and error equal one pass's. Only the kept
    tokens and one block of rows are held. The unit rows are written to
    staging files in `out`'s directory, which take about the matrix's bytes
    there, and copied after the header and the tokens once the parse has
    succeeded; `out` is not opened before then."""
    if processes < 1:
        raise ValueError(f"processes must be at least 1, got {processes}")
    path, out = Path(path), Path(out)
    with _parse(path, out, fold_case, *_split(path, processes)) as (merge, parts):
        if not merge.tokens:
            raise DataError(f"{path}: no usable vector records")
        head = _cache_head(merge.tokens, merge.dimension, str(path))
        with open(out, "wb") as fh:
            fh.writelines(head)
            for staging, skipped in parts:
                _copy_rows(staging, fh, skipped, merge.dimension * 8)
    return LoadReport(accepted=len(merge.tokens), **merge.drops), merge.dimension


def _split(path: Path, processes: int) -> tuple[list[int | None], int | None]:
    """Where `cache_vectors` cuts `path` for `processes`: the offsets that bound
    its byte ranges, ``[0, ..., size]``, each cut just after a ``\\n``, and the
    dimension of the first record. The first cut follows that record, so only
    the first range can hold the header. That range is `MIN_RANGE_BYTES` longer
    than the others. The whole file, ``[0, None]``, and no dimension when it is
    one range: under two `MIN_RANGE_BYTES`, with no ``\\n`` to cut at, or with a
    first record that `_first_record` does not find."""
    whole: tuple[list[int | None], int | None] = ([0, None], None)
    size = os.stat(path).st_size
    count = min(processes, size // MIN_RANGE_BYTES)
    if count < 2:
        return whole
    with open(path, "rb") as fh:
        first = _first_record(fh)
        if first is None:
            return whole
        dimension, end = first
        cuts: list[int | None] = [0]
        step = (size - MIN_RANGE_BYTES) // count
        for i in range(1, count):
            # from the byte before the target, which may already end a line
            cut = _line_end(fh, max(end, MIN_RANGE_BYTES + i * step) - 1)
            if cut is None or cut >= size:
                break
            if cut > cuts[-1]:
                cuts.append(cut)
    return ([*cuts, size], dimension) if len(cuts) > 1 else whole


def _first_record(fh: BinaryIO) -> tuple[int, int] | None:
    """The dimension of the first record of the file `fh`, read from its start
    as `_TextLoad.block` reads it, and the offset just after the ``\\n`` that
    ends its line. None if a line before it is longer than 1 MiB or does not
    decode, or if it has no component: one pass then reports what it finds."""
    started, encoding = False, "utf-8-sig"
    while (raw := fh.readline(1 << 20)).endswith(b"\n"):
        try:
            text = raw.decode(encoding)
        except UnicodeDecodeError:
            return None
        encoding = "utf-8"
        for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
            parts = line.split()
            if not parts:
                continue
            if not started:
                started = True
                if _looks_like_header(parts):
                    continue
            return (len(parts) - 1, fh.tell()) if len(parts) > 1 else None
    return None


def _line_end(fh: BinaryIO, offset: int) -> int | None:
    """The offset just after the first ``\\n`` at or after `offset` in `fh`, or None."""
    fh.seek(offset)
    while piece := fh.readline(1 << 16):
        if piece.endswith(b"\n"):
            return fh.tell()
    return None


# a child's body: its first argument puts cadict's package first on its path. It
# exits without tearing its modules down, which the parent would wait for (25-30 ms
# on a 2-vCPU Xeon); its files are closed and its summary printed by then
_CHILD = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
          "from cadict.embeddings import _range_child; _range_child(sys.argv[2]); "
          "sys.stdout.flush(); os._exit(0)")


@contextmanager
def _parse(path: Path, out: Path, fold_case: bool, cuts: list[int | None],
           dimension: int | None):
    """Parse the byte ranges of `path` between `cuts`: each after the first in a
    child process, started first, and the first in this process; then merge
    them in range order. It yields the `_Merge` and the staged rows, as
    (staging file, skipped rows) pairs. Each range stages its rows, and a
    child its kept tokens, in files in `out`'s directory. On leaving, the
    children still running are killed, and then their files are removed."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    root = str(Path(__file__).resolve().parents[1])
    children, names = [], []
    try:
        for start, stop in zip(cuts[1:], cuts[2:]):
            files = []
            for kind in ("staging", "tokens"):
                fd, name = tempfile.mkstemp(dir=out.parent, prefix=f"{out.name}.{kind}.")
                os.close(fd)
                names.append(name)
                files.append(name)
            args = [str(path), start, stop, fold_case, dimension, BLOCK_LINES, *files]
            child = subprocess.Popen(
                [sys.executable, "-c", _CHILD, root, json.dumps(args)], env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            children.append((child, start, stop, *files))
        if children:
            logger.debug("%s: %d byte ranges, %d of them in child processes",
                         path, len(cuts) - 1, len(children))
        with ExitStack() as stack:
            # removed when closed; its prefix names `out` in an error from creating it
            staging = stack.enter_context(
                tempfile.TemporaryFile(dir=out.parent, prefix=f"{out.name}.staging."))
            first = _TextLoad(path, fold_case, staging, 0, cuts[1], dimension)
            first.parse()
            merge = _Merge(path, first)
            parts = [(staging, [])]
            for child, start, stop, rows, tokens in children:
                summary = _summary(child, path, start, stop)
                with open(tokens, encoding="utf-8", newline="\n") as fh:
                    skipped = merge.add(summary, (line[:-1] for line in fh))
                parts.append((stack.enter_context(open(rows, "rb")), skipped))
            yield merge, parts
    finally:
        for child, *_ in children:
            if child.returncode is None:
                child.kill()
                child.communicate()
        for name in names:
            with suppress(FileNotFoundError):
                os.unlink(name)


def _summary(child: subprocess.Popen, path: Path, start: int, stop: int) -> dict:
    """The JSON line that `child` printed; a ChildProcessError naming the range
    and the last line of its standard error if it failed."""
    stdout, stderr = child.communicate()
    code = child.returncode
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        last = stderr.decode(errors="replace").strip().rpartition("\n")[2]
        raise ChildProcessError(f"{path}: the process parsing bytes {start}-{stop} {how}"
                                + (f": {last}" if last else ""))
    return json.loads(stdout)


def _range_child(args: str) -> None:
    """A child process of `cache_vectors`: parse the range that the JSON list
    `args` gives to `_parse_range` and print its summary as one JSON line."""
    print(json.dumps(_parse_range(*json.loads(args))))


def _parse_range(path: str, start: int, stop: int, fold_case: bool, dimension: int,
                 block_lines: int, staging: str, tokens: str) -> dict:
    """Parse the bytes ``[start, stop)`` of `path` into the files named `staging`
    (the unit rows) and `tokens` (the kept tokens, one a line), and return the
    summary that `_Merge.add` reads, ready for JSON: the lines read, the drop
    counts, the undecided records and the first error, as ``[line, detail]``
    for a bad record and as its message otherwise."""
    with open(staging, "wb") as fh:
        load = _TextLoad(Path(path), fold_case, fh, start, stop, dimension)
        error: list | str | None = None
        try:
            load.parse(block_lines)
        except _RecordError as exc:
            error = [exc.line, exc.detail]
        except DataError as exc:
            error = str(exc)
    if error is None:
        with open(tokens, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{token}\n" for token in load.tokens)
    return {"lines": load.lines, "drops": load.drops, "undecided": load.undecided,
            "error": error}


class _Merge:
    """Byte ranges' results, merged in range order into what one pass over the
    whole file gives: the kept tokens, where the first occurrence wins across
    ranges, the drop counts and the first error. It starts from the `first`
    range, parsed in this process, whose tokens it takes over."""

    def __init__(self, path: Path, first: _TextLoad):
        self.path, self.dimension = path, first.dimension
        self.tokens, self.drops = first.tokens, first.drops
        self.lines = first.lines  # in the ranges merged so far

    def add(self, summary: dict, tokens: Iterable[str]) -> list[int]:
        """Merge the next range, given its `_parse_range` summary and its kept
        `tokens` in row order. It returns the numbers of the range's rows whose
        token an earlier range kept; they are duplicates. A DataError, naming the
        line as one pass names it, if the range holds the file's first error."""
        kept, drops = self.tokens, Counter(summary["drops"])
        # one pass checks for a duplicate before it parses the components and
        # before the norm: a record of a token kept earlier is a duplicate
        for line, token, cause in summary["undecided"]:
            if token in kept:
                drops["duplicates_ignored"] += 1
                if cause:
                    drops[cause] -= 1
            elif cause is None:
                raise _RecordError(self.path, self.lines + line, UNPARSEABLE)
        error = summary["error"]
        if isinstance(error, list):
            raise _RecordError(self.path, self.lines + error[0], error[1])
        if error is not None:
            raise DataError(error)
        skipped = []
        for row, token in enumerate(tokens):
            if token in kept:
                skipped.append(row)
            else:
                kept[token] = None
        drops["duplicates_ignored"] += len(skipped)
        self.drops.update(drops)
        self.lines += summary["lines"]
        return skipped


def _copy_rows(staging: BinaryIO, out: BinaryIO, skipped: list[int], row_bytes: int) -> None:
    """Copy the rows of the `staging` file to `out`, but for the rows numbered
    `skipped` (in increasing order), reading at most `COPY_BYTES` at a time."""
    staging.flush()
    rows = os.fstat(staging.fileno()).st_size // row_bytes
    row = 0
    for end in [*skipped, rows]:
        staging.seek(row * row_bytes)
        left = (end - row) * row_bytes
        while left > 0 and (piece := staging.read(min(left, COPY_BYTES))):
            out.write(piece)
            left -= len(piece)
        row = end + 1


def load_vectors(path: str | Path, fold_case: bool = True) -> VectorStore:
    """The store that `cache_vectors` caches from a word-vectors text file, with
    the text's load report: the cache is written to a temporary directory in
    ``TMPDIR`` (with its staging file, about twice the matrix's bytes) and read
    back by `load_cache`, so a text store equals its cache by construction."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "store.cavs"
        report, _ = cache_vectors(path, cache, fold_case=fold_case)
        store = load_cache(cache)
    return VectorStore(store.tokens, store.matrix, store.source_id, load_report=report)


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
    """Load a binary cache written by `cache_vectors` or `save_cache`.

    A file that is no cache, such as word-vectors text, is a DataError that
    names `cadict cache-vectors`. A truncated or corrupt file is a DataError
    naming the file and the part that is unreadable, and so is a header whose
    version or dtype is not the one `save_cache` writes. With `vocab_filter`,
    only the kept tokens and rows are held: the token list is split a piece at
    a time (`_token_pieces`), and each run of consecutive kept rows is read
    straight into its place.
    """
    path = Path(path)
    # unbuffered, so that each run of kept rows costs one read of just its bytes
    with open(path, "rb", buffering=0) as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise DataError(f"{path}: not a cadict vector cache: not a regular file")
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise DataError(f"{path}: not a cadict vector cache (bad magic); "
                            "convert word-vectors text with `cadict cache-vectors` first")
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


def open_store(path: str | Path, vocab_filter: set[str] | None = None) -> VectorStore:
    """`load_cache`, under the name that `perfbench/work.py` calls."""
    return load_cache(path, vocab_filter=vocab_filter)
