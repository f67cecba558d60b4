"""Static word vectors: one text parser, unit normalization, a binary cache.

Vectors are L2-normalized once, when `cache_vectors` parses a text file into
a binary cache, so that every later similarity is a plain dot product; the
seed search downstream evaluates millions of them. Every run-time load reads
that cache through `load_cache`, since parsing a multi-gigabyte text dump
would otherwise dominate each run's start-up time. It reads the header, the
token list, then the rows. Every read, unit-norm check and copy of cache rows
moves them in the pieces that `_pieces` cuts, some on a thread pool.

A large text is parsed in byte ranges, each cut just after a ``\\n``, by
several processes at once: this one parses the first range, and a child
process each of the others. Each applies the parser's rules to its own range
and leaves undecided only what depends on the ranges before it: whether a token
it kept, or dropped, was kept earlier. The ranges only speed up a valid text.
The first range's loader merges the others in order (`_TextLoad.absorb`) only
when nothing in them can differ from one pass over the whole file; after an
error, or anything else, that one pass is run and its cache, report or error is
the answer, at the cost of up to one more pass.
"""

from __future__ import annotations

import codecs
import errno
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
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from cadict.errors import DataError, open_text, output, writing
from cadict.metrics import pow2_scaled

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"CAVS0001"
CACHE_FORMAT = {"version": 1, "dtype": "<f8"}  # header fields `load_cache` requires as written
# text lines per np.loadtxt call. On a 40k x 300 text (2-vCPU Xeon), cache_vectors'
# median CPU time was 1.09 s at 1024 lines, 1.02 s at 512 and 256 and 1.04-1.07 s
# at 128, and the ingest benchmark's peak RSS 45.2 MB at 512, 42.8 MB at 256 and
# 41.5 MB at 128: larger blocks cost memory, and smaller ones time
BLOCK_LINES = 256
# the most cache bytes a piece of rows (`_pieces`) holds: read, checked or copied at a time
CHUNK_BYTES = 1 << 24
# the text that one process parses while a child process starts: on a 2-vCPU Xeon
# a child started (Python, numpy and cadict imported) in about 0.2 s, the time one
# process took to parse about 16 MB of 300-d rows. `cache_vectors` cuts a file into
# at most one range per MIN_RANGE_BYTES, and the first range, which it parses
# itself while the children start, is MIN_RANGE_BYTES longer than each child's
MIN_RANGE_BYTES = 1 << 24
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


def usable_cpus() -> int:
    """The CPUs this process may run on: the threads of a cache load and its
    unit-row check, and the default processes of `cache_vectors`' CLI."""
    return len(os.sched_getaffinity(0))


def _pieces(rows: Sequence[int], row_bytes: int) -> Iterator[tuple[int, int, int]]:
    """The increasing row numbers `rows`, of `row_bytes` each, as the pieces in
    which every read, check and copy of cache rows moves them: ``(first source
    row, first destination row, rows)`` for each run of consecutive rows, cut
    every `CHUNK_BYTES`, of one row at least; destination row i is ``rows[i]``."""
    count, step = len(rows), max(1, CHUNK_BYTES // max(1, row_bytes))
    if not count:
        return
    # rows that span no more numbers than they count, such as a range, are one run
    breaks = ([] if rows[-1] - rows[0] == count - 1
              else (np.flatnonzero(np.diff(rows) != 1) + 1).tolist())
    for lo, hi in zip([0, *breaks], [*breaks, count]):
        first = int(rows[lo]) - lo
        for dst in range(lo, hi, step):
            yield first + dst, dst, min(step, hi - dst)


@contextmanager
def _threads(work: Callable[[int, int, int], None], pieces: list[tuple[int, int, int]]):
    """`work(src, dst, rows)` over each of `pieces` (`_pieces`) on a pool of one
    thread per usable CPU, at most one a piece, none of which outlives the
    context. It yields a function that waits for every piece, raises the first
    failing one's error and returns the thread count; it does the work itself
    when one thread would run it, and none is started."""
    threads = min(usable_cpus(), len(pieces))
    if threads < 2:
        def wait() -> int:
            for piece in pieces:
                work(*piece)
            return 1
        yield wait
        return
    from concurrent.futures import ThreadPoolExecutor  # not imported by a one-thread run
    with ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(work, *piece) for piece in pieces]

        def wait() -> int:
            for future in futures:
                future.result()
            return threads
        yield wait


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
    construction, so no caller can change a published store. The unit-row
    check runs on the pool of `_threads` while this thread checks and indexes the tokens.
    """

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray, source_id: str,
                 load_report: LoadReport | None = None):
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise ValueError("matrix shape does not match token count")
        if matrix.shape[0] == 0:
            raise DataError(f"vector store from {source_id!r} is empty")
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        with _threads(lambda src, dst, rows: _check_unit_rows(matrix[dst:dst + rows]),
                      list(_pieces(range(len(matrix)), matrix.shape[1] * 8))) as check:
            self._tokens = tuple(tokens)
            # one split at C speed: NUL is no whitespace, so the joined tokens split
            # into themselves alone exactly when no token holds whitespace
            joined = "\0".join(self._tokens)
            if "" in self._tokens or joined.split() != [joined]:
                for t in self._tokens:
                    if t.split() != [t]:
                        raise ValueError(f"bad token for store: {t!r}")
            self._index = dict(zip(self._tokens, range(len(self._tokens))))
            if len(self._index) != len(self._tokens):
                raise ValueError("duplicate tokens in store construction")
            check()
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
    """One pass over the bytes ``[start, stop)`` of a word-vectors text file (by
    default the whole file): the tokens kept so far, in order, and the drop
    counts; each block's unit rows are written to `staging`, a file for the
    cache `out`, which a failed write names.

    A range after the first holds no header, and it takes its dimension from
    its own first record. The earlier ranges change how it reads a record only
    through their kept tokens, so it reads as if they kept none. It lists in
    `undecided` the records whose outcome an earlier kept token would change:
    those it dropped for their norm, and those whose components do not parse,
    which are a bad record only when no earlier range kept their token. The
    first range's loader is the merge: its `absorb` adds each later range."""

    def __init__(self, path: Path, fold_case: bool, staging: BinaryIO, out: Path,
                 start: int = 0, stop: int | None = None):
        self.path, self.fold_case = path, fold_case
        self.staging, self.out, self.start, self.stop = staging, out, start, stop
        # the kept tokens in row order, as an ordered dict's keys: not a set,
        # whose table grows 4x at a time below 50k entries
        self.tokens: dict[str, None] = {}
        self.dimension: int | None = None
        self.started = start > 0  # a non-blank line has been read
        self.drops: Counter[str] = Counter()
        # (token, drop cause, or None for components that do not parse)
        self.undecided: list[tuple[str, str | None]] | None = [] if start else None

    def block(self, numbered: list[tuple[int, str]]) -> None:
        """Add (line number, line) pairs, each split once into token and rest.

        One np.loadtxt call parses the rests of every record with components,
        duplicates too. When it parsed every record of the block at the store's
        width, `rows` keeps them. Otherwise (a record without components, another
        width) and when numpy refuses the rests (``1_0``, a bad component,
        unequal widths, a duplicate's too), `records` walks the block's text in
        line order and passes its rows to `rows`; it alone names a bad record's
        line in a DataError."""
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
        if matrix is not None and len(matrix) == len(rests) == len(records) \
                and self.dimension in (None, matrix.shape[1]):
            self.dimension = matrix.shape[1]
            self.rows([token for _, token, _ in records], matrix)
        else:
            if rests:
                logger.debug("%s: lines %d-%d parsed line by line",
                             self.path, numbered[0][0], numbered[-1][0])
            self.records(records)

    def rows(self, tokens: list[str], matrix: np.ndarray) -> None:
        """Keep the parsed rows `matrix` of `tokens` in order, as arrays: a row of a
        token kept earlier is a duplicate; else a zero (below `MIN_NORM`) or
        non-finite norm drops it. One batched row dot gives the squared norms, each
        row's ``vec.dot(vec)`` bit for bit, after a row whose squares overflow is scaled."""
        if not tokens:
            return
        squares = np.matmul(matrix[:, None, :], matrix[:, :, None]).ravel()
        for i in np.flatnonzero(~np.isfinite(squares)).tolist():
            vec = matrix[i]
            if np.isfinite(vec).all():  # finite, but its squares overflowed
                squares[i] = pow2_scaled(vec, out=vec).dot(vec)
        norms = np.sqrt(squares)
        zero = norms < MIN_NORM
        good = ~zero & np.isfinite(norms)
        duplicates = self.keep(tokens, good.tolist())
        dropped = ~good
        dropped[duplicates] = good[duplicates] = False
        self.drops["zero_norm_skipped"] += int(np.count_nonzero(dropped & zero))
        self.drops["non_finite_skipped"] += int(np.count_nonzero(dropped & ~zero))
        if self.undecided is not None:
            self.undecided += [(tokens[i], "zero_norm_skipped" if zero[i] else "non_finite_skipped")
                               for i in np.flatnonzero(dropped).tolist()]
        if not good.all():
            matrix, norms = matrix[good], norms[good]
        self.write(matrix, norms)

    def keep(self, tokens: Iterable[str], good: Iterable[bool]) -> list[int]:
        """Keep in order each of `tokens` that is `good`, unless its token was kept
        earlier: those are duplicates, and counted; their indices are returned."""
        kept, duplicates = self.tokens, []
        for i, (token, ok) in enumerate(zip(tokens, good)):
            if token in kept:  # a first occurrence dropped for its norm kept no token
                duplicates.append(i)
            elif ok:
                kept[token] = None
        self.drops["duplicates_ignored"] += len(duplicates)
        return duplicates

    def absorb(self, summary: dict) -> list[int]:
        """Merge the next range, given its `_range_child` summary, which holds its
        kept tokens in row order, into this, the first range's loader. It returns
        the numbers of the range's rows whose token an earlier range kept; they
        are duplicates. A `_Doubt` if one pass might read the range otherwise: it
        holds an error, its records have another dimension than the file's, or a
        record of a token that no earlier range kept does not parse."""
        if summary["error"] is not None:
            raise _Doubt(summary["error"])
        if self.dimension is None:
            self.dimension = summary["dimension"]
        if summary["dimension"] not in (None, self.dimension):
            raise _Doubt(f"a range's records have {summary['dimension']} components, "
                         f"not {self.dimension}")
        self.drops.update(summary["drops"])
        # one pass checks for a duplicate before it parses the components and
        # before the norm: a record of a token kept earlier is a duplicate
        for token, cause in summary["undecided"]:
            if token in self.tokens:
                self.drops["duplicates_ignored"] += 1
                if cause:
                    self.drops[cause] -= 1
            elif cause is None:
                raise _Doubt(f"a record of {token!r} in a later range does not parse")
        return self.keep(summary["tokens"], itertools.repeat(True))

    def records(self, records: list[tuple[int, str, str]]) -> None:
        """Walk the `records` of one block in line order for their width and
        components, each split from its text and read by `float`. Their rows go
        to `rows` at the end, and before a record whose components do not
        parse, so that it is a duplicate if its token was kept, or else a
        DataError naming its line, but in a range after the first: `undecided`."""
        tokens, vecs = [], []
        for lineno, token, rest in records:
            fields = rest.split()
            if self.dimension is None:
                if len(fields) < 1:
                    raise DataError(f"{self.path}: line {lineno}: record has no vector "
                                    "components")
                self.dimension = len(fields)
            elif len(fields) != self.dimension:
                raise DataError(f"{self.path}: line {lineno}: expected {self.dimension} "
                                f"components, found {len(fields)}")
            try:
                vecs.append(np.asarray(fields, dtype=np.float64))
                tokens.append(token)
            except ValueError as exc:
                self.rows(tokens, np.array(vecs))
                tokens, vecs = [], []
                if token in self.tokens:
                    self.drops["duplicates_ignored"] += 1
                elif self.undecided is None:
                    raise DataError(f"{self.path}: line {lineno}: unparseable vector "
                                    "component") from exc
                else:
                    self.undecided.append((token, None))
        self.rows(tokens, np.array(vecs))

    def write(self, rows: np.ndarray, norms: np.ndarray) -> None:
        """Divide the kept `rows` by their `norms` in place, which makes them unit
        rows, and write them to the staging file."""
        rows /= norms[:, None]
        with writing(self.out):
            try:
                self.staging.write(rows.astype("<f8", copy=False).data)
                self.staging.flush()  # a failed write fails here, and is named
            except OSError:
                self.staging.raw.close()  # so that closing the file writes, and fails, no more
                raise

    def parse(self) -> None:
        """Read the range through `block`, `BLOCK_LINES` lines at a time, as UTF-8 with a
        byte-order mark allowed at offset 0; line numbers count from the range's start."""
        # a finite record's squares may overflow; `rows` rescales it
        with open_text(self.path, self.start, self.stop) as fh, np.errstate(over="ignore"):
            numbered = enumerate(fh, start=1)
            for first in numbered:
                lines = [first]
                try:
                    lines.extend(itertools.islice(numbered, BLOCK_LINES - 1))
                finally:  # the lines read before an undecodable one still count, and err, first
                    self.block(lines)


def _staging(out: Path) -> BinaryIO:
    """A new file for rows staged for the cache `out`, in its directory: one with
    no name, so that it is gone once closed, also when the process is killed. A
    failure to make it names `out`."""
    with writing(out):
        return tempfile.TemporaryFile(dir=out.parent)


def _write_cache(out: Path, tokens: Collection[str], dimension: int, source_id: str,
                 rows: Callable[[BinaryIO], object]) -> None:
    """Write a cache that replaces `out` once whole (`errors.output`): the magic,
    the header and the token list, then its rows, which `rows(fh)` writes. The
    tokens are encoded once, a piece at a time, so the list's bytes are held once
    and never beside one joined str of every token."""
    header_blob = json.dumps({**CACHE_FORMAT, "dimension": dimension, "count": len(tokens),
                              "source_id": source_id}, sort_keys=True).encode("utf-8")
    rest = iter(tokens)
    blob: list[bytes] = []
    while piece := list(itertools.islice(rest, 1 << 14)):  # tokens a piece
        blob += (b"\n", "\n".join(piece).encode("utf-8"))
    del blob[:1]  # no newline before the first piece
    with output(out, binary=True) as fh:
        fh.writelines([CACHE_MAGIC, struct.pack("<I", len(header_blob)), header_blob,
                       struct.pack("<Q", sum(map(len, blob))), *blob])
        rows(fh)


def save_cache(store: VectorStore, path: str | Path) -> None:
    """Write a binary cache of `store`, which replaces `path` only once it is
    whole; loads back via `load_cache` byte-exactly."""
    _write_cache(Path(path), store.tokens, store.dimension, store.source_id,
                 lambda fh: fh.write(np.ascontiguousarray(store.matrix, dtype="<f8").data))


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
    first, a child process each of the others, and the first range's loader
    merges the others in range order (`_TextLoad.absorb`). Ranges that hold an
    error, or whose merge might differ from one pass, are dropped and the file
    is parsed again in one pass, so the cache bytes, report and error are one
    pass's. Only the kept tokens and one block of rows are held. The unit rows
    are staged in nameless files in `out`'s directory (`_staging`), about the
    matrix's bytes, which are gone when the parse ends, however it ends; once
    it has succeeded, they are copied by the kernel (`_copy_rows`) after the
    header and the tokens. The new cache replaces `out` only once it is whole;
    a failed write is an OSError naming `out`."""
    if processes < 1:
        raise ValueError(f"processes must be at least 1, got {processes}")
    path, out = Path(path), Path(out)
    cuts = _split(path, processes)
    if len(cuts) > 2:
        try:
            return _cache(path, out, fold_case, cuts)
        except (DataError, _Doubt) as why:
            logger.debug("%s: byte ranges not merged, parsing it in one pass: %s", path, why)
    return _cache(path, out, fold_case, [0, None])


def _split(path: Path, processes: int) -> list[int | None]:
    """Where `cache_vectors` cuts `path` for `processes`: the offsets that bound
    its byte ranges, ``[0, ..., size]``, each cut just after a ``\\n``. The
    first range is `MIN_RANGE_BYTES` longer than the others. The whole file,
    ``[0, None]``, when it is one range: under two `MIN_RANGE_BYTES`, or with
    no ``\\n`` to cut at."""
    size = os.stat(path).st_size
    count = min(processes, size // MIN_RANGE_BYTES)
    cuts: list[int | None] = [0]
    if count > 1:
        step = (size - MIN_RANGE_BYTES) // count
        with open(path, "rb") as fh:
            for i in range(1, count):
                # to the first \n from the byte before the target, which may end a line
                fh.seek(MIN_RANGE_BYTES + i * step - 1)
                while (line := fh.readline(1 << 16)) and not line.endswith(b"\n"):
                    pass
                cut = fh.tell()
                if not line or cut >= size:
                    break
                if cut > cuts[-1]:
                    cuts.append(cut)
    return [*cuts, size] if len(cuts) > 1 else [0, None]


# a child's body: its first argument puts cadict's package first on its path. It
# exits without tearing its modules down, which the parent would wait for (25-30 ms
# on a 2-vCPU Xeon); its staging file is closed and its summary printed by then
_CHILD = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
          "from cadict.embeddings import _range_child; _range_child(sys.argv[2]); "
          "sys.stdout.flush(); os._exit(0)")


class _Doubt(Exception):
    """Byte ranges whose merge might not be one pass's, and why."""


def _cache(path: Path, out: Path, fold_case: bool,
           cuts: list[int | None]) -> tuple[LoadReport, int]:
    """`cache_vectors`, parsing the byte ranges of `path` between `cuts`: each
    after the first in a child process, started first, and the first in this
    process, whose loader then merges the others in range order through
    `_TextLoad.absorb`. Each range stages its rows in a `_staging` file, which a
    child inherits as a descriptor; a child's other results, its kept tokens
    too, come in its summary. A `_Doubt` if the first range read no non-blank
    line, since the header may follow it. On leaving, the children still
    running are killed; the kernel kills them once this thread, which starts
    and waits for all of them, ends (`_end_with_parent`)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    root = str(Path(__file__).resolve().parents[1])
    children = []
    with ExitStack() as stack:
        try:
            for start, stop in zip(cuts[1:], cuts[2:]):
                staging = stack.enter_context(_staging(out))
                fd = staging.fileno()
                args = [str(path), start, stop, fold_case, str(out), os.getpid(), fd]
                child = subprocess.Popen(
                    [sys.executable, "-c", _CHILD, root, json.dumps(args)], env=env,
                    pass_fds=(fd,), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE)
                children.append((child, start, stop, staging))
            if children:
                logger.debug("%s: %d byte ranges, %d of them in child processes",
                             path, len(cuts) - 1, len(children))
            staging = stack.enter_context(_staging(out))
            load = _TextLoad(path, fold_case, staging, out, 0, cuts[1])
            load.parse()
            if children and not load.started:
                raise _Doubt("the first range holds only blank lines")
            parts = [(staging, [])]
            for child, start, stop, rows in children:
                parts.append((rows, load.absorb(_summary(child, path, start, stop))))
            if not load.tokens:
                raise DataError(f"{path}: no usable vector records")
            _write_cache(out, load.tokens, load.dimension, str(path),
                         lambda fh: _copy_rows(parts, fh, load.dimension * 8))
        finally:
            for child, *_ in children:
                if child.returncode is None:
                    child.kill()
                    child.communicate()
    return LoadReport(accepted=len(load.tokens), **load.drops), load.dimension


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


def _end_with_parent(parent: int) -> None:
    """Have the kernel kill this process once the thread that started it ends,
    and exit now if its parent, the process `parent`, has ended already."""
    import ctypes
    import signal
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG, on Linux
    if os.getppid() != parent:
        os._exit(1)


def _range_child(args: str) -> None:
    """A child process of `cache_vectors`, which ends with the process `parent`.
    The JSON list `args` gives the bytes ``[start, stop)`` of `path` to parse, and
    the inherited descriptor `staging` that gets their unit rows, for the cache
    `out`. It prints the summary that `_TextLoad.absorb` reads as one JSON line: the
    dimension of the range's records, the drop counts, the undecided records, and
    its first error, named by its range, or else its kept tokens in row order."""
    path, start, stop, fold_case, out, parent, staging = json.loads(args)
    _end_with_parent(parent)
    with open(staging, "wb") as fh:
        load = _TextLoad(Path(path), fold_case, fh, Path(out), start, stop)
        error = None
        try:
            load.parse()
        except DataError as exc:
            error = f"bytes {start}-{stop}: {exc}"  # its line numbers count from `start`
    print(json.dumps({"dimension": load.dimension, "drops": load.drops,
                      "undecided": load.undecided, "error": error,
                      "tokens": None if error else list(load.tokens)}))


def _copy_rows(parts: list[tuple[BinaryIO, list[int]]], out: BinaryIO, row_bytes: int) -> None:
    """Append the staged rows of `parts`, (staging file, skipped rows) pairs, to
    `out` in order, but for the rows of each numbered `skipped` (increasing):
    a `_pieces` piece a ``copy_file_range``, file to file, with no buffer here."""
    out.flush()
    for staging, skipped in parts:
        rows = os.fstat(staging.fileno()).st_size // row_bytes
        kept = np.delete(np.arange(rows), skipped) if skipped else range(rows)
        for src, _, count in _pieces(kept, row_bytes):
            offset, left = src * row_bytes, count * row_bytes
            while left:  # a call may copy fewer bytes than asked
                copied = os.copy_file_range(staging.fileno(), out.fileno(), left, offset)
                if not copied:
                    raise OSError(errno.EIO, "staging file ended early")
                offset, left = offset + copied, left - copied


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


def _check_left(fh, size: int, path: Path, what: str) -> int:
    """The bytes of `fh` left after the next `size`; a DataError naming `what`
    if fewer than `size` are left. Checked before reading, so a corrupt length
    never becomes a huge allocation."""
    extra = os.fstat(fh.fileno()).st_size - fh.tell() - size
    if extra < 0:
        raise DataError(f"{path}: cache truncated in the {what}")
    return extra


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
    version or dtype is not the one `save_cache` writes; a token-list error
    comes before one in the vector data.

    It reads in one sequence: the header, the token list a piece at a time
    (`_token_pieces`), keeping only `vocab_filter`'s tokens, the count and size
    checks, then the rows, one `_pieces` piece a ``preadv`` into the matrix. A
    whole load reads on a pool of one thread per usable CPU (`_threads`); a
    filtered load holds only the kept rows and reads them here, since their
    many short reads ran slower on threads. `VectorStore` then checks the
    rows. At debug level it logs the rows read and the threads that read them.
    """
    path = Path(path)
    # unbuffered: the rows are read from its descriptor, not through it
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
        fd, data = fh.fileno(), fh.tell() + token_len
        tokens: list[str] = []
        rows = array("q")  # each kept token's row, with `vocab_filter`
        total = 0
        for piece in _token_pieces(fh, token_len, path):
            if vocab_filter is None:
                tokens += piece
            else:
                kept = list(map(vocab_filter.__contains__, piece))
                tokens += itertools.compress(piece, kept)
                rows.extend(itertools.compress(range(total, total + len(piece)), kept))
            total += len(piece)
        if total != count:
            raise DataError(f"{path}: cache token count mismatch")
        extra = _check_left(fh, count * dim * 8, path, "vector data")
        if extra:
            raise DataError(f"{path}: corrupt cache: {extra} bytes after the vector data")
        if not tokens:
            raise DataError(f"{path}: vocab filter removed every cached vector")
        matrix = np.empty((len(tokens), dim), dtype="<f8")

        def read(src: int, dst: int, n: int) -> None:  # a preadv moves no file offset
            if os.preadv(fd, [matrix[dst:dst + n]], data + src * dim * 8) != n * dim * 8:
                raise DataError(f"{path}: cache truncated in the vector data")
        if vocab_filter is None:
            with _threads(read, list(_pieces(range(count), dim * 8))) as reads:
                threads = reads()
        else:
            for piece in _pieces(rows, dim * 8):
                read(*piece)
            threads = 1
        logger.debug("%s: %d rows read on %d thread%s", path, len(matrix), threads,
                     "" if threads == 1 else "s")

    report = LoadReport(accepted=len(tokens), filtered_out=count - len(tokens))
    try:
        return VectorStore(tokens, matrix, source_id=source_id, load_report=report)
    except ValueError as exc:  # blank or duplicate tokens, rows not unit length
        raise DataError(f"{path}: corrupt cache: {exc}") from exc


def open_store(path: str | Path, vocab_filter: set[str] | None = None) -> VectorStore:
    """`load_cache`, under the name that `perfbench/work.py` calls."""
    return load_cache(path, vocab_filter=vocab_filter)
