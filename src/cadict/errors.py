"""Exception types shared across the package, the UTF-8 text opener that maps
undecodable input onto them, the regular-file check of an input that is read
twice, and the strict writer of every JSON output."""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


class CadictError(Exception):
    """Base class for all cadict errors."""


class DataError(CadictError):
    """An input file or token set is unusable: wrong format, wrong content,
    out-of-vocabulary tokens where they are fatal, degenerate joins."""


class InfeasibleError(CadictError):
    """The data is fine but the requested configuration cannot be satisfied,
    e.g. a base dictionary larger than the available vocabulary."""


@contextmanager
def decoding(path: str | Path) -> Iterator[None]:
    """Bytes of `path` that do not decode while the block reads it become a
    DataError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """Open an input file as UTF-8 text, dropping a leading byte-order mark; bytes
    that do not decode while it is read become a DataError naming the file."""
    with decoding(path), open(path, encoding="utf-8-sig") as fh:
        yield fh


def check_regular(path: str | Path, reads: str) -> None:
    """A DataError unless `path` names a regular file, which `reads` says is read
    twice: a pipe cannot be, and its second read would miss what the first took.
    The path is not opened, so a FIFO is refused without blocking."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise DataError(f"{path}: not a regular file; it is read twice, {reads}")


def write_json(path: str | Path, doc: dict) -> None:
    """Write `doc` as indented JSON; NaN and infinity are not JSON, so they are
    a ValueError raised before the file is opened."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
