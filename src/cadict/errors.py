"""Exception types shared across the package, the UTF-8 text opener of a file
or a byte range of it that maps undecodable input onto them, the regular-file
check of an input that is read twice, the context that names the path of a failed
write, the one opener of an output path, and the strict JSON writer."""

from __future__ import annotations

import io
import json
import os
import stat
from contextlib import contextmanager, suppress
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


class _Bytes(io.RawIOBase):
    """The binary file `fh` from where it stands up to offset `stop` (None: its
    end); closing it closes `fh`."""

    def __init__(self, fh: IO[bytes], stop: int | None):
        self.fh, self.stop = fh, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = None if self.stop is None else self.stop - self.fh.tell()
        return self.fh.readinto(memoryview(buffer)[:size]) or 0

    def close(self) -> None:
        self.fh.close()
        super().close()


@contextmanager
def open_text(path: str | Path, start: int = 0, stop: int | None = None) -> Iterator[IO[str]]:
    """Open an input file as UTF-8 text, or only its bytes from offset `start`
    to `stop` (None: its end), dropping a byte-order mark at offset 0; bytes
    that do not decode while it is read become a DataError naming the file."""
    encoding = "utf-8" if start else "utf-8-sig"
    with decoding(path):
        if start or stop is not None:
            raw = open(path, "rb", buffering=0)
            raw.seek(start)
            fh = io.TextIOWrapper(_Bytes(raw, stop), encoding=encoding)
        else:
            fh = open(path, encoding=encoding)
        with fh:
            yield fh


def check_regular(path: str | Path, reads: str) -> None:
    """A DataError unless `path` names a regular file, which `reads` says is read
    twice: a pipe cannot be, and its second read would miss what the first took.
    The path is not opened, so a FIFO is refused without blocking."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise DataError(f"{path}: not a regular file; it is read twice, {reads}")


@contextmanager
def writing(path: str | Path) -> Iterator[None]:
    """Name `path` in an OSError raised meanwhile: a failed write's names no file."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def sidecar(path: str | Path) -> str:
    return str(path) + ".manifest.json"


@contextmanager
def output(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A new hidden file beside the output `path`, UTF-8 text unless `binary`, that
    replaces it whole when the block ends, after removing `path`'s stale `sidecar`,
    or is removed if the block raises (KeyboardInterrupt too). It has `open`'s mode
    or a regular `path`'s, and its owner and group where this process may give
    them, and replaces a symlink's target; a FIFO or other non-regular file is
    written in place. A failed write is an OSError naming `path`."""
    mode, encoding = ("b", None) if binary else ("", "utf-8")
    with writing(path):
        old = os.stat(path) if os.path.exists(path) else None
        if old is not None and not stat.S_ISREG(old.st_mode):
            with open(path, "w" + mode, encoding=encoding) as fh:
                yield fh
            return
        head, name = os.path.split(os.path.realpath(path))
        tmp = os.path.join(head, f".{name[:60]}.{os.urandom(4).hex()}.tmp")  # 254 bytes at most
        fh = open(tmp, "x" + mode, encoding=encoding)
        try:
            with fh:
                if old is not None:
                    new = os.fstat(fh.fileno())
                    if (new.st_uid, new.st_gid) != (old.st_uid, old.st_gid):
                        with suppress(PermissionError):  # a user may give only its groups
                            os.chown(fh.fileno(), old.st_uid, old.st_gid)
                    os.chmod(fh.fileno(), stat.S_IMODE(old.st_mode))
                yield fh
            if os.path.lexists(sidecar(path)):  # False, not an error, for a name too long
                os.remove(sidecar(path))
            os.replace(tmp, os.path.join(head, name))
        except BaseException:
            os.remove(tmp)
            raise


def write_json(path: str | Path, doc: dict) -> None:
    """Write `doc` as indented JSON through `output`; NaN and infinity are not
    JSON, so they are a ValueError raised before the file is made."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    with output(path) as fh:
        fh.write(text + "\n")
