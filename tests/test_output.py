"""`errors.output`, the one opener of an output path: a new file beside it that
replaces it whole once written, with the mode, link and FIFO rules of `open`."""

import ast
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cadict
from cadict.errors import output, sidecar, write_json

from conftest import listing, python_env

# (module, function) of the only `open` calls in src/cadict that may write: the
# writer itself, and a cache-vectors child's open of its inherited staging descriptor
WRITING_OPENS = {("errors.py", "output"), ("embeddings.py", "_range_child")}


def _opens(source):
    """(function, line) of each `open` call in `source` whose mode may write, or
    is not a literal; ``open(path)`` and ``open(path, "rb")`` only read."""
    tree = ast.parse(source)
    owner = {}
    for node in ast.walk(tree):  # breadth first: a nested function's calls are its own
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(node), node.name))
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and getattr(
                call.func, "id", getattr(call.func, "attr", None)) == "open"):
            continue
        modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
        if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes):
            yield owner.get(call), call.lineno


def test_only_the_writer_opens_a_path_for_writing():
    found, importers = set(), set()
    for path in sorted(Path(cadict.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for function, line in _opens(source):
            assert (path.name, function) in WRITING_OPENS, f"{path.name}:{line} in {function}"
            found.add((path.name, function))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "cadict.errors" and \
                    "writing" in {alias.name for alias in node.names}:
                importers.add(path.name)
    assert found == WRITING_OPENS
    assert importers == {"embeddings.py"}  # and errors.py, which defines it


def test_the_check_finds_a_planted_open():
    assert list(_opens("def f(out):\n    with open(out, 'w') as fh:\n        pass\n")) == \
        [("f", 2)]
    assert list(_opens("open(p)\nopen(p, 'rb')\nopen(p, mode='r', encoding='utf-8')\n")) == []
    assert [line for _, line in _opens("open(p, 'a')\nos.open(p, flags)\nio.open(p, 'r+')\n")] \
        == [1, 2, 3]


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_new_file_has_the_mode_of_open(tmp_path, umask, binary):
    # the umask is the process's, so it is set in a child process of its own
    script = """if True:
        import sys
        from cadict.errors import output
        with output(sys.argv[1], binary=sys.argv[2] == "b") as fh:
            fh.write(b"x" if sys.argv[2] == "b" else "x")
        with open(sys.argv[1] + ".open", "w"):
            pass
    """
    out = tmp_path / "new.out"
    subprocess.run([sys.executable, "-B", "-c", script, str(out), "b" if binary else "t"],
                   env=python_env(), check=True, preexec_fn=lambda: os.umask(umask))
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    assert out.stat().st_mode == Path(f"{out}.open").stat().st_mode
    assert out.read_bytes() == b"x"


def test_a_regular_file_keeps_its_mode_and_a_hard_link_its_old_bytes(tmp_path):
    out, link = tmp_path / "out.json", tmp_path / "link.json"
    out.write_text("old\n")
    out.chmod(0o600)
    os.link(out, link)
    write_json(out, {"new": 1})
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert out.read_text() == '{\n  "new": 1\n}\n'
    assert link.read_text() == "old\n"
    assert listing(tmp_path) == ["link.json", "out.json"]


@pytest.mark.skipif(os.geteuid() != 0, reason="only root gives a file another owner")
def test_a_regular_file_keeps_its_owner_and_group(tmp_path):
    out = tmp_path / "out.json"
    out.write_text("old\n")
    os.chown(out, 65534, 65534)
    write_json(out, {"new": 1})
    assert (out.stat().st_uid, out.stat().st_gid) == (65534, 65534)
    assert out.read_text() == '{\n  "new": 1\n}\n'
    assert listing(tmp_path) == ["out.json"]


@pytest.mark.parametrize("name", ["x" * 255, "\u00e9" * 127])
def test_a_name_as_long_as_open_takes(tmp_path, name):
    # the hidden file's name holds at most 60 characters of it, 240 bytes in UTF-8
    write_json(tmp_path / name, {})
    assert listing(tmp_path) == [name]


@pytest.mark.parametrize("exists", [True, False])
def test_a_symlink_keeps_its_link_and_its_target_gets_the_bytes(tmp_path, exists):
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "out.tsv", tmp_path / "link.tsv"
    if exists:
        target.write_text("old\n")
    link.symlink_to(target)
    with output(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "new\n"
    assert listing(tmp_path) == ["link.tsv", "real"]
    assert listing(target.parent) == ["out.tsv"]


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        with output(fifo, binary=True) as fh:
            fh.write(b"through the pipe\n")
    finally:
        reader.join(10)
    assert got == [b"through the pipe\n"]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert listing(tmp_path) == ["out.fifo"]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
@pytest.mark.parametrize("old", [None, "old\n"])
def test_a_block_that_raises_leaves_the_path_as_it_was(tmp_path, error, old):
    out = tmp_path / "out.tsv"
    if old is not None:
        out.write_text(old)
        Path(sidecar(out)).write_text("{}\n")  # it still describes `out`
    with pytest.raises(error) as raised:
        with output(out) as fh:
            fh.write("new\n" * 10_000)
            fh.flush()
            raise error(5, "planted")
    assert listing(tmp_path) == ([] if old is None else ["out.tsv", "out.tsv.manifest.json"])
    assert old is None or out.read_text() == old
    if error is OSError:
        assert raised.value.filename == str(out)


def test_a_replaced_file_loses_its_stale_sidecar(tmp_path):
    out = tmp_path / "out.tsv"
    out.write_text("old\n")
    Path(sidecar(out)).write_text("{}\n")
    with output(out) as fh:
        fh.write("new\n")
        assert Path(sidecar(out)).exists()  # until the new bytes replace the old
    assert listing(tmp_path) == ["out.tsv"]
