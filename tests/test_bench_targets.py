"""The benchmark traces library functions by name; a rename must not leave a
name that resolves to nothing, since a traced run only reports it as absent."""

import ast
import importlib
from pathlib import Path

WORK = Path(__file__).resolve().parents[1] / "perfbench" / "work.py"


def _target_names():
    # read without importing perfbench, which needs its corpus and tracer
    for node in ast.parse(WORK.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no TARGETS dict in {WORK}")


def test_every_traced_name_resolves():
    names = _target_names()
    assert names
    for name in names:
        module, qualname = name.split(":")
        obj = importlib.import_module(module)
        for attr in qualname.split("."):
            obj = getattr(obj, attr)  # AttributeError names the missing part
        assert callable(obj), name
