"""Span tracing of cadict's public functions, installed from outside the program.

A traced function is replaced at every ``cadict.*`` module attribute that is
bound to it, which is where its callers look it up (``cadict.search`` calls
``raw_ratings`` through its own module globals, ``cadict.cli`` calls
``open_store`` through its own). Methods are replaced on their class. A
target that no longer exists is reported as absent, not as an error.

Spans (name, start, end, parent, attributes) stay in memory until the run
writes them out. Self time is a span's duration minus the time its direct
child spans cover; spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0
    failed: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "self_s": self.self_seconds,
                "failed": self.failed, **self.attrs}


class Tracer:
    """Collects spans while `active`; wrappers cost one flag test when inactive."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as a span when tracing is active."""
        if not self.active:
            yield
            return
        sp = self._open(name, attrs)
        try:
            yield
        except BaseException:
            sp.failed = True
            raise
        finally:
            self._close(sp)

    def _open(self, name: str, attrs: dict) -> Span:
        sp = Span(name, 0.0, parent=self._stack[-1] if self._stack else None, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        if sp.parent is not None:
            self.spans[sp.parent].child_s += sp.seconds

    def install(self, targets: dict[str, object]) -> list[str]:
        """Wrap each ``module:Qual.name`` target; returns the names found absent.

        A target's value is None or a hook ``(span, args, kwargs, result)``
        that adds attributes to the finished span, outside its timed interval.
        """
        absent = []
        for target, hook in targets.items():
            module_name, _, qualname = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                absent.append(target)
                continue
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{attr}", original, hook)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("cadict") \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        return absent

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sp = tracer._open(name, {})
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                sp.failed = True
                raise
            finally:
                tracer._close(sp)
            if hook is not None:
                hook(sp, args, kwargs, result)
            return result

        return traced

    def select(self, name: str, within: str | None = None) -> list[Span]:
        """Spans called `name`, optionally only those nested in a `within` span."""
        out = []
        for sp in self.spans:
            if sp.name != name:
                continue
            if within is not None and not self._nested_in(sp, within):
                continue
            out.append(sp)
        return out

    def _nested_in(self, sp: Span, name: str) -> bool:
        p = sp.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False
