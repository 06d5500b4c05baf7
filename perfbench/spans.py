"""Span recording for the traced run.

A Tracer wraps library functions from outside: it replaces every module
attribute that refers to a traced function, including the names modules
import from each other (``potential.mixing_index``, ``cli.g_limit``), with a
wrapper that records one span per call.  Spans stay in memory as tuples and
are written out by the caller when the run ends.  Nothing is wrapped until
:meth:`Tracer.install` runs, and :meth:`Tracer.uninstall` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, NamedTuple

WRAPPED_MARK = "_perfbench_traced"


class Span(NamedTuple):
    name: str          # "<module>.<function>"
    start: float       # perf_counter seconds
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    op: tuple          # (pass number or "setup", op key) active at the call
    error: str | None  # exception type name when the call raised
    tag: str | None    # call-specific label, e.g. "exact" or "float"
    count: int | None  # work count taken from the call's result

    @property
    def duration(self) -> float:
        return self.end - self.start


# A probe maps (args, kwargs, result) to (tag, count); result is None when
# the call raised.
Probe = Callable[[tuple, dict, object], tuple]


class Tracer:
    def __init__(self, package: str, functions: dict[str, Probe | None]):
        """`functions` maps "<module>.<function>" (relative to `package`) to
        an optional probe that extracts a tag and a work count."""
        self.package = package
        self.functions = functions
        self.spans: list[Span | None] = []
        self.op: tuple = ("setup", "")
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for qualname in self.functions:
            module_name, attr = qualname.rsplit(".", 1)
            module = sys.modules[f"{self.package}.{module_name}"]
            originals[id(getattr(module, attr))] = qualname
        wrappers = {}
        for name, module in sorted(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                qualname = originals.get(id(value))
                if qualname is None:
                    continue
                if qualname not in wrappers:
                    wrappers[qualname] = self._wrap(qualname, value)
                setattr(module, attr, wrappers[qualname])
                self._replaced.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._replaced):
            setattr(module, attr, value)
        self._replaced.clear()

    def _wrap(self, qualname: str, fn):
        probe = self.functions[qualname]
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = type(e).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tag, count = None, None
                if probe is not None and error is None:
                    tag, count = probe(args, kwargs, result)
                spans[index] = Span(qualname, start, end, parent, self.op, error, tag, count)

        setattr(traced, WRAPPED_MARK, True)
        return traced

    def write(self, path) -> None:
        """One JSON array per line, after a first line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def is_wrapped(fn) -> bool:
    return getattr(fn, WRAPPED_MARK, False)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children.
    Calls are sequential, so children never overlap each other."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def outermost(spans: list[Span], names: set[str]) -> list[int]:
    """Indices of spans named in `names` with no enclosing span also in
    `names`, so nested or recursive calls are counted once."""
    keep = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            keep.append(i)
    return keep
