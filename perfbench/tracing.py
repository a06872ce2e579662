"""Spans around the benchmark's own calls into bohmdec's public API.

Nothing inside the library is instrumented: the benchmark routes every
public function it calls through :func:`public_api`, which wraps it in a span
when a :class:`Tracer` is active and hands back the bare function otherwise,
so the untraced run pays no tracing cost at all. Spans nest as
workload -> stage -> public call -> wrapped wavefunction sampler, live in
memory while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("phase_space", "quadratic_master", "bohm_velocity", "bath_dynamics")

_PATH_NOTE = re.compile(r"stage1=(\w+), stage2=(\w+)")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans of one run; all spans share ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), name, parent, time.perf_counter(), attrs=dict(attrs))
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(args, kwargs, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp.attrs.update(count(args, kwargs, result))
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.end - sp.start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "run_id": self.run_id,
                "id": sp.id,
                "name": sp.name,
                "parent": sp.parent,
                "start": sp.start,
                "end": sp.end,
                "attrs": sp.attrs,
            }
            for sp in self.spans
        ]
        path.write_text(json.dumps({"run_id": self.run_id, "spans": rows}, indent=1))


class NullTracer:
    """Stand-in for an untraced run: no spans, bare functions."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None

    def wrap(self, name: str, fn, count=None):
        return fn


def _size(value) -> int:
    return int(np.size(value))


def _field_counts(args, kwargs, result):
    path = _PATH_NOTE.search(" ".join(result.notes))
    return {
        "cells": _size(args[1].values),
        "path": "-".join(path.groups()) if path else "delta_fallback",
    }


# Work counts recorded at the boundary of the public functions that have one.
COUNTERS = {
    "wigner_transform": lambda a, k, r: {"cells": _size(r.values)},
    "density_matrix_from_wigner": lambda a, k, r: {"pairs": _size(a[2])},
    "propagate_wigner": _field_counts,
    "solve_g_kernel": lambda a, k, r: {"kind": a[0].kind, "nodes": _size(r.times)},
}


def public_api(tracer) -> types.SimpleNamespace:
    """Every public function of the four layers, wrapped by ``tracer``.

    Classes pass through unwrapped. ``sampler`` wraps a wavefunction sampler
    as a ``phase_space.sampler`` span counting the points it evaluates.
    """
    names = {}
    for layer in LAYERS:
        module = importlib.import_module(f"bohmdec.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, types.FunctionType):
                obj = tracer.wrap(f"{layer}.{name}", obj, COUNTERS.get(name))
            names[name] = obj
    names["sampler"] = lambda fn: tracer.wrap(
        "phase_space.sampler", fn, lambda a, k, r: {"points": _size(a[0])}
    )
    return types.SimpleNamespace(**names)
