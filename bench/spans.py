"""Span tracer for the traced benchmark pass.

Every public function of the mahlerdyn layers is rebound, in every
``mahlerdyn.*`` module namespace that holds it, by a wrapper that records a
span; the external kernels (``mpmath.polyroots``, ``mpmath.pslq`` and sympy's
``DomainMatrix.lll``) are wrapped the same way and their failures counted.
Nothing under ``src/`` is edited: the rebinding is done from outside, after
import, and undone by ``uninstall``.

A span is ``[name, op, parent, start_ns, end_ns]``; spans of one op share the
op id and all of them stay in memory until the pass ends. Self time is a
span's duration minus the durations of its direct children, which, in one
thread, never overlap.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("intpoly", "factor", "roots", "algnum", "mahler", "nfield", "classify")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.op, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(e, args)
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out, args)
            return out

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import mpmath
        from sympy.polys.matrices import DomainMatrix

        from mahlerdyn.errors import NotFound

        count = self.counts

        def failed(key):
            def on_error(_e, _args):
                count[key] += 1
            return on_error

        def pslq_result(out, _args):
            if out is None:
                count["mpmath.pslq.no_relation"] += 1

        def autos_result(out, args):
            count["nfield.nf_automorphisms.found"] += len(out)
            count["nfield.nf_automorphisms.degree"] += args[0].degree

        def pattern_error(e, _args):
            if isinstance(e, NotFound):
                count["nfield.nf_pattern_search.not_found"] += 1

        hooks = {
            "nfield.nf_automorphisms": (autos_result, None),
            "nfield.nf_pattern_search": (None, pattern_error),
        }
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mahlerdyn.{layer}")
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self.wrap(name, fn, *hooks.get(name, (None, None)))
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("mahlerdyn."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self._rebind(mod, attr, wrapped[value])

        self._rebind(mpmath, "polyroots", self.wrap(
            "mpmath.polyroots", mpmath.polyroots, on_error=failed("mpmath.polyroots.failed")))
        self._rebind(mpmath, "pslq", self.wrap(
            "mpmath.pslq", mpmath.pslq, pslq_result, failed("mpmath.pslq.failed")))
        self._rebind(DomainMatrix, "lll", self.wrap(
            "sympy.lll", DomainMatrix.lll, on_error=failed("sympy.lll.failed")))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        child = [0] * len(self.spans)
        for _name, _op, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: collections.Counter = collections.Counter()
        self_ns: collections.Counter = collections.Counter()
        for i, (name, _op, _parent, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += t1 - t0 - child[i]
        return {name: (calls[name], self_ns[name] / 1e9) for name in calls}
