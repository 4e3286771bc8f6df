"""Spans around the public functions of the chronexp modules, installed from
outside the package.

The modules import their helpers by name (``from .expr import normalize``),
so a function is wrapped by rebinding that name in every ``chronexp.*``
namespace that holds it; its own module's global is rebound too, which is
how recursive calls (``eval_num`` calls itself through the module global)
reach the wrapper.  A span opens only at the outermost entry of a function:
a call made while the same function is already active runs unspanned, so
recursion neither swamps the record nor counts time twice.

Spans are kept in memory as flat arrays (function, parent, start, end) and
written out when the run ends.  Commands are top-level spans opened by the
benchmark itself under the name ``cli``, and the set-up one named
``setup``; a span's command is its top-level ancestor.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

MODULES = ("parser", "render", "expr", "lie", "dyson", "reference")
ROOT = "cli"           # span of one command
SETUP = "setup"        # span of the set-up before the first command
NO_PARENT = -1
# The key function of normalize's sorts runs about a million times in one
# verify pass; spanning it would multiply the record thirty-fold and move
# normalize's own time into tracing cost, so it stays part of normalize.
UNSPANNED = {"expr.sort_key"}


class Tracer:
    """Wrappers for the chronexp functions and the spans they record.

    Construct after ``chronexp`` is imported; ``install`` and ``uninstall``
    switch the wrappers in and out and may be repeated.
    """

    def __init__(self):
        self.names = [ROOT, SETUP]
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Counts taken at span boundaries.
        self.terms_out = 0        # monomials returned by spanned normalize
        self.fallbacks = 0        # NonPolynomialRhs out of coefficients_in
                                  # called by taylor_coefficients
        self.coeff_terms: list[list[list[int]]] = []  # per command-level
                                  # solve: term_count per field, per order
        self._stack = [NO_PARENT]
        self._active = [False, False]
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = self._wrap_all()

    # -- recording ---------------------------------------------------------

    def _span(self, index: int, fn, args, kwargs):
        caller = self._stack[-1]
        sid = len(self.func)
        self.func.append(index)
        self.parent.append(caller)
        self.end.append(0.0)
        self._stack.append(sid)
        self._active[index] = True
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()
            self._active[index] = False

    def command(self, fn, *args):
        """Run fn(*args) as one command, a root span named ``cli``."""
        return self._span(0, fn, args, {})

    def setup(self, fn, *args):
        """Run fn(*args) as the set-up, a root span named ``setup``."""
        return self._span(1, fn, args, {})

    def _caller_is(self, index: int) -> bool:
        caller = self._stack[-1]
        return caller != NO_PARENT and self.func[caller] == index

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        self._active.append(False)
        active, span = self._active, self._span

        if qualname == "expr.normalize":
            from chronexp.expr import term_count

            def wrapper(*args, **kwargs):
                if active[index]:
                    return fn(*args, **kwargs)
                result = span(index, fn, args, kwargs)
                self.terms_out += term_count(result)
                return result
        elif qualname == "lie.lie_coefficients":
            from chronexp.expr import term_count

            def wrapper(*args, **kwargs):
                if active[index]:
                    return fn(*args, **kwargs)
                top = self._caller_is(0)
                sol = span(index, fn, args, kwargs)
                if top:
                    self.coeff_terms.append(
                        [[term_count(c) for c in col] for col in sol.coeffs])
                return sol
        elif qualname == "expr.coefficients_in":
            from chronexp.errors import NonPolynomialRhs

            def wrapper(*args, **kwargs):
                if active[index]:
                    return fn(*args, **kwargs)
                fallback = self._caller_is(
                    self.names.index("lie.taylor_coefficients"))
                try:
                    return span(index, fn, args, kwargs)
                except NonPolynomialRhs:
                    self.fallbacks += fallback
                    raise
        else:
            def wrapper(*args, **kwargs):
                if active[index]:
                    return fn(*args, **kwargs)
                return span(index, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installing --------------------------------------------------------

    def _wrap_all(self) -> dict[int, tuple[object, object]]:
        """Wrap every public function defined in MODULES: id of the
        function -> (function, wrapper).
        """
        found: dict[int, tuple[str, object]] = {}
        for short in MODULES:
            mod = sys.modules[f"chronexp.{short}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{short}.{name}" not in UNSPANNED):
                    found[id(obj)] = (f"{short}.{name}", obj)
        return {key: (obj, self._wrap(qual, obj))
                for key, (qual, obj) in sorted(found.items(),
                                               key=lambda kv: kv[1][0])}

    def install(self) -> None:
        """Rebind each wrapped function in every ``chronexp`` namespace
        that binds it.
        """
        for modname, mod in list(sys.modules.items()):
            if modname != "chronexp" and not modname.startswith("chronexp."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.func)

    def counters(self) -> dict:
        return {"terms_out": self.terms_out, "fallbacks": self.fallbacks}

    def self_times(self, lo: int, hi: int) -> list[float]:
        """Duration minus direct children's durations, for spans lo..hi-1
        (lo must open a command).
        """
        own = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p != NO_PARENT:
                own[p - lo] -= self.end[i] - self.start[i]
        return own

    def command_of(self, lo: int, hi: int) -> list[int]:
        """For spans lo..hi-1 (lo must open a command), the index of the
        command span each belongs to.
        """
        out: list[int] = []
        for i in range(lo, hi):
            p = self.parent[i]
            out.append(i if p == NO_PARENT else out[p - lo])
        return out
