"""Per-layer spans and counters, recorded from outside the program.

:func:`install` wraps the public functions and methods of each ``fpet``
module and rebinds every module-level reference to them, so that calls
between modules pass through the wrappers; the program's files are not
touched.  A layer is a module.  Self time is kept by charging the time since
the previous span boundary to the layer on top of the stack, so nested spans
of other layers are subtracted with one clock read per boundary.

Integrands handed to the quadrature layer are wrapped too: the wrapper counts
evaluation points, and when the integrand was defined in another module it
runs as a span of that module (the time-change kernel loop belongs to
``interval``, the correlation integrands to ``averages``).  The text formats
(``*_from_text``, ``*_to_text``, ``dag_to_text``) count as ``cli``: parse,
load and write are the CLI's overhead.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import Counter, defaultdict
from enum import Enum

import numpy as np

LAYERS = ("cli", "quadrature", "averages", "interval", "order", "fpoly", "ratlinalg", "torus")
_FORMATS = {
    "family_from_text", "family_to_text", "system_from_text", "system_to_text",
    "trigpoly_from_text", "trigpoly_to_text", "dag_to_text",
}
_CLASS_DUNDERS = ("__init__", "__call__")


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", None) or ""
    name = mod.rpartition(".")[2]
    return name if mod.startswith("fpet.") and name in LAYERS else None


class Tracer:
    def __init__(self):
        self.stack = ["bench"]
        self.last = time.perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_err_over_tol = 0.0
        self.osc: list = []  # (coeffs, lo, hi, evals) per osc_phase_average call
        self._caches: dict = {}

    def _enter(self, layer: str) -> float:
        now = time.perf_counter()
        self.self_s[self.stack[-1]] += now - self.last
        self.last = now
        self.stack.append(layer)
        return now

    def _leave(self) -> float:
        now = time.perf_counter()
        self.self_s[self.stack.pop()] += now - self.last
        self.last = now
        return now

    def _wrap(self, layer: str, name: str, fn):
        pre = _PRE.get(name)
        post = _POST.get(name)
        sig = inspect.signature(fn) if pre or post else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                if pre:
                    pre(self, self.stack[-1], bound.arguments)
                    args, kwargs = bound.args, bound.kwargs
            t0 = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self._leave()
                self.calls[name] += 1
                self.incl_s[name] += t1 - t0
            if post:
                post(self, bound.arguments, result)
            return result

        return wrapper

    def integrand(self, f):
        """Count the points at which quadrature evaluates ``f``; run it as a
        span of its own module when that is not quadrature."""
        owner = _layer_of(f)
        counts = self.counts
        if owner in (None, "quadrature"):
            def counted(u):
                counts["quadrature.evals"] += np.size(u)
                return f(u)
        else:
            def counted(u):
                counts["quadrature.evals"] += np.size(u)
                self._enter(owner)
                try:
                    return f(u)
                finally:
                    self._leave()
        return counted

    def install(self) -> None:
        import importlib

        import fpet

        mods = {layer: importlib.import_module(f"fpet.{layer}") for layer in LAYERS}
        fpoly = mods["fpoly"]
        self._caches = {"family_is_good": fpoly.family_is_good, "is_good": fpoly.is_good}
        swap = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if issubclass(obj, (BaseException, Enum)):
                        continue
                    for mname, meth in list(vars(obj).items()):
                        if isinstance(meth, types.FunctionType) and (
                            not mname.startswith("_") or mname in _CLASS_DUNDERS
                        ):
                            setattr(obj, mname, self._wrap(layer, f"{layer}.{name}.{mname}", meth))
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    span_layer = "cli" if name in _FORMATS else layer
                    swap[id(obj)] = (obj, self._wrap(span_layer, f"{layer}.{name}", obj))
        averages = mods["averages"]
        swap[id(averages._tuple_data)] = (averages._tuple_data, self._count_tuples(averages._tuple_data))
        for mod in [fpet, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                hit = swap.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _count_tuples(self, gen):
        counts = self.counts

        @functools.wraps(gen)
        def counting(*args, **kwargs):
            for item in gen(*args, **kwargs):
                counts["averages.tuples"] += 1
                yield item

        return counting

    def report(self) -> dict:
        """Raw per-command numbers; run.py derives the metrics from them."""
        cycles = sum(phase_cycles(*o[:3]) for o in self.osc)
        fig, good = self._caches["family_is_good"].cache_info(), self._caches["is_good"].cache_info()
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "max_err_over_tol": self.max_err_over_tol,
            "osc_evals": sum(o[3] for o in self.osc),
            "osc_cycles": cycles,
            "family_is_good.hits": fig.hits,
            "family_is_good.misses": fig.misses,
            "is_good.misses": good.misses,
        }


def phase_cycles(coeffs, lo, hi) -> float:
    """Total variation of theta(t) = sum_e c_e t^e over (lo, hi), in cycles,
    from the exact float coefficients at 30 digits: in u = t^(1/L) the phase
    is a polynomial, monotone between the real roots of its derivative."""
    import mpmath as mp
    from fractions import Fraction
    from math import lcm

    with mp.workdps(30):
        terms = {Fraction(e): mp.mpf(c) for e, c in coeffs.items() if c}
        if not terms:
            return 0.0
        L = lcm(*(e.denominator for e in terms))
        deg = max(int(e * L) for e in terms)
        asc = [mp.mpf(0)] * (deg + 1)
        for e, c in terms.items():
            asc[int(e * L)] += c

        def theta(u):
            return mp.polyval(asc[::-1], u)

        u0, u1 = mp.mpf(lo) ** (mp.mpf(1) / L), mp.mpf(hi) ** (mp.mpf(1) / L)
        der = [k * c for k, c in enumerate(asc)][1:]
        while der and der[-1] == 0:
            der.pop()
        cuts = []
        if len(der) > 1:
            roots = mp.polyroots(der[::-1], maxsteps=200, extraprec=60)
            cuts = sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -20 and u0 < mp.re(r) < u1)
        points = [u0, *cuts, u1]
        return float(sum(abs(theta(b) - theta(a)) for a, b in zip(points, points[1:])))


# ---------------------------------------------------------------------------
# hooks: ``pre(tracer, caller_layer, arguments)`` may replace arguments;
# ``post(tracer, arguments, result)`` reads the result.


def _pre_integral(tr, caller, args):
    args["f"] = tr.integrand(args["f"])
    tr.counts["quadrature.calls"] += 1
    if caller == "averages":
        tr.counts["averages.correlation_integrals"] += 1


def _post_integral(tr, args, result):
    tr.max_err_over_tol = max(tr.max_err_over_tol, result[1] / args["abs_tol"])


def _pre_table(tr, caller, args):
    args["f"] = tr.integrand(args["f"])
    tr.counts["quadrature.calls"] += 1


def _post_table(tr, args, result):
    table = args["self"]
    tr.max_err_over_tol = max(
        tr.max_err_over_tol, table.est_error / (args["tol"] * (args["hi"] - args["lo"]))
    )


def _pre_osc(tr, caller, args):
    if caller == "averages":
        tr.counts["averages.phase_vectors"] += 1


def _post_osc(tr, args, result):
    tr.osc.append((dict(args["coeffs"]), args["lo"], args["hi"], result[2]))


def _pre_weighted(tr, caller, args):
    inner = args["inner_average"]
    counts = tr.counts

    def counted(lo, hi):
        counts["interval.kernel_points"] += 1
        return inner(lo, hi)

    args["inner_average"] = counted


def _post_dag(tr, args, result):
    tr.counts["order.dag_nodes"] += result.node_count
    tr.counts["order.dag_edges"] += len(result.edges)


_PRE = {
    "quadrature.adaptive_integral": _pre_integral,
    "quadrature.PanelTable.__init__": _pre_table,
    "quadrature.osc_phase_average": _pre_osc,
    "interval.TimeChangeWeights.weighted_average": _pre_weighted,
}
_POST = {
    "quadrature.adaptive_integral": _post_integral,
    "quadrature.PanelTable.__init__": _post_table,
    "quadrature.osc_phase_average": _post_osc,
    "order.induction_dag": _post_dag,
}
