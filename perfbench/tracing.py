"""Per-layer tracing of taf, installed from outside the program.

The layers are the modules of ``src/taf``.  ``Tracer.install`` wraps

- every public function each module defines,
- the arithmetic methods named in ``METHODS`` (``__radd__`` and
  ``__rmul__`` share the wrapper of ``__add__`` and ``__mul__``), and
- every binding of a wrapped function in another ``taf`` module, such as
  ``taf.fgl.bi_compose_outer`` or ``taf.cli.fgl_phi``, because the modules
  import names directly.

Modules are resolved with ``importlib.import_module``: ``taf/__init__``
re-exports the function ``legendre``, so ``import taf.legendre as L`` would
bind the function and not the module.

Hot methods are aggregated per name rather than kept as spans.  For each
wrapped name the tracer keeps ``calls``, ``busy_s`` (inclusive time of the
outermost activation) and ``self_s`` (time minus the time of traced calls
made inside it).  A layer's ``self_s`` is the sum over its names.  Times
are read from the clock the tracer is given, which in a worker leaves out
the time its speed samples take.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = (
    "exact",
    "series",
    "legendre",
    "curve",
    "fgl",
    "chromatic",
    "qexp",
    "arithgroups",
    "cli",
)

_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "scale")

# GaussianRational is not traced: its arithmetic stays in the self time of
# the Mat methods that use it, so the arithgroups layer owns it.
METHODS = {
    "exact": {
        "GradedPoly": _ARITH + ("__rsub__", "__pow__"),
        "ModPoly": ("__add__", "__sub__", "__neg__", "__mul__", "__pow__"),
    },
    "series": {"TruncSeries": _ARITH, "BiTruncSeries": _ARITH},
    "qexp": {"QExpansion": _ARITH + ("__pow__",)},
    "arithgroups": {
        "Mat": _ARITH + ("inv", "det"),
        "ReductionResult": ("certificate_ok",),
    },
}

# Short metric names for long function names.
ALIASES = {"arithgroups.reduce": "arithgroups.reduce_to_fundamental_domain"}


def _m(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


def _span(name: str, *stats: str) -> list[dict]:
    units = {"calls": "count", "busy_s": "s", "self_s": "s"}
    return [_m(f"{name}.{s}", units[s]) for s in stats]


# The per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = [
    *_span("exact.GradedPoly.mul", "calls", "self_s"),
    *_span("exact.GradedPoly.add", "calls", "self_s"),
    *_span("exact.GradedPoly.scale", "calls", "self_s"),
    *_span("exact.GradedPoly.pow", "calls", "busy_s"),
    *_span("exact.ModPoly.mul", "calls", "self_s"),
    _m("exact.max_bits", "bits"),
    *_span("series.BiTruncSeries.mul", "calls", "busy_s", "self_s"),
    *_span("series.TruncSeries.mul", "calls", "busy_s", "self_s"),
    *_span("series.bi_compose_outer", "calls", "busy_s"),
    *_span("series.bi_compose_slots", "calls", "busy_s"),
    *_span("series.revert", "busy_s"),
    *_span("series.compose", "busy_s"),
    *_span("series.series_div", "calls"),
    *_span("series.sqrt_unit", "calls"),
    *_span("legendre.legendre", "calls", "busy_s"),
    _m("legendre.max_index", "index"),
    *_span("curve.solve_u_of_v", "calls", "busy_s"),
    _m("curve.newton_steps", "count"),
    *_span("curve.t_of_v", "busy_s"),
    *_span("curve.log_phi", "busy_s"),
    *_span("fgl.build_fgl", "calls", "busy_s", "self_s"),
    _m("fgl.build_fgl.reuse", "ratio"),
    *_span("fgl.iso_check", "busy_s"),
    *_span("fgl.euler_law", "busy_s"),
    *_span("chromatic.hazewinkel_v", "calls", "busy_s", "self_s"),
    _m("chromatic.hazewinkel_v.reuse", "ratio"),
    *_span("chromatic.landweber_check", "busy_s"),
    *_span("chromatic.cor2_check", "busy_s"),
    *_span("qexp.QExpansion.mul", "calls", "self_s"),
    *_span("qexp.forms", "calls", "busy_s"),
    _m("qexp.forms.hits", "count", "higher"),
    _m("qexp.forms.misses", "count"),
    *_span("qexp.substitute_forms", "busy_s"),
    *_span("qexp.eval_form", "calls"),
    *_span("arithgroups.Mat.mul", "calls", "self_s"),
    *_span("arithgroups.reduce", "calls", "busy_s"),
    _m("arithgroups.reduce.steps", "count"),
    _m("arithgroups.reduce.cert_fail", "count"),
    *_span("arithgroups.embedding_suite", "busy_s"),
    *_span("cli.main", "calls", "busy_s", "self_s"),
    _m("cli.output_bytes", "bytes"),
    *[_m(f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"],
    # Filled in by the parent, which also times untraced workers.
    _m("trace.run_s", "s"),
    _m("trace.overhead_s", "s"),
    _m("trace.uncovered_s", "s"),
]


class Tracer:
    """Aggregated spans and counters for one worker process."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        # name -> [calls, busy_s, self_s, active depth]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self.output_bytes = 0
        self.max_bits = 0
        self.max_index = 0
        self.newton_steps = 0
        self.reduce_steps = 0
        self.cert_fail = 0
        self._fgl_inputs: set = set()
        self._hazewinkel_inputs: set = set()
        self._forms = None
        self._forms_start = (0, 0)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"taf.{layer}")
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    wrapper = self._wrap(f"{layer}.{cls_name}.{method.strip('_')}", fn)
                    for attr, value in list(vars(cls).items()):
                        if value is fn:
                            setattr(cls, attr, wrapper)
        forms = importlib.import_module("taf.qexp").forms
        self._forms = forms
        info = forms.cache_info()
        self._forms_start = (info.hits, info.misses)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "taf" and not mod_name.startswith("taf."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = self._clock
        hook = self._hook_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            stats[3] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stats[3] -= 1
                stats[2] += elapsed - children
                if not stats[3]:
                    stats[1] += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, result)
                if stack:
                    # The caller's self time excludes the tracer's own work.
                    stack[-1] += clock() - h0
            return result

        return wrapper

    # -- counters -----------------------------------------------------------

    def _hook_for(self, name: str):
        if name.startswith("exact."):
            return self._count_bits
        return {
            "legendre.legendre": self._count_index,
            "series.series_div": self._count_newton,
            "fgl.build_fgl": self._count_fgl_input,
            "chromatic.hazewinkel_v": self._count_hazewinkel_input,
            "arithgroups.reduce_to_fundamental_domain": self._count_steps,
            "arithgroups.ReductionResult.certificate_ok": self._count_cert,
        }.get(name)

    def _count_bits(self, args, kwargs, result) -> None:
        """Largest numerator or denominator bit length an exact call returns."""
        terms = getattr(result, "terms", None)
        if isinstance(terms, dict):
            for c in terms.values():
                bits = max(
                    abs(getattr(c, "numerator", 0)).bit_length(),
                    getattr(c, "denominator", 1).bit_length(),
                )
                if bits > self.max_bits:
                    self.max_bits = bits

    def _count_index(self, args, kwargs, result) -> None:
        self.max_index = max(self.max_index, args[0] if args else kwargs["k"])

    def _count_newton(self, args, kwargs, result) -> None:
        if self.stats["curve.solve_u_of_v"][3]:
            self.newton_steps += 1

    def _count_fgl_input(self, args, kwargs, result) -> None:
        self._fgl_inputs.add(args[0] if args else kwargs["log"])

    def _count_hazewinkel_input(self, args, kwargs, result) -> None:
        self._hazewinkel_inputs.add((args, tuple(sorted(kwargs.items()))))

    def _count_steps(self, args, kwargs, result) -> None:
        self.reduce_steps += len(result.word)

    def _count_cert(self, args, kwargs, result) -> None:
        if not result:
            self.cert_fail += 1

    # -- report -------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Every metric of METRICS except the ``trace.*`` ones."""
        info = self._forms.cache_info()
        counters = {
            "exact.max_bits": self.max_bits,
            "legendre.max_index": self.max_index,
            "curve.newton_steps": self.newton_steps,
            "fgl.build_fgl.reuse": _ratio(
                self.stats["fgl.build_fgl"][0], len(self._fgl_inputs)
            ),
            "chromatic.hazewinkel_v.reuse": _ratio(
                self.stats["chromatic.hazewinkel_v"][0], len(self._hazewinkel_inputs)
            ),
            "qexp.forms.hits": info.hits - self._forms_start[0],
            "qexp.forms.misses": info.misses - self._forms_start[1],
            "arithgroups.reduce.steps": self.reduce_steps,
            "arithgroups.reduce.cert_fail": self.cert_fail,
            "cli.output_bytes": self.output_bytes,
        }
        out = {}
        for metric in METRICS:
            name = metric["name"]
            if name.startswith("trace."):
                continue
            if name in counters:
                out[name] = counters[name]
                continue
            span, stat = name.rsplit(".", 1)
            if span in LAYERS:
                out[name] = sum(
                    s[2] for key, s in self.stats.items() if key.startswith(span + ".")
                )
            else:
                calls, busy, own, _ = self.stats[ALIASES.get(span, span)]
                out[name] = {"calls": calls, "busy_s": busy, "self_s": own}[stat]
        return out


def _ratio(calls: int, distinct: int) -> float:
    return calls / distinct if distinct else 0.0
