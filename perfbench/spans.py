"""Per-layer spans and counters for the traced run.

The tracer wraps rmlab's public functions from outside the package: each
wrapped function is replaced in its defining module and in every rmlab
module that imported it by name, and methods are replaced on their class.
A span records calls, total seconds (outermost call of a recursion only)
and self seconds, the span's time minus that of the wrapped calls directly
inside it.  Counters record calls without timing them, for the hot p-adic
operations.  Nothing is recorded while ``enabled`` is false.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (metric, unit, better); the names BENCHMARK.json lists under per_layer
PER_LAYER = [
    ("quadfield.enumerate_trace.elements", "count", "lower"),
    ("quadfield.factor_alpha.calls", "count", "lower"),
    ("quadfield.factor_alpha.s", "s", "lower"),
    ("quadfield.narrow_class_of_ideal.calls", "count", "lower"),
    ("quadfield.narrow_class_of_ideal.s", "s", "lower"),
    ("quadfield.NarrowClassGroup.calls", "count", "lower"),
    ("quadfield.NarrowClassGroup.s", "s", "lower"),
    ("eisenstein.diag_coefficient.calls", "count", "lower"),
    ("eisenstein.diag_coefficient.s", "s", "lower"),
    ("eisenstein.diag_coefficient.self_s", "s", "lower"),
    ("eisenstein.diag_coefficient.max_trace", "count", "lower"),
    ("eisenstein.log_int.calls", "count", "lower"),
    ("eisenstein.log_int.misses", "count", "lower"),
    ("eisenstein.accelerated_ordinary_projection.self_s", "s", "lower"),
    ("padic.iwasawa_log.calls", "count", "lower"),
    ("padic.iwasawa_log.s", "s", "lower"),
    ("padic.scalar_mul.calls", "count", "lower"),
    ("padic.scalar_add.calls", "count", "lower"),
    ("padic.context_derived.calls", "count", "lower"),
    ("padic.padic_exp.s", "s", "lower"),
    ("modforms.fit_to_basis.s", "s", "lower"),
    ("lattice.algdep_padic.calls", "count", "lower"),
    ("lattice.lll_reduce.calls", "count", "lower"),
    ("lattice.lll_reduce.s", "s", "lower"),
    ("gsunits.generating_series.s", "s", "lower"),
    ("gsunits.unit_from_constant_term.s", "s", "lower"),
    ("gsunits.recognize.self_s", "s", "lower"),
    ("gsunits.splitting_fraction.s", "s", "lower"),
    ("siegelmeasure.mu_DR.s", "s", "lower"),
    ("siegelmeasure.poisson_JDR.self_s", "s", "lower"),
    ("cli.stabilized_coefficients.s", "s", "lower"),
    ("cli.cache_append.s", "s", "lower"),
    ("cli.cache_load.s", "s", "lower"),
    ("cli.cache.entries_written", "count", "higher"),
    ("cli.cache.entries_read", "count", "higher"),
]


def _elements(tracer, args, result, frame):
    tracer.counts["quadfield.enumerate_trace.elements"] += len(result)


def _max_trace(tracer, args, result, frame):
    key = "eisenstein.diag_coefficient.max_trace"
    tracer.counts[key] = max(tracer.counts[key], args[0])


def _log_miss(tracer, args, result, frame):
    # the only wrapped call inside log_int is the iwasawa_log of a miss
    if frame[1]:
        tracer.counts["eisenstein.log_int.misses"] += 1


def _written(tracer, args, result, frame):
    tracer.counts["cli.cache.entries_written"] += len(args[5])


def _read(tracer, args, result, frame):
    tracer.counts["cli.cache.entries_read"] += len(result)


# (span name, module, attribute path, hook run after each call)
SPANS = [
    ("quadfield.enumerate_trace", "quadfield", "enumerate_trace", _elements),
    ("quadfield.factor_alpha", "quadfield", "factor_alpha", None),
    ("quadfield.narrow_class_of_ideal", "quadfield",
     "NarrowClassGroup.narrow_class_of_ideal", None),
    ("quadfield.NarrowClassGroup", "quadfield", "NarrowClassGroup.__init__",
     None),
    ("eisenstein.diag_coefficient", "eisenstein", "diag_coefficient",
     _max_trace),
    ("eisenstein.log_int", "eisenstein", "LogCache.log_int", _log_miss),
    ("eisenstein.accelerated_ordinary_projection", "eisenstein",
     "accelerated_ordinary_projection", None),
    ("padic.iwasawa_log", "padic", "iwasawa_log", None),
    ("padic.padic_exp", "padic", "padic_exp", None),
    ("modforms.fit_to_basis", "modforms", "fit_to_basis", None),
    ("lattice.algdep_padic", "lattice", "algdep_padic", None),
    ("lattice.lll_reduce", "lattice", "lll_reduce", None),
    ("gsunits.generating_series", "gsunits", "generating_series", None),
    ("gsunits.unit_from_constant_term", "gsunits", "unit_from_constant_term",
     None),
    ("gsunits.recognize", "gsunits", "recognize", None),
    ("gsunits.splitting_fraction", "gsunits", "splitting_fraction", None),
    ("siegelmeasure.mu_DR", "siegelmeasure", "mu_DR", None),
    ("siegelmeasure.poisson_JDR", "siegelmeasure", "poisson_JDR", None),
    ("cli.stabilized_coefficients", "cli", "stabilized_coefficients", None),
    ("cli.cache_append", "cli", "cache_append", _written),
    ("cli.cache_load", "cli", "cache_load", _read),
]

# (counter name, module, class, attribute); properties count their reads
COUNTERS = [
    ("padic.scalar_mul", "padic", "PadicScalar", "__mul__"),
    ("padic.scalar_add", "padic", "PadicScalar", "__add__"),
    ("padic.context_derived", "padic", "PadicContext", "r"),
    ("padic.context_derived", "padic", "PadicContext", "modulus"),
]


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stack = []                 # per open span: [callee s, callees]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)

    def span(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0, 0]
            self.stack.append(frame)
            outer = self.depth[name] == 0
            self.depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                self.depth[name] -= 1
                self.calls[name] += 1
                self.self_seconds[name] += elapsed - frame[0]
                if outer:
                    self.seconds[name] += elapsed
                if self.stack:
                    self.stack[-1][0] += elapsed
                    self.stack[-1][1] += 1
            if hook:
                hook(self, args, result, frame)
            return result
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def metrics(self) -> dict:
        out = {}
        for metric, _, _ in PER_LAYER:
            prefix, kind = metric.rsplit(".", 1)
            table = {"calls": self.calls, "s": self.seconds,
                     "self_s": self.self_seconds}.get(kind)
            out[metric] = table[prefix] if table is not None \
                else self.counts[metric]
        return out


def _replace_everywhere(original, wrapped):
    """Rebind every rmlab module-level name that refers to `original`."""
    for name, module in list(sys.modules.items()):
        if name == "rmlab" or name.startswith("rmlab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def install() -> Tracer:
    """Wrap rmlab's public functions; rmlab must already be imported."""
    tracer = Tracer()
    for name, modname, path, hook in SPANS:
        module = importlib.import_module(f"rmlab.{modname}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, tracer.span(name, vars(cls)[attr], hook))
        else:
            original = getattr(module, path)
            _replace_everywhere(original, tracer.span(name, original, hook))
    for name, modname, cls_name, attr in COUNTERS:
        cls = getattr(importlib.import_module(f"rmlab.{modname}"), cls_name)
        original = vars(cls)[attr]
        if isinstance(original, property):
            setattr(cls, attr, property(tracer.counter(name, original.fget)))
        else:
            setattr(cls, attr, tracer.counter(name, original))
    return tracer
