"""Outside-in tracing of mlia's four layers for the traced benchmark run.

``Tracer.install`` wraps every public function defined in ``cli``,
``gdof_core``, ``scheme`` and ``link_sim`` in every one of those module
namespaces that bound it (``link_sim`` and ``cli`` import names from
``scheme`` with ``from ... import``), plus two methods on their classes.
The program's source is not touched.  Spans (name, start, end, parent,
operation id) stay in memory until ``write``; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time
from types import FunctionType

LAYERS = ("cli", "gdof_core", "scheme", "link_sim")
METHODS = (
    ("link_sim", "NearestPointDecoder", "__post_init__", "link_sim.NearestPointDecoder"),
    ("link_sim", "SimReport", "to_json", "link_sim.SimReport.to_json"),
)

# (span name, metric suffix) of the metrics read off the spans
_SPAN_METRICS = (
    ("cli.main", "self_s"),
    ("gdof_core.converse_family", "self_s"),
    ("gdof_core.make_weighted_bound", "self_s"),
    ("gdof_core.certify_family", "self_s"),
    ("scheme.build_layer_plan", "calls"),
    ("scheme.monomial_set", "calls"),
    ("scheme.monomial_set", "self_s"),
    ("scheme.desired_set", "self_s"),
    ("scheme.interference_set", "self_s"),
    ("scheme.power_normalizer", "self_s"),
    ("scheme.build_transmit_config", "self_s"),
    ("link_sim.run_monte_carlo", "self_s"),
    ("link_sim.build_decoder_bank", "self_s"),
    ("link_sim.build_decoder_bank", "calls"),
    ("link_sim.NearestPointDecoder", "build_s"),
    ("link_sim.enumeration_size", "self_s"),
    ("link_sim.draw_symbols_batch", "self_s"),
    ("link_sim.synthesize_batch", "self_s"),
    ("link_sim.successive_decode_batch", "self_s"),
    ("link_sim.dmin_bruteforce", "self_s"),
    ("link_sim.dmin_bruteforce", "calls"),
    ("link_sim.t_bound", "self_s"),
    ("link_sim.SimReport.to_json", "self_s"),
)
# counts recorded at layer boundaries by the probes below
COUNTERS = (
    "gdof_core.weight_entries",
    "gdof_core.nonzero_weights",
    "scheme.set_codes",
    "link_sim.decoder_points",
    "link_sim.decoder_array_mb",
    "link_sim.cap_refusals",
    "link_sim.decoded_symbols",
)


def _family_weights(tracer, args, result):
    for bound in result.bounds:
        tracer.count("gdof_core.weight_entries", len(bound.lhs_weights) + len(bound.rhs_weights))
        tracer.count("gdof_core.nonzero_weights",
                     sum(1 for w in bound.lhs_weights if w) + sum(1 for w in bound.rhs_weights if w))


def _set_codes(tracer, args, result):
    tracer.count("scheme.set_codes", len(result.codes))


def _decoder_size(tracer, args, result):
    decoder = args[0]
    tracer.count("link_sim.decoder_points", decoder.size)
    nbytes = sum(v.nbytes for v in vars(decoder).values() if hasattr(v, "nbytes"))
    tracer.count("link_sim.decoder_array_mb", nbytes / 2**20)


def _decoded(tracer, args, result):
    tracer.count("link_sim.decoded_symbols", args[0].shape[0] * len(result.symbols))


_PROBES = {
    "gdof_core.converse_family": _family_weights,
    "scheme.monomial_set": _set_codes,
    "scheme.desired_set": _set_codes,
    "scheme.interference_set": _set_codes,
    "link_sim.NearestPointDecoder": _decoder_size,
    "link_sim.successive_decode_batch": _decoded,
}


class Tracer:
    """Span and counter store; records only while ``op`` is not None."""

    def __init__(self):
        self.op = None
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counters: dict = collections.defaultdict(float)  # (op, name) -> sum
        self._stack: list[int] = []
        self._cap_error = None

    def count(self, name: str, amount: float):
        self.counters[(self.op, name)] += amount

    def wrap(self, name: str, fn):
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except self._cap_error as exc:
                # count each refusal once, where it leaves link_sim first
                if name.startswith("link_sim.") and not getattr(exc, "_counted", False):
                    exc._counted = True
                    self.count("link_sim.cap_refusals", 1)
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                probe(self, args, result)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(f"mlia.{layer}") for layer in LAYERS]
        self._cap_error = importlib.import_module("mlia.scheme").EnumerationCapError
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (isinstance(obj, FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
        for layer, cls_name, method, label in METHODS:
            cls = getattr(modules[LAYERS.index(layer)], cls_name)
            setattr(cls, method, self.wrap(label, getattr(cls, method)))

    def op_metrics(self, op) -> dict:
        """Every per-layer metric of one operation (0 where a layer idled)."""
        child_time: dict[int, float] = collections.defaultdict(float)
        for name, start, end, parent, span_op in self.spans:
            if span_op == op and parent is not None:
                child_time[parent] += end - start
        self_s: dict = collections.defaultdict(float)
        total_s: dict = collections.defaultdict(float)
        calls: dict = collections.defaultdict(int)
        for index, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op == op:
                self_s[name] += end - start - child_time[index]
                total_s[name] += end - start
                calls[name] += 1
        values = {}
        for name, suffix in _SPAN_METRICS:
            source = {"self_s": self_s, "build_s": total_s, "calls": calls}[suffix]
            values[f"{name}.{suffix}"] = source[name]
        for name in COUNTERS:
            values[name] = self.counters[(op, name)]
        return values

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
