"""Span tracing of qvirasoro from outside the package.

``Tracer.install`` replaces each traced public function with a timing
wrapper at every attribute where a caller looks it up: in the module
that defines it, in every qvirasoro module that imported it by name,
and on the class for methods.  Each call records a span (kind, start,
end, parent span) in compact in-memory arrays; nothing is written until
``dump``.  A span's self time is its duration minus the durations of
its direct child spans, so the self times of all spans under the root
add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

_now = time.perf_counter


def _basis_counts(args, _result):
    n = args[0].size
    return {"fock.basis_states": n}, {"relations.max_states": n}


def _apply_counts(args, _result):
    n = args[0].size
    # the dense cre @ ann product and its three N x N float64 operands
    return {"fock.apply_flops": 2 * n**3, "fock.apply_bytes": 3 * 8 * n * n}, {}


def _form_counts(_args, result):
    return {"voa.product_form_factors": len(result.coeffs)}, {}


def _identity_kind(report):
    return f"relations.{report.identity}"


# (module, owner attribute or None, function name, span kind, counts)
# A kind given as a callable is derived from the call's result; if the
# call raised, the function name stands in for it.
SPANS = (
    ("fock", "PartitionBasis", "__init__", "fock.basis", _basis_counts),
    ("fock", "PartitionBasis", "application_matrix", "fock.apply", _apply_counts),
    ("voa", None, "structure_series", "voa.structure_series", None),
    ("voa", None, "current_vertex_factor", "voa.product_form", _form_counts),
    ("voa", None, "mirror_vertex_factor", "voa.product_form", _form_counts),
    ("voa", None, "pair_correlation_factor", "voa.product_form", _form_counts),
    ("voa", "ProductForm", "value", "voa.product_form_value", None),
    ("series", None, "from_log_rule", "series.from_log_rule", None),
    ("qspecial", None, "qpoch_inf", "qspecial.qpoch_inf", None),
    ("qspecial", None, "jackson_to", "qspecial.jackson", None),
    ("qspecial", None, "jackson_between", "qspecial.jackson", None),
    ("qspecial", None, "jackson_bilateral", "qspecial.jackson", None),
    ("qspecial", None, "phi21", "qspecial.phi21", None),
    ("qspecial", None, "bracket", "qspecial.bracket", None),
    ("correlators", None, "screening_wave", "correlators.screening_wave", None),
    ("correlators", None, "four_point_jackson", "correlators.four_point_jackson", None),
    ("correlators", None, "four_point_closed", "correlators.four_point_closed", None),
    ("correlators", None, "two_point", "correlators.two_point", None),
    ("cli", None, "main", "cli.other", None),
    ("cli", None, "run", "cli.other", None),
    ("cli", None, "emit_report", "cli.emit", None),
) + tuple(
    ("relations", None, name, _identity_kind, None)
    for name in (
        "check_defining_relation",
        "check_screening_relation",
        "check_vertex_exchange",
        "check_current_vertex_exchange",
        "check_adjoint_shift",
        "check_exchange_rewrite",
        "check_composite_exchange",
        "check_fusion",
        "check_argument_shift",
        "check_delta_identity",
        "check_qspecial",
    )
) + tuple(
    ("correlators", None, name, "correlators.check", None)
    for name in (
        "check_two_point",
        "check_four_point",
        "check_pseudo_constant",
        "check_connection_formula",
    )
)

# The ten operator identities of the operator sweep, one self-time
# metric each.
OPERATOR_IDENTITIES = (
    "defining-relation",
    "screening",
    "screening-mirror",
    "vertex-exchange",
    "vertex-exchange-theta",
    "vertex-exchange-mirror",
    "current-vertex-exchange",
    "adjoint-shift",
    "exchange-rewrite",
    "composite-exchange",
)

# Per-layer metrics.  TIMES maps a metric to the span kind whose self
# times (seconds) it adds up, ``relations.*`` meaning every relations
# check; CALLS counts wrapped calls of one kind (a function nested in
# itself counts twice); SUMS and MAXIMA are counts made at the span
# boundaries.  The BREAKDOWN metrics split ``relations.self_s`` by
# identity; every other TIMES metric is a disjoint share of the traced
# wall time, so those add up to it.
TIMES = {
    "fock.basis_s": "fock.basis",
    "fock.apply_s": "fock.apply",
    "relations.self_s": "relations.*",
    **{f"relations.{i}_s": f"relations.{i}" for i in OPERATOR_IDENTITIES},
    "voa.structure_series_s": "voa.structure_series",
    "voa.product_form_s": "voa.product_form",
    "voa.product_form_value_s": "voa.product_form_value",
    "series.from_log_rule_s": "series.from_log_rule",
    "qspecial.qpoch_inf_s": "qspecial.qpoch_inf",
    "qspecial.jackson_s": "qspecial.jackson",
    "qspecial.phi21_s": "qspecial.phi21",
    "qspecial.bracket_s": "qspecial.bracket",
    "correlators.screening_wave_s": "correlators.screening_wave",
    "correlators.four_point_jackson_s": "correlators.four_point_jackson",
    "correlators.four_point_closed_s": "correlators.four_point_closed",
    "correlators.two_point_s": "correlators.two_point",
    "correlators.self_s": "correlators.check",
    "cli.emit_s": "cli.emit",
    "cli.other_s": "cli.other",
    "trace.harness_s": "harness",
}
CALLS = {
    "fock.basis_calls": "fock.basis",
    "fock.apply_calls": "fock.apply",
    "voa.structure_series_calls": "voa.structure_series",
    "voa.product_form_calls": "voa.product_form",
    "voa.product_form_value_calls": "voa.product_form_value",
    "series.from_log_rule_calls": "series.from_log_rule",
    "qspecial.qpoch_inf_calls": "qspecial.qpoch_inf",
    "qspecial.jackson_calls": "qspecial.jackson",
    "qspecial.phi21_calls": "qspecial.phi21",
    "qspecial.bracket_calls": "qspecial.bracket",
    "correlators.screening_wave_calls": "correlators.screening_wave",
    "correlators.four_point_jackson_calls": "correlators.four_point_jackson",
    "correlators.four_point_closed_calls": "correlators.four_point_closed",
    "correlators.two_point_calls": "correlators.two_point",
}
BREAKDOWN = frozenset(f"relations.{i}_s" for i in OPERATOR_IDENTITIES)
SUMS = ("fock.basis_states", "fock.apply_flops", "fock.apply_bytes", "voa.product_form_factors")
MAXIMA = ("relations.max_states",)
# Derived from array sizes, not measured.
COMPUTED = {"fock.apply_flops": "flop", "fock.apply_bytes": "B"}


def _matches(kind: str, pattern: str) -> bool:
    return kind.startswith(pattern[:-1]) if pattern.endswith(".*") else kind == pattern


def metric_units() -> dict[str, str]:
    units = {name: "s" for name in TIMES}
    units.update({name: "count" for name in CALLS})
    units.update({name: "count" for name in SUMS + MAXIMA})
    units.update(COMPUTED)
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self._kind_id: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.sums: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def _id(self, kind: str) -> int:
        if kind not in self._kind_id:
            self._kind_id[kind] = len(self.kinds)
            self.kinds.append(kind)
        return self._kind_id[kind]

    def wrap(self, fn, kind, counts=None):
        static = isinstance(kind, str)
        kid = self._id(kind if static else f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")

        def traced(*args, **kwargs):
            i = len(self.start)
            self.kind.append(kid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if not static:
                self.kind[i] = self._id(kind(result))
            if counts is not None:
                add, top = counts(args, result)
                self.sums.update(add)
                for key, val in top.items():
                    self.maxima[key] = max(self.maxima.get(key, 0), val)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every entry of SPANS wherever qvirasoro code looks it up."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qvirasoro"]
        for mod_name, owner, attr, kind, counts in SPANS:
            mod = sys.modules[f"qvirasoro.{mod_name}"]
            if owner is not None:
                cls = getattr(mod, owner)
                setattr(cls, attr, self.wrap(getattr(cls, attr), kind, counts))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(original, kind, counts)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)

    def root(self, fn):
        """Run ``fn`` under the root span and return its result."""
        return self.wrap(fn, "harness")()

    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        own = np.bincount(kind, weights=self.self_times(), minlength=len(self.kinds))
        calls = np.bincount(kind, minlength=len(self.kinds))
        by_kind = dict(zip(self.kinds, own))
        out = {}
        for name, k in TIMES.items():
            out[name] = float(sum(v for n, v in by_kind.items() if _matches(n, k)))
        for name, k in CALLS.items():
            out[name] = int(calls[self._kind_id[k]]) if k in self._kind_id else 0
        for name in SUMS:
            out[name] = int(self.sums.get(name, 0))
        for name in MAXIMA:
            out[name] = int(self.maxima.get(name, 0))
        return out

    def unmapped_kinds(self) -> list[str]:
        """Recorded span kinds whose self time no TIMES metric adds up."""
        return [k for k in self.kinds if not any(_matches(k, p) for p in TIMES.values())]

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            kinds=np.array(self.kinds),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
