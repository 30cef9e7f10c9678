"""Spans kept in memory around calls into isolab, counting evaluators, and the
per-layer table derived from the spans.

A span is (name, start, end, parent, operation id, points).  The benchmark
opens one around each public isolab call it makes; the counting evaluators
add one child span per V/A/V' call, whose ``points`` is the number of
parameter points passed.  Columns are plain ``array`` buffers so that a
traced run holding a million spans needs about 36 MB.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from array import array
from time import perf_counter

import numpy as np

EVALUATOR_FIELDS = ("volume", "area", "dvolume")
EVALUATOR_PREFIX = "families."


class NullTracer:
    """Tracing off: no spans, no counters, evaluators left unwrapped."""

    op_id = -1

    def span(self, name: str, points: int = 0):
        return contextlib.nullcontext()

    def count(self, name: str, n: int) -> None:
        pass

    def wrap(self, spec):
        return spec


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.points = array("q")
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _append(self, nid: int, t0: float, t1: float, points: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.points.append(points)
        return i

    @contextlib.contextmanager
    def span(self, name: str, points: int = 0):
        i = self._append(self.name_id(name), perf_counter(), 0.0, points)
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[i] = perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, spec):
        """Copy of a family spec whose evaluators count calls and points and record spans.

        One-parameter evaluators take ``s`` (a scalar, or a 1-D array of
        points); shape-class evaluators take ``x`` (one point of shape (n,),
        or an (N, n) array of points).
        """
        one_param = hasattr(spec, "dvolume")
        changes = {}
        for field in EVALUATOR_FIELDS:
            fn = getattr(spec, field, None)
            if fn is not None:
                changes[field] = self._counted(fn, EVALUATOR_PREFIX + field, one_param)
        return dataclasses.replace(spec, **changes)

    def _counted(self, fn, name: str, one_param: bool):
        nid = self.name_id(name)
        append = self._append
        point_ndim = 0 if one_param else 1

        def evaluator(x):
            t0 = perf_counter()
            y = fn(x)
            t1 = perf_counter()
            ndim = getattr(x, "ndim", point_ndim)
            append(nid, t0, t1, 1 if ndim <= point_ndim else len(x))
            return y

        return evaluator

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "points": np.frombuffer(self.points, dtype=np.int64),
        }

    def dump(self, path) -> None:
        """Write every span and counter once, at the end of the run."""
        np.savez(
            path,
            names=np.array(self.names),
            counters=np.array(json.dumps(self.counters)),
            **self.columns(),
        )


def span_table(columns: dict[str, np.ndarray], names: list[str]) -> dict[str, dict]:
    """Per span name: calls, busy time, self time, evaluator children and points.

    Self time is a span's duration minus the durations of its direct child
    spans (at this layer boundary, the evaluator spans inside it).
    """
    name, parent = columns["name"], columns["parent"]
    dur = columns["end"] - columns["start"]
    n = len(name)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    is_eval = np.array([nm.startswith(EVALUATOR_PREFIX) for nm in names], dtype=bool)
    eval_child = has_parent & is_eval[name]
    eval_children = np.bincount(parent[eval_child], minlength=n)
    table = {}
    for nid, nm in enumerate(names):
        mask = name == nid
        table[nm] = {
            "calls": int(mask.sum()),
            "busy_s": float(dur[mask].sum()),
            "self_s": float((dur[mask] - child_time[mask]).sum()),
            "evals": int(eval_children[mask].sum()),
            "points": int(columns["points"][mask].sum()),
        }
    return table


_EMPTY = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "evals": 0, "points": 0}

# (metric, span name, field, unit); "evals_per_call" divides evaluator
# children by calls.  Values are per traced cycle of the workload.
SPAN_METRICS = (
    ("search.kmin.calls", "search.kmin", "calls", "count"),
    ("search.kmin.busy_s", "search.kmin", "busy_s", "s"),
    ("search.kmin.self_s", "search.kmin", "self_s", "s"),
    ("search.kmin.evals_per_call", "search.kmin", "evals_per_call", "count"),
    ("search.trace_level_set.busy_s", "search.trace_level_set", "busy_s", "s"),
    ("search.trace_level_set.self_s", "search.trace_level_set", "self_s", "s"),
    ("search.solve_coordinate.busy_s", "search.solve_coordinate", "busy_s", "s"),
    ("search.solve_coordinate.evals_per_call", "search.solve_coordinate", "evals_per_call", "count"),
    ("homogeneity.classify.busy_s", "homogeneity.classify", "busy_s", "s"),
    ("homogeneity.classify.self_s", "homogeneity.classify", "self_s", "s"),
    ("homogeneity.classify.evals_per_call", "homogeneity.classify", "evals_per_call", "count"),
    ("homogeneity.constant_area_check.busy_s", "homogeneity.constant_area_check", "busy_s", "s"),
    ("calculus.inradius_by_quadrature.busy_s", "calculus.inradius_by_quadrature", "busy_s", "s"),
    ("calculus.inradius_by_quadrature.self_s", "calculus.inradius_by_quadrature", "self_s", "s"),
    ("calculus.inradius_by_quadrature.evals_per_call", "calculus.inradius_by_quadrature",
     "evals_per_call", "count"),
    ("calculus.verify_derivative_relation.busy_s", "calculus.verify_derivative_relation",
     "busy_s", "s"),
    ("calculus.monotone_partition.busy_s", "calculus.monotone_partition", "busy_s", "s"),
    ("polytope.construct.busy_s", "polytope.construct", "busy_s", "s"),
    ("polytope.facets", "polytope.construct", "points", "count"),
    ("polytope.decompose.busy_s", "polytope.decompose", "busy_s", "s"),
    ("polytope.volume_from_support.busy_s", "polytope.volume_from_support", "busy_s", "s"),
    ("polytope.cohen_check.busy_s", "polytope.cohen_check", "busy_s", "s"),
)


def layer_metrics(table: dict[str, dict], counters: dict[str, int], cycles: int,
                  cli_names: list[str]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced cycle, as ``{name: (value, unit)}``.

    Layers a workload does not call read 0.
    """
    evals = [row for nm, row in table.items() if nm.startswith(EVALUATOR_PREFIX)]
    out = {
        "families.evals": (sum(r["calls"] for r in evals) / cycles, "count"),
        "families.points": (sum(r["points"] for r in evals) / cycles, "count"),
        "families.eval_s": (sum(r["busy_s"] for r in evals) / cycles, "s"),
    }
    for metric, span, field, unit in SPAN_METRICS:
        row = table.get(span, _EMPTY)
        if field == "evals_per_call":
            value = row["evals"] / row["calls"] if row["calls"] else 0.0
        else:
            value = row[field] / cycles
        out[metric] = (value, unit)
    requested = counters.get("search.trace_level_set.requested", 0)
    accepted = counters.get("search.trace_level_set.accepted", 0)
    out["search.trace_level_set.accept_ratio"] = (accepted / requested if requested else 0.0, "ratio")
    for sub in cli_names:
        row = table.get(f"cli.{sub}", _EMPTY)
        out[f"cli.{sub}.wall_s"] = (row["busy_s"] / row["calls"] if row["calls"] else 0.0, "s")
    return out
