"""Fast self-check of the benchmark's own arithmetic; needs numpy, not isolab.

    python3 bench/selfcheck.py          # or: python3 -m pytest bench/selfcheck.py

Covers the tail-percentile rule, per-operation median latencies, the speed
scale, self time from spans, failure counting, point counting by the
evaluator wrappers, and that BENCHMARK.json names exactly the metrics the
benchmark prints.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cli_cold  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def test_tail_rule():
    xs = [float(v) for v in range(100, 0, -1)]  # 1..100, unsorted
    _expect(stats.tail_latency(xs) == (90.0, 90.0, 100), "100 samples: p90, ten above it")
    value, pct, n = stats.tail_latency(xs[:46])  # 55..100
    _expect(value == 90.0 and n == 46 and abs(pct - 100 * 36 / 46) < 1e-12, "46 samples: rank 36")
    _expect(sum(x > value for x in xs[:46]) == stats.TAIL_BEYOND, "exactly ten beyond")
    _expect(stats.tail_latency([3.0] * 11) == (3.0, 100 / 11, 11), "11 samples: the smallest")
    _expect(stats.tail_latency([1.0, 5.0, 2.0]) == (5.0, 100.0, 3), "too few samples: the maximum")


def test_per_op_median():
    cycles = [3.0, 1.0, 5.0, 2.0, 4.0, 6.0, 9.0, 7.0, 8.0]  # three cycles of three operations
    _expect(stats.per_op_median(cycles, 3) == [3.0, 4.0, 6.0], "median repetition of each operation")
    _expect(stats.per_op_median(cycles[:6], 3) == [2.5, 2.5, 5.5], "two repetitions: their mean")
    try:
        stats.per_op_median(cycles[:5], 3)
    except ValueError:
        return
    raise AssertionError("a partial cycle is rejected")


def test_speed_scale():
    ref = [1e-3, 3e-3, 2e-3, 4e-3, 4e-3, 5e-3]  # two cycles of three operations
    scales = stats.cycle_scales(ref, 3)
    _expect(scales == [0.5, 0.25], "reference speed over each cycle's median pass")
    lat = [2.0, 4.0, 6.0, 8.0, 4.0, 12.0]
    _expect(stats.scale_cycles(lat, scales, 3) == [1.0, 2.0, 3.0, 2.0, 1.0, 3.0], "scaled by own cycle")
    try:
        stats.cycle_scales(ref[:5], 3)
    except ValueError:
        return
    raise AssertionError("a partial cycle is rejected")


def test_tail_samples():
    many = [float(v) for v in range(60)]  # three cycles of twenty operations
    _expect(stats.tail_samples(many, 20) == many[20:40], "twenty operations: each one's median")
    few = [float(v) for v in range(36)]  # two cycles of eighteen operations
    _expect(stats.tail_samples(few, 18) == few, "eighteen operations: every repetition")
    value, _, n = stats.tail_latency(stats.tail_samples(few, 18))
    _expect(n == 36 and value > sorted(few)[n // 2], "pooled tail lies above the median")


def test_self_time():
    tr = tracing.Tracer()
    fam = tr.wrap(_Spec(volume=lambda s: s, area=lambda s: s))
    with tr.span("layer"):
        fam.volume(1.0)
        fam.area(np.arange(4.0))  # four points in one call
    # rewrite the clock: layer 0..10, evaluator children 1..2 and 3..6
    tr.start[:] = array("d", [0.0, 1.0, 3.0])
    tr.end[:] = array("d", [10.0, 2.0, 6.0])
    table = tracing.span_table(tr.columns(), tr.names)
    layer = table["layer"]
    _expect((layer["busy_s"], layer["self_s"], layer["evals"]) == (10.0, 6.0, 2), f"layer row {layer}")
    _expect(table["families.area"]["points"] == 4, "array argument counts its points")
    metrics = tracing.layer_metrics(table, {}, cycles=2, cli_names=["eval"])
    _expect(metrics["families.evals"] == (1.0, "count"), "evaluator calls per cycle")
    _expect(metrics["families.points"] == (2.5, "count"), "points per cycle")
    _expect(metrics["cli.eval.wall_s"] == (0.0, "s"), "a layer the workload does not call reads 0")


def test_failure_counting():
    def boom():
        raise ValueError("bad input")

    ops = [
        stats.Op("ok", "k", lambda: 1, lambda r: None),
        stats.Op("gate", "k", lambda: 2, lambda r: "wrong answer"),
        stats.Op("raises", "k", boom, lambda r: None),
        stats.Op("known", "k", lambda: 3, lambda r: "exit 2: documented", known_defect="exit 2"),
        stats.Op("known-other", "k", lambda: 4, lambda r: "exit 1: usage", known_defect="exit 2"),
    ]
    tally = stats.Tally()
    stats.run_ops(ops, tally, tracing.NullTracer())
    stats.run_ops(ops, tally, tracing.NullTracer(), first_op_id=len(ops))
    _expect(tally.attempted == 10 and len(tally.latencies) == 10, "every operation is attempted")
    _expect(tally.failed == 8, "a gate failure, a raise and a non-zero exit each count")
    _expect(sorted({f.label for f in tally.unexpected}) == ["gate", "known-other", "raises"],
            "only the documented failure of a known defect is expected")
    _expect(any(f.problem == "ValueError: bad input" for f in tally.failures), "exception text kept")


def test_benchmark_json_names():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in doc["end_to_end"]}
    _expect(e2e == {"setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}, f"end_to_end {e2e}")
    table = tracing.span_table(tracing.Tracer().columns(), [])
    emitted = tracing.layer_metrics(table, {}, 1, cli_cold.CLI_SUBCOMMANDS)
    emitted.update({name: (0.0, unit) for name, unit in worker.RUN_LAYER_UNITS.items()})
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    _expect(listed == {k: unit for k, (_, unit) in emitted.items()},
            f"per_layer differs: {sorted(set(listed.items()) ^ {(k, u) for k, (_, u) in emitted.items()})}")
    _expect({w["name"] for w in doc["workloads"]} == {"shape_search", "family_scan", "hull_batch", "cli_cold"},
            "workloads")


@dataclasses.dataclass(frozen=True)
class _Spec:
    volume: Callable
    area: Callable
    dvolume: Callable | None = None


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
