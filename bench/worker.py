"""One workload process: set up, print READY, measure, print one JSON result line.

run.py starts this process and times it from interpreter start to READY, so
setup covers ``import isolab``, input generation and warm-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import cli_cold
import stats
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE_REPEATS = 3  # fresh processes per start-up probe in the traced run
# A run stops repeating cycles once it has measured for OVERRUN times
# --seconds (keeping at least the workload's min_cycles), so that runs on a
# machine at under half its usual speed still keep to the time budget.
OVERRUN = 2.0
# Traced cycles hold every evaluator span in memory (family_scan makes about
# 0.8 million a cycle), so a traced run keeps to this many cycle pairs.
TRACED_PAIRS_MAX = 2
# Per-layer metrics of a traced run that are not derived from spans, with units.
RUN_LAYER_UNITS = {"cli.python_s": "s", "cli.import_s": "s", "fail_frac": "ratio",
                   "trace.overhead_ratio": "ratio"}


def _import_isolab():
    sys.path.insert(0, str(SRC))
    import isolab

    if not Path(isolab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"worker: isolab imported from {isolab.__file__}, not from {SRC}")


def _warm_up(ops) -> None:
    """Run the first operation of each kind once, untimed and unchecked."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.call()
            except Exception:  # the measured run counts and reports the failure
                pass


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _probe_s(argv: list[str], env: dict) -> float:
    """Median wall time of PROBE_REPEATS fresh processes running ``argv``."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _failure_summary(tally) -> dict:
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": len(tally.unexpected),
        "failures": sorted({f"{f.label}: {f.problem}" + ("" if f.known else " [unexpected]")
                            for f in tally.failures}),
    }


def measure(ops, cycles: int, min_cycles: int, cap_s: float, cli: bool) -> dict:
    """Run ``cycles`` identical cycles; latencies are each operation's median repetition.

    Times are scaled to the reference speed cycle by cycle; the measured ones
    are reported beside them.  ``ops_per_s`` is the median over cycles of a
    cycle's passed operations over its busy time.
    """
    n = len(ops)
    tally = stats.Tally()
    per_cycle = []  # (operations passed, busy seconds)
    t0 = perf_counter()
    for c in range(cycles):
        if c >= min_cycles and perf_counter() - t0 > cap_s:
            break
        failed, busy = tally.failed, tally.busy_s
        stats.run_ops(ops, tally, tracing.NullTracer(), c * n)
        per_cycle.append((n - (tally.failed - failed), tally.busy_s - busy))
    scales = stats.cycle_scales(tally.reference, n)
    scaled = stats.scale_cycles(tally.latencies, scales, n)
    tail, pct, samples = stats.tail_latency(stats.tail_samples(scaled, n))
    measured = {
        "ops_per_s": (tally.attempted - tally.failed) / tally.busy_s,
        "op_p50_s": statistics.median(stats.per_op_median(tally.latencies, n)),
        "op_tail_s": stats.tail_latency(stats.tail_samples(tally.latencies, n))[0],
    }
    return {
        **_failure_summary(tally),
        "cycles": len(per_cycle),
        "ops_per_s": statistics.median(p / b / s for (p, b), s in zip(per_cycle, scales)),
        "op_p50_s": statistics.median(stats.per_op_median(scaled, n)),
        "op_tail_s": tail,
        "op_tail_percentile": pct,
        "op_tail_samples": samples,
        "op_tail_pooled": samples > n,
        "peak_rss_mb": _peak_rss_mb(children=cli),
        "measured": measured,
        "reference_s": statistics.median(tally.reference),
    }


def traced(name: str, wl, plain, cycles: int) -> dict:
    """Alternate untraced and traced cycles; per-layer metrics per traced cycle.

    The tracing overhead is the traced cycles' busy time over the untraced
    cycles' busy time, on the same operations.
    """
    tracer = tracing.Tracer()
    ops = wl.build(tracer)
    tally = stats.Tally()
    pairs = max(1, min(TRACED_PAIRS_MAX, cycles // 2))
    walls = {"untraced": 0.0, "traced": 0.0}
    for c in range(pairs):
        for mode, tr, todo in (("untraced", tracing.NullTracer(), plain), ("traced", tracer, ops)):
            before = tally.busy_s
            stats.run_ops(todo, tally, tr, (2 * c + (mode == "traced")) * len(ops))
            walls[mode] += tally.busy_s - before
    table = tracing.span_table(tracer.columns(), tracer.names)
    layers = tracing.layer_metrics(table, tracer.counters, pairs, cli_cold.CLI_SUBCOMMANDS)
    env = cli_cold.child_env(SRC)
    values = {
        "cli.python_s": _probe_s([sys.executable, "-c", "pass"], env),
        "cli.import_s": _probe_s([sys.executable, "-c", "import isolab"], env),
        "fail_frac": tally.failed / tally.attempted,
        "trace.overhead_ratio": walls["traced"] / walls["untraced"],
    }
    layers.update({metric: (values[metric], unit) for metric, unit in RUN_LAYER_UNITS.items()})
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans_{name}.npz")
    return {**_failure_summary(tally), "cycles": pairs, "spans": len(tracer.name),
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if args.workload == "cli_cold":
        wl = cli_cold.cli_cold(args.seed, SRC, OUT)
    else:
        _import_isolab()
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed)
    plain = wl.build(tracing.NullTracer())
    _warm_up(plain)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    cycles = max(wl.min_cycles, round(args.seconds / wl.nominal_cycle_s))
    if args.trace:
        result = traced(args.workload, wl, plain, cycles)
    else:
        result = measure(plain, cycles, wl.min_cycles, OVERRUN * args.seconds, cli=args.workload == "cli_cold")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
