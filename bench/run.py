"""isolab benchmark: one command, every metric by name with its unit, every result checked.

    python3 bench/run.py --workload shape_search --seed 1 --seconds 12 --trace 0

Runs from a checkout holding ``src/isolab``; nothing is installed.  Each run
starts fresh workload processes (worker.py) one at a time.  With
``--trace 0`` it reports the end-to-end metrics; ``setup_s`` is the median
over SETUP_RUNS processes, from interpreter start to the first timed
operation.  Operation times are scaled to the reference speed
(stats.REFERENCE_S per pass of the reference loop); the measured ones are
printed beside them.  With ``--trace 1`` it reports the per-layer metrics
of a traced run.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOAD_NAMES = ("shape_search", "family_scan", "hull_batch", "cli_cold")
# Workload processes timed to READY per untraced run.  Half of the set-up-only
# ones run before the measured process and half after, so the median spans
# the whole run rather than one moment of the machine's speed.
SETUP_RUNS = 3
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(args, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from start to READY, its result or None)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode} (setup_only={setup_only})")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_table(result: dict, metrics: dict) -> None:
    """Every metric by name with its unit, then the failures; stdout, before the result line."""
    rows = {name: f"{m['value']:.6g} {m['unit']}" for name, m in metrics.items()}
    for name, value in result.get("measured", {}).items():
        if name in rows:
            rows[name] += f"  (measured {value:.6g})"
    if "op_tail_s" in rows:
        samples = "every repetition" if result["op_tail_pooled"] else "each operation's median"
        rows["op_tail_s"] += (f"  (p{result['op_tail_percentile']:.1f} over {result['op_tail_samples']}"
                              f" samples, {samples} of {result['cycles']} cycles, 10 beyond)")
    if "fail_frac" not in rows:
        rows["fail_frac"] = f"{result['failed'] / result['attempted']:.6g} ratio"
    rows["fail_frac"] += f"  ({result['failed']} of {result['attempted']} operations)"
    width = max(map(len, rows))
    for name, text in rows.items():
        print(f"{name:<{width}}  {text}")
    if "reference_s" in result:
        print(f"reference loop: median pass {result['reference_s'] * 1e3:.4g} ms in the measured process, "
              f"{stats.REFERENCE_S * 1e3:g} ms at the reference speed")
    for line in result["failures"]:
        print(f"  failed: {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "isolab" / "__init__.py").is_file():
        print(f"run.py: no isolab sources at {ROOT / 'src' / 'isolab'}", file=sys.stderr)
        return 2

    deadline = monotonic() + RUN_DEADLINE_S
    try:
        extra = 0 if args.trace else SETUP_RUNS - 1
        setups = [run_worker(args, deadline, setup_only=True)[0] for _ in range(extra // 2)]
        setup_s, result = run_worker(args, deadline, setup_only=False)
        setups.append(setup_s)
        setups += [run_worker(args, deadline, setup_only=True)[0] for _ in range(extra - extra // 2)]
    except (BenchError, ValueError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(result["ops_per_s"], "1/s"),
            "op_p50_s": _metric(result["op_p50_s"], "s"),
            "op_tail_s": _metric(result["op_tail_s"], "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
    _print_table(result, metrics)
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
