"""Benchmark arithmetic: the tail-percentile rule, the machine-speed scale and
the operation loop that counts failures.

Standard library only, so the self-check runs without isolab.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

TAIL_BEYOND = 10  # samples that must lie above the reported tail latency
# The reference loop: a fixed pure-Python loop over a list of floats, timed
# before every operation.  Shared machines change speed by up to 1.4x for
# minutes at a time, longer than a run; reported times are scaled, cycle by
# cycle, to a machine on which the loop's median pass takes REFERENCE_S.
# Of the loops tried (integer arithmetic, a list walk, numpy sort, dict
# inserts, this one), this one tracked the workloads' own slow-downs best:
# its time moved in proportion to theirs (log-log slope 1.0 to 1.15).
_REFERENCE_FLOATS = [0.5 * i for i in range(20_000)]
REFERENCE_S = 1e-3


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that still has TAIL_BEYOND samples above it.

    Returns ``(value, percentile, n)``.  The value is the sample of rank
    ``n - TAIL_BEYOND`` in ascending order, so exactly TAIL_BEYOND samples
    lie beyond it.  With ``n <= TAIL_BEYOND`` no percentile qualifies and the
    maximum is returned at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no latency samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def reference_loop() -> float:
    """Seconds taken by one pass of the reference loop."""
    t0 = perf_counter()
    t = 0.0
    for x in _REFERENCE_FLOATS:
        t += x * 1.0000001
    return perf_counter() - t0


def cycle_scales(reference: list[float], n_ops: int) -> list[float]:
    """Per cycle, the factor that scales its times to the reference speed.

    That is REFERENCE_S over the median of the reference-loop passes made in
    the cycle; ``reference`` holds one pass per operation, in whole cycles of
    ``n_ops``.  A cycle lasts seconds, so its scale follows the machine's
    speed changes within a run.
    """
    _check_cycles(reference, n_ops)
    return [REFERENCE_S / statistics.median(reference[i:i + n_ops]) for i in range(0, len(reference), n_ops)]


def scale_cycles(latencies: list[float], scales: list[float], n_ops: int) -> list[float]:
    """Each latency times the speed scale of its cycle."""
    _check_cycles(latencies, n_ops)
    return [x * scales[j // n_ops] for j, x in enumerate(latencies)]


def _check_cycles(values: list[float], n_ops: int) -> None:
    if n_ops < 1 or len(values) % n_ops:
        raise ValueError(f"{len(values)} values are not whole cycles of {n_ops}")


def per_op_median(latencies: list[float], n_ops: int) -> list[float]:
    """Each operation's median repetition.

    ``latencies`` holds whole cycles of ``n_ops`` operations in order, so
    operation i's repetitions are ``latencies[i::n_ops]``.  The machine
    switches between a usual speed and short bursts up to 1.4x faster; the
    median repetition reads the usual speed with a handful of repetitions,
    where the fastest one reads a burst only when one happens to be caught.
    """
    _check_cycles(latencies, n_ops)
    return [statistics.median(latencies[i::n_ops]) for i in range(n_ops)]


def tail_samples(latencies: list[float], n_ops: int) -> list[float]:
    """The samples the tail rule ranks.

    These are each operation's median repetition when a cycle has at least
    2 * TAIL_BEYOND operations, so the tail lies above the median.  A cycle
    with fewer operations (cli_cold has 18) pools every repetition instead.
    """
    if n_ops >= 2 * TAIL_BEYOND:
        return per_op_median(latencies, n_ops)
    return list(latencies)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a call into isolab and the gate on its result.

    ``check`` returns None for a correct result and a one-line description
    otherwise.  ``known_defect`` is the prefix of the failure that a defect
    already recorded for this exact input produces.
    """

    label: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    build: Callable[[Any], list[Op]]  # tracer -> the operations of one cycle
    # Wall time of one cycle at the baseline commit on a 2-core x86 machine.
    # ``--seconds`` sets the cycle count as round(seconds / nominal_cycle_s),
    # at least min_cycles, so the number of latency samples, and the rank
    # the tail rule picks, stay fixed when the program gets faster or slower.
    nominal_cycle_s: float
    min_cycles: int = 1


@dataclass(frozen=True)
class Failure:
    label: str
    problem: str
    known: bool


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    failures: list[Failure] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)  # reference-loop passes, one per operation
    busy_s: float = 0.0  # calls and gates, without the reference loop

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> list[Failure]:
        return [f for f in self.failures if not f.known]


def run_ops(ops: list[Op], tally: Tally, tracer, first_op_id: int = 0) -> None:
    """Run ``ops`` back to back (a closed loop with one client) into ``tally``.

    An operation fails when it raises or its gate rejects the result.  A
    failure is recorded and the loop goes on; it never aborts the run.  The
    latency covers the call only, not the gate.  A pass of the reference
    loop, timed on its own, precedes each operation.
    """
    for i, op in enumerate(ops):
        tracer.op_id = first_op_id + i
        tally.reference.append(reference_loop())
        t0 = perf_counter()
        try:
            result = op.call()
            latency = perf_counter() - t0
            problem = op.check(result)
        except Exception as exc:  # a raising operation is a counted failure, not a crash
            latency = perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        tally.latencies.append(latency)
        tally.busy_s += perf_counter() - t0
        if problem is not None:
            known = op.known_defect is not None and problem.startswith(op.known_defect)
            tally.failures.append(Failure(op.label, problem, known))
