"""Isoperimetric deficit and Bonnesen-type inequalities with the Tong inradius.

All rows are pure arithmetic in (d, V, A): the deficit A^d - d^d kappa_d
V^(d-1) is nonnegative with equality only for balls, and each Bonnesen row
bounds it from below (or, in the Osserman form, bounds r A from below).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .records import Record

# hybrid comparison tolerance; rows can be exact zeros at equality cases
HOLD_TOL = 1e-12


# kappa_1 .. kappa_12, correctly rounded (mpmath at 200 bits)
_KAPPA = (2.0, 3.141592653589793, 4.188790204786391, 4.934802200544679, 5.263789013914325,
          5.16771278004997, 4.7247659703314016, 4.0587121264167685, 3.298508902738707,
          2.5501640398773455, 1.8841038793899003, 1.3352627688545895)


def kappa(d: int) -> float:
    """Volume of the d-dimensional unit ball, pi^(d/2) / Gamma(d/2 + 1): tabled up to
    d = 12, then kappa_d = 2 pi / d kappa_(d-2), within 1e-13 relative up to d = 400."""
    if d < 1 or d % 1:  # NaN fails too
        raise DomainError(f"d must be an integer >= 1, got {d}")
    j = int(min(d, len(_KAPPA) - (d - len(_KAPPA)) % 2))  # d, or the last tabled d of its parity
    k = _KAPPA[j - 1]
    while j < d and k > 0.0:  # 0.0 once it underflows
        j += 2
        k *= 2.0 * math.pi / j
    return k


_LOG_MAX = math.log(sys.float_info.max)  # ln of the largest float


def _log_ball_ratio(d: int) -> float:
    """ln(d^d kappa_d), with ln kappa_d = (d/2) ln pi - ln Gamma(d/2 + 1)."""
    return d * math.log(d) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)


def ball_ratio(d: int) -> float:
    """d^d kappa_d, the isoperimetric ratio Q of the d-ball and the least Q of any
    body; inf where it is beyond the float range."""
    try:  # float(d): an integer d**d grows without bound in time and memory
        return float(d) ** d * kappa(d)
    except OverflowError:  # d^d alone, from d = 144 on
        log_q = _log_ball_ratio(d)
        return math.exp(log_q) if log_q < _LOG_MAX else math.inf


def deficit(d: int, v: float, a: float) -> float:
    """Isoperimetric deficit A^d - d^d kappa_d V^(d-1) (2D: P^2 - 4 pi A).

    Where a term is beyond the float range, both are taken from their logs;
    a deficit that is itself beyond it is a :class:`DomainError`."""
    if d < 2:
        raise DomainError("d must be >= 2")
    if v <= 0 or a <= 0:
        raise DomainError("V and A must be positive")
    try:
        value = a**d - ball_ratio(d) * v ** (d - 1)
    except OverflowError:  # A^d or V^(d-1), or d itself
        value = math.nan
    if not math.isfinite(value):  # |A^d - B| = e^hi (1 - e^(lo - hi)) for logs lo <= hi
        try:
            log_a, log_b = d * math.log(a), _log_ball_ratio(d) + (d - 1) * math.log(v)
        except OverflowError:  # d, or ln Gamma(d/2 + 1), beyond the float range
            log_a = log_b = math.inf
        gap = -math.expm1(-abs(log_a - log_b))
        log_value = max(log_a, log_b) + math.log(gap) if gap else -math.inf
        if not log_value < _LOG_MAX:  # NaN too, where both logs are infinite
            raise DomainError(f"the isoperimetric deficit in d = {d} is outside the float range")
        value = math.copysign(math.exp(log_value), log_a - log_b)
    return value


def tong_inradius(d: int, v: float, a: float) -> float:
    """r = d V / A, the distinguished linear dimension of a homogeneous family."""
    if v <= 0 or a <= 0:
        raise DomainError("V and A must be positive")
    return d * v / a


@dataclass(frozen=True)
class InequalityRow:
    name: str
    lhs: float
    rhs: float
    holds: bool
    slack: float


@dataclass(frozen=True)
class InequalityReport(Record):
    dimension: int
    V: float
    A: float
    r_tong: float
    kappa_d: float
    deficit: float
    rows: tuple[InequalityRow, ...]

    @property
    def all_hold(self) -> bool:
        return all(row.holds for row in self.rows)


def _pow(x: float, n: int) -> float:
    """x**n, and inf where that is beyond the float range."""
    try:
        return x**n
    except OverflowError:
        return math.inf


def _row(d: int, name: str, lhs: float, rhs: float, scale: float) -> InequalityRow:
    if not all(map(math.isfinite, (lhs, rhs, scale, lhs - rhs))):
        raise DomainError(f"the {name} row in d = {d} is outside the float range")
    # scale covers cancellation noise at equality cases (e.g. A^d for deficits)
    tol = HOLD_TOL * max(abs(lhs), abs(rhs), abs(scale), 1.0)
    return InequalityRow(name=name, lhs=lhs, rhs=rhs, holds=lhs >= rhs - tol, slack=lhs - rhs)


def bonnesen_general(d: int, v: float, a: float) -> InequalityReport:
    """The three general-d Bonnesen rows with r the Tong inradius d V / A; a row
    with a term beyond the float range, or r = 0, is a :class:`DomainError`."""
    dfc = deficit(d, v, a)
    kd = kappa(d)
    r = d * v / a
    if r == 0.0:  # underflowed: V / r below is A / d in exact arithmetic, but not in floats
        raise DomainError(f"the Tong inradius in d = {d} is outside the float range")
    rows = (
        _row(d, "deficit_vs_area_gap", dfc, _pow(a - d * kd * _pow(r, d - 1), d), _pow(a, d)),
        _row(d, "deficit_vs_volume_gap", dfc, _pow(v / r - kd * _pow(r, d - 1), d), _pow(a, d)),
        _row(d, "osserman", r * a, v + (d - 1) * kd * _pow(r, d), r * a),
    )
    return InequalityReport(
        dimension=d, V=v, A=a, r_tong=r, kappa_d=kd, deficit=dfc, rows=rows
    )


def bonnesen_2d(p: float, a: float, r_inscribed: float) -> InequalityReport:
    """Classical 2D Bonnesen/Osserman rows for any inscribed-circle radius.

    The caller asserts r is the radius of some circle inscribed in the
    figure (or the Tong inradius 2A/P, for which the rows also hold); the
    only sanity bound enforced is r <= P / (2 pi).  As in
    :func:`bonnesen_general`, a term beyond the float range is a :class:`DomainError`.
    """
    if p <= 0 or a <= 0 or r_inscribed <= 0:
        raise DomainError("P, A, r must be positive")
    if r_inscribed > p / (2.0 * math.pi) * (1.0 + 1e-12):
        raise DomainError("inscribed radius exceeds the isoperimetric radius P/(2 pi)")
    r = r_inscribed
    dfc = deficit(2, a, p)  # P^2 - 4 pi A
    rows = (
        _row(2, "bonnesen_perimeter", dfc, _pow(p - 2.0 * math.pi * r, 2), _pow(p, 2)),
        _row(2, "bonnesen_area", dfc, _pow(a / r - math.pi * r, 2), _pow(p, 2)),
        _row(2, "osserman", r * p, a + math.pi * _pow(r, 2), r * p),
    )
    return InequalityReport(
        dimension=2, V=a, A=p, r_tong=2.0 * a / p, kappa_d=math.pi, deficit=dfc, rows=rows
    )
