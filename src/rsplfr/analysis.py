"""Closed-form storage/load trade-offs and converse bounds, in exact rationals.

Everything here is arithmetic over fractions.Fraction; floats appear
only when a report is serialized.  Conventions: M is the per-user cache
size in files, T the per-server storage in files, R the per-server
delivery load in files, L = J - I - 2A the number of data coefficients
per codeword.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .pda import Pda


class AnalysisError(ValueError):
    pass


class AnalysisInvariantError(AnalysisError):
    """A checked identity failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class MscTriple:
    """Achievable memory / storage / communication point of one array."""

    M: Fraction
    T: Fraction
    R: Fraction
    subpacketization: int


def msc_from_pda(pda: Pda, params) -> MscTriple:
    """Exact (M, T, R) achieved by running the scheme over the given array."""
    N, L = params.N, params.L
    F, Z, S = pda.F, pda.Z, pda.S
    M = 1 + Fraction(Z * (N - 1), F)
    R = Fraction(S, L * F)
    T = Fraction(N, L) + R  # equals (N + S/F)/L
    if T != Fraction(N * F + S, L * F):
        raise AnalysisInvariantError("storage identity broke")
    return MscTriple(M=M, T=T, R=R, subpacketization=L * F)


# ---------- achievability curve of the uncoded-placement family ----------


@dataclass(frozen=True)
class CurvePoint:
    t: int
    M: Fraction
    T: Fraction
    R: Fraction


class _PiecewiseLinear:
    """Exact piecewise-linear interpolation through (x, y) corner points."""

    def __init__(self, xs, ys):
        self.xs = list(xs)
        self.ys = list(ys)

    def __call__(self, x: Fraction) -> Fraction:
        xs, ys = self.xs, self.ys
        if x < xs[0] or x > xs[-1]:
            raise AnalysisError(f"M={x} outside [{xs[0]}, {xs[-1]}]")
        i = bisect_right(xs, x) - 1
        if i == len(xs) - 1:
            return ys[-1]
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = ys[i], ys[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


@dataclass(frozen=True)
class ManCurve:
    """Memory-sharing curve through the K+1 corner points, t = 0..K."""

    N: int
    K: int
    L: int
    points: tuple[CurvePoint, ...]

    def T(self, M) -> Fraction:
        return _PiecewiseLinear([p.M for p in self.points],
                                [p.T for p in self.points])(Fraction(M))

    def R(self, M) -> Fraction:
        return _PiecewiseLinear([p.M for p in self.points],
                                [p.R for p in self.points])(Fraction(M))


def man_curve(params) -> ManCurve:
    """Corner points (1 + t(N-1)/K, (N + (K-t)/(t+1))/L, (K-t)/(L(t+1)))."""
    N, K, L = params.N, params.K, params.L
    pts = []
    for t in range(K + 1):
        M = 1 + Fraction(t * (N - 1), K)
        R = Fraction(K - t, L * (t + 1))
        T = Fraction(N, L) + R
        pts.append(CurvePoint(t=t, M=M, T=T, R=R))
    return ManCurve(N=N, K=K, L=L, points=tuple(pts))


def lower_envelope(points):
    """Vertices of the lower convex envelope of (x, y) pairs, x increasing."""
    pts = sorted(points)
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        # drop the middle point while slopes fail to increase strictly
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = p
            if (y2 - y1) * (x3 - x2) >= (y3 - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


# ---------- converse bounds ----------


def storage_lower_bound(params) -> Fraction:
    """No scheme stores less than N/(L+2A) per server."""
    return Fraction(params.N, params.L + 2 * params.A)


def load_term(u: int, M, params) -> Fraction:
    """One cut-set term: u(N - u + 1 - uM) / ((L+2A) N)."""
    N = params.N
    M = Fraction(M)
    return Fraction(u, (params.L + 2 * params.A) * N) * (N - u + 1 - u * M)


def load_lower_bound(M, params) -> Fraction:
    """Best cut-set term over u in [1 .. min(floor(N/2), K)], floored at 0."""
    N, K = params.N, params.K
    M = Fraction(M)
    if not 1 <= M <= N:
        raise AnalysisError(f"M={M} outside [1, {N}]")
    best = Fraction(0)
    for u in range(1, min(N // 2, K) + 1):
        best = max(best, load_term(u, M, params))
    return best


def f_bound(M, params) -> Fraction:
    """Smooth envelope (N-M)(N+M+2) / (4 (L+2A) N (M+1)) of the cut-set terms."""
    N = params.N
    M = Fraction(M)
    return Fraction((N - M) * (N + M + 2), 4 * (params.L + 2 * params.A) * N * (M + 1))


# ---------- gap report ----------


@dataclass(frozen=True)
class BoundRow:
    M: Fraction
    T_ach: Fraction
    R_ach: Fraction
    T_lb: Fraction
    R_lb: Fraction
    gap_T: Fraction
    gap_R: Fraction | None  # None where R_lb == 0 (only M = N)
    regime: str             # "bounded" | "unbounded"


@dataclass(frozen=True)
class BoundReport:
    N: int
    K: int
    L: int
    A: int
    gap_limit_T: Fraction
    gap_limit_R: Fraction
    rows: tuple[BoundRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["M", "T_ach", "R_ach", "T_lb", "R_lb", "gap_T", "gap_R",
                    "regime_flag"])
        for r in self.rows:
            w.writerow([float(r.M), float(r.T_ach), float(r.R_ach),
                        float(r.T_lb), float(r.R_lb), float(r.gap_T),
                        float(r.gap_R) if r.gap_R is not None else math.nan,
                        r.regime])
        return buf.getvalue()


def default_grid(params, count: int = 200):
    """count exact rationals from 1 to N inclusive."""
    N = params.N
    if count < 2:
        raise AnalysisError("grid needs at least 2 points")
    return [1 + Fraction((N - 1) * i, count - 1) for i in range(count)]


def _check_envelope_tangency(params):
    """The smooth envelope meets each cut-set term exactly at the stated points."""
    N = params.N
    denom = (params.L + 2 * params.A) * N
    for u in range(1, min(N // 2, params.K) + 1):
        lo = Fraction(N - 2 * u, 2 * u + 1)
        hi = Fraction(N - 2 * u + 2, 2 * u - 1)
        lo_val = Fraction((N + 1) * u * (u + 1), denom * (2 * u + 1))
        hi_val = Fraction((N + 1) * u * (u - 1), denom * (2 * u - 1))
        if f_bound(lo, params) != lo_val or load_term(u, lo, params) != lo_val:
            raise AnalysisInvariantError(f"tangency at the left endpoint failed for u={u}")
        if f_bound(hi, params) != hi_val or load_term(u, hi, params) != hi_val:
            raise AnalysisInvariantError(f"tangency at the right endpoint failed for u={u}")
        # envelope stays below the term across the bracket
        for i in range(26):
            x = lo + (hi - lo) * Fraction(i, 25)
            if f_bound(x, params) > load_term(u, x, params):
                raise AnalysisInvariantError(f"envelope exceeds the u={u} term at M={x}")


def gap_report(params, grid) -> BoundReport:
    """Achievability vs lower bounds across a memory grid, with regime flags.

    Checks, in exact arithmetic: the corner-point envelope matches the
    memory-sharing curve, r(M) <= (N-M)/(M-1) for M > 1, the bounds
    never exceed the achievable values, and the multiplicative gaps stay
    within 2(1+2A/L) for storage and 12(1+2A/L) for load wherever K <= N
    or M >= 2.  The K > N, M < 2 region is only flagged "unbounded".
    """
    N, K, L, A = params.N, params.K, params.L, params.A
    curve = man_curve(params)
    corner_r = [(p.M, Fraction(K - p.t, p.t + 1)) for p in curve.points]
    hull = lower_envelope(corner_r)
    if hull != corner_r:
        raise AnalysisInvariantError("corner points are not already convex")
    r_of = _PiecewiseLinear([x for x, _ in hull], [y for _, y in hull])

    _check_envelope_tangency(params)

    gap_limit_T = 2 * (1 + Fraction(2 * A, L))
    gap_limit_R = 12 * (1 + Fraction(2 * A, L))
    T_lb = storage_lower_bound(params)

    rows = []
    for M in grid:
        M = Fraction(M)
        r = r_of(M)
        T_ach = curve.T(M)
        R_ach = curve.R(M)
        if T_ach != (N + r) / L or R_ach != Fraction(r, L):
            raise AnalysisInvariantError(f"curve does not match the envelope at M={M}")
        if M > 1 and r > Fraction(N - M, M - 1):
            raise AnalysisInvariantError(f"envelope exceeds (N-M)/(M-1) at M={M}")
        R_lb = load_lower_bound(M, params)
        if T_lb > T_ach or R_lb > R_ach:
            raise AnalysisInvariantError(f"a lower bound crossed achievability at M={M}")
        regime = "unbounded" if (K > N and M < 2) else "bounded"
        gap_T = T_ach / T_lb
        if R_lb == 0:
            if R_ach != 0:
                raise AnalysisInvariantError(f"load bound degenerate at M={M} with R_ach > 0")
            gap_R = None
        else:
            gap_R = R_ach / R_lb
        if regime == "bounded":
            if gap_T > gap_limit_T:
                raise AnalysisInvariantError(f"storage gap {gap_T} exceeds the limit at M={M}")
            if gap_R is not None and gap_R > gap_limit_R:
                raise AnalysisInvariantError(f"load gap {gap_R} exceeds the limit at M={M}")
        rows.append(BoundRow(M=M, T_ach=T_ach, R_ach=R_ach, T_lb=T_lb, R_lb=R_lb,
                             gap_T=gap_T, gap_R=gap_R, regime=regime))
    return BoundReport(N=N, K=K, L=L, A=A, gap_limit_T=gap_limit_T,
                       gap_limit_R=gap_limit_R, rows=tuple(rows))
