"""Closed-form storage/load trade-offs and converse bounds, in exact rationals.

Everything here is arithmetic over fractions.Fraction; floats appear
only when a report is serialized.  Conventions: M is the per-user cache
size in files, T the per-server storage in files, R the per-server
delivery load in files, L = J - I - 2A the number of data coefficients
per codeword.

The tradeoff claims hold for every M in [1, N], and are checked there
exactly, not on a grid.  T_ach and R_ach are linear between the corners
M_t = 1 + t(N-1)/K, and R_lb between the M where its best cut-set term
changes.  So a bound below achievability at all these breakpoints is
below it everywhere, and each gap, a ratio of two linear functions, is
monotone between them and peaks at one.
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


@dataclass(frozen=True)
class ManCurve:
    """Memory-sharing curve through the K+1 corner points, t = 0..K."""

    N: int
    K: int
    L: int
    points: tuple[CurvePoint, ...]

    def T(self, M) -> Fraction:
        # every corner has T = N/L + R, so every point between them does too
        return Fraction(self.N, self.L) + self.R(M)

    def R(self, M) -> Fraction:
        """Exact linear interpolation between the corners around M."""
        M, pts = Fraction(M), self.points
        if not pts[0].M <= M <= pts[-1].M:
            raise AnalysisError(f"M={M} outside [{pts[0].M}, {pts[-1].M}]")
        i = min(bisect_right(pts, M, key=lambda p: p.M), len(pts) - 1)
        a, b = pts[i - 1], pts[i]
        return a.R + (b.R - a.R) * (M - a.M) / (b.M - a.M)


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
    """Best cut-set term over u in [1 .. min(floor(N/2), K)], floored at 0.

    Term u is concave in u with its real peak at (N+1) / (2(M+1)), so
    the best u is the floor or the ceiling of that peak, clamped to the
    range.
    """
    N, K = params.N, params.K
    M = Fraction(M)
    if not 1 <= M <= N:
        raise AnalysisError(f"M={M} outside [1, {N}]")
    top = min(N // 2, K)
    peak = (N + 1) / (2 * (M + 1))
    best = {min(max(u, 1), top) for u in (math.floor(peak), math.ceil(peak))}
    return max([Fraction(0)] + [load_term(u, M, params) for u in best])


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
    sup_gap_T: Fraction            # sup of gap_T over the bounded region
    sup_gap_R: Fraction | None     # sup of gap_R there, None with no M < N in it
    peak_M: Fraction | None        # the least M where gap_R reaches sup_gap_R
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
    """The smooth envelope meets each cut-set term exactly at the stated points.

    Between them it stays below the term with no sampling needed:
    4(M+1)(L+2A)N (term_u - f) = 4u(M+1)(N-u+1-uM) - (N-M)(N+M+2) is a
    quadratic in M with leading coefficient 1 - 4u^2 < 0 that vanishes at
    both points, so it is >= 0 between them.
    """
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


def _breakpoints(params, curve):
    """Sorted M in [1, N] where T_ach, R_ach or R_lb may bend, plus M = 2 if K > N.

    Term u is concave in u, so only neighbouring terms take over from
    each other, at M = (N+1)/(2u+1) - 1.
    """
    N, K = params.N, params.K
    cuts = (Fraction(N + 1, 2 * u + 1) - 1 for u in range(1, min(N // 2, K)))
    points = {p.M for p in curve.points} | {M for M in cuts if M >= 1}
    return sorted(points | ({Fraction(2)} if K > N else set()))


def gap_report(params, grid) -> BoundReport:
    """Achievability vs lower bounds across a memory grid, with regime flags.

    Checks each claim once over all M in [1, N], in exact arithmetic: the
    corner points are strictly convex, r(M) = L R_ach(M) <= (N-M)/(M-1),
    the bounds never exceed the achievable values, and the gaps stay
    within 2(1+2A/L) for storage and 12(1+2A/L) for load over the bounded
    region, M in [1, N] or, when K > N, [2, N].  Every curve is linear
    between breakpoints, so the bounds hold if they hold there, and each
    gap peaks at one: gap_T at the region's left end (T_ach falls, T_lb
    is fixed), gap_R at a breakpoint below N.  The report carries both
    suprema and the least M where gap_R peaks; these last two are None
    with no M < N in the region (N = 2 < K).  Rows below M = 2 when K > N
    are only flagged "unbounded"; all rows are plain values at the grid.
    """
    N, K, L, A = params.N, params.K, params.L, params.A
    curve = man_curve(params)
    pts = curve.points
    slopes = [(b.R - a.R) / (b.M - a.M) for a, b in zip(pts, pts[1:])]
    if any(s >= t for s, t in zip(slopes, slopes[1:])):
        raise AnalysisInvariantError("corner points are not already convex")
    # on a segment r = c + kM with k < 0, so (N-M) - r(M)(M-1) is a convex
    # quadratic, least at a corner or at its vertex; it is N - 1 at M = 1
    for a, b, s in zip(pts, pts[1:], slopes):
        k, c = L * s, L * (a.R - s * a.M)
        for M in (b.M, (k - c - 1) / (2 * k)):
            if a.M < M <= b.M and (c + k * M) * (M - 1) > N - M:
                raise AnalysisInvariantError(f"envelope exceeds (N-M)/(M-1) at M={M}")
    _check_envelope_tangency(params)

    gap_limit_T = 2 * (1 + Fraction(2 * A, L))
    gap_limit_R = 12 * (1 + Fraction(2 * A, L))
    T_lb = storage_lower_bound(params)
    left = 2 if K > N else 1
    sup_R = at = None
    for M in _breakpoints(params, curve):
        R, R_lb = curve.R(M), load_lower_bound(M, params)
        if T_lb > Fraction(N, L) + R or R_lb > R:
            raise AnalysisInvariantError(f"a lower bound crossed achievability at M={M}")
        # ascending M, so a strict > keeps the least M of the peak
        if left <= M < N and (sup_R is None or R / R_lb > sup_R):
            sup_R, at = R / R_lb, M
    sup_T = curve.T(left) / T_lb
    if sup_T > gap_limit_T:
        raise AnalysisInvariantError(f"storage gap {sup_T} exceeds the limit")
    if sup_R is not None and sup_R > gap_limit_R:
        raise AnalysisInvariantError(f"load gap {sup_R} exceeds the limit at M={at}")

    rows = []
    for M in map(Fraction, grid):
        R_lb, R_ach = load_lower_bound(M, params), curve.R(M)
        T_ach = Fraction(N, L) + R_ach
        rows.append(BoundRow(M=M, T_ach=T_ach, R_ach=R_ach, T_lb=T_lb, R_lb=R_lb,
                             gap_T=T_ach / T_lb, gap_R=R_ach / R_lb if R_lb else None,
                             regime="unbounded" if (K > N and M < 2) else "bounded"))
    return BoundReport(N=N, K=K, L=L, A=A, gap_limit_T=gap_limit_T,
                       gap_limit_R=gap_limit_R, sup_gap_T=sup_T, sup_gap_R=sup_R,
                       peak_M=at, rows=tuple(rows))
