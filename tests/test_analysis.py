"""Achievable triples, memory-sharing curve, converse bounds, gap report."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from rsplfr import analysis
from rsplfr.analysis import (AnalysisError, AnalysisInvariantError, ManCurve,
                             MscTriple, default_grid, f_bound, gap_report,
                             load_lower_bound, load_term, man_curve,
                             msc_from_pda, storage_lower_bound)
from rsplfr.cli import main
from rsplfr.pda import man_pda, validate
from rsplfr.protocol import SystemParams

TOY = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=6)
WIDE_USERS = SystemParams(N=10, K=100, H=20, A=2, I=3, J=17)
WIDE_FILES = SystemParams(N=100, K=10, H=20, A=2, I=3, J=17)


def test_toy_array_triple():
    triple = msc_from_pda(man_pda(3, 1), TOY)
    assert triple == MscTriple(M=Fraction(2), T=Fraction(5, 2),
                               R=Fraction(1, 2), subpacketization=6)


def test_family_triple_with_ten_users():
    params = SystemParams(N=100, K=10, H=20, A=2, I=3, J=17)
    triple = msc_from_pda(man_pda(10, 1), params)
    assert triple.M == Fraction(109, 10)
    assert triple.T == Fraction(1045, 100)
    assert triple.R == Fraction(45, 100)


def test_all_star_array_costs_full_memory_and_no_load():
    params = SystemParams(N=5, K=4, H=6, A=1, I=1, J=5, q=7)
    triple = msc_from_pda(man_pda(4, 4), params)
    assert triple.M == 5
    assert triple.R == 0
    assert triple.T == Fraction(5, 2)


def test_storage_minus_load_is_constant_across_the_family():
    params = SystemParams(N=12, K=6, H=20, A=2, I=3, J=17, q=23)
    for t in range(7):
        triple = msc_from_pda(man_pda(6, t), params)
        assert triple.T - triple.R == Fraction(params.N, params.L)


def test_curve_corners_match_concrete_arrays():
    for N in (2, 5):
        params = SystemParams(N=N, K=5, H=5, A=1, I=1, J=4, q=11)
        curve = man_curve(params)
        for t in range(6):
            triple = msc_from_pda(man_pda(5, t), params)
            point = curve.points[t]
            assert (point.M, point.T, point.R) == (triple.M, triple.T, triple.R)


def test_curve_interpolates_between_corners():
    params = SystemParams(N=4, K=2, H=5, A=1, I=1, J=4, q=11)
    curve = man_curve(params)
    # corners at M = 1, 2.5, 4
    mid = Fraction(7, 4)
    lo, hi = curve.points[0], curve.points[1]
    lam = (mid - lo.M) / (hi.M - lo.M)
    assert curve.R(mid) == lo.R + lam * (hi.R - lo.R)
    assert curve.T(mid) == curve.R(mid) + Fraction(4, 1)


def test_curve_rejects_memory_outside_range():
    curve = man_curve(SystemParams(N=4, K=2, H=5, A=1, I=1, J=4))
    with pytest.raises(AnalysisError):
        curve.R(Fraction(1, 2))
    with pytest.raises(AnalysisError):
        curve.T(5)


def test_storage_lower_bound_value():
    assert storage_lower_bound(WIDE_FILES) == Fraction(50, 7)
    assert storage_lower_bound(TOY) == Fraction(1)


def test_load_lower_bound_spot_value():
    # best cut over u <= min(N//2, K); at M=1 the u=10 term wins
    assert load_term(10, 1, WIDE_FILES) == Fraction(810, 1400)
    assert load_lower_bound(Fraction(1), WIDE_FILES) == Fraction(81, 140)


def test_load_lower_bound_zero_only_at_full_memory():
    assert load_lower_bound(Fraction(WIDE_FILES.N), WIDE_FILES) == 0
    grid = default_grid(WIDE_FILES, 40)
    for M in grid[:-1]:
        assert load_lower_bound(M, WIDE_FILES) > 0


def test_load_lower_bound_domain_checked():
    with pytest.raises(AnalysisError):
        load_lower_bound(Fraction(1, 2), WIDE_FILES)
    with pytest.raises(AnalysisError):
        load_lower_bound(WIDE_FILES.N + 1, WIDE_FILES)


def _every_term_lower_bounds(M, params):
    # the closed form's oracle: entry top is the best of cut-set terms
    # u = 1..top, floored at 0, for every top up to N/2 (no term reads K)
    best = [Fraction(0)]
    for u in range(1, params.N // 2 + 1):
        best.append(max(best[-1], load_term(u, M, params)))
    return best


def test_load_lower_bound_closed_form_matches_every_term():
    for N in range(2, 31):
        family = [SystemParams(N=N, K=K, H=5, A=1, I=1, J=4) for K in range(1, 31)]
        for i in range(41):
            M = 1 + Fraction(i * (N - 1), 40)
            best = _every_term_lower_bounds(M, family[0])
            for params in family:
                assert load_lower_bound(M, params) == best[min(N // 2, params.K)], \
                    (N, params.K, M)


def test_smooth_minorant_touches_the_cut_terms():
    params = WIDE_USERS  # N=10: tangency of the u=2 term at M = 6/5
    M = Fraction(6, 5)
    expected = Fraction(11 * 2 * 3, 14 * 10 * 5)
    assert f_bound(M, params) == expected
    assert load_term(2, M, params) == expected
    assert load_lower_bound(M, params) == expected
    # with u free up to N/2 the smooth curve sits below the best cut term
    for M in default_grid(params, 23):
        assert f_bound(M, params) <= load_lower_bound(M, params)
    # with u capped well below N/2 it can rise above the best term
    assert f_bound(1, WIDE_FILES) > load_lower_bound(1, WIDE_FILES)


def test_default_grid_spans_the_memory_range():
    grid = default_grid(WIDE_USERS, 200)
    assert len(grid) == 200
    assert grid[0] == 1
    assert grid[-1] == WIDE_USERS.N
    assert all(grid[i] < grid[i + 1] for i in range(199))


def test_gap_report_rows_and_limits():
    report = gap_report(WIDE_FILES, default_grid(WIDE_FILES, 60))
    assert float(report.gap_limit_T) == 2.8
    assert float(report.gap_limit_R) == 16.8
    assert len(report.rows) == 60
    for row in report.rows:
        assert row.T_ach - row.R_ach == Fraction(WIDE_FILES.N, WIDE_FILES.L)
        assert row.T_ach >= row.T_lb
        assert row.R_ach >= row.R_lb
        assert row.regime == "bounded"
        if row.R_lb == 0:
            assert row.M == WIDE_FILES.N and row.gap_R is None
        else:
            assert row.gap_R == row.R_ach / row.R_lb
            assert row.gap_R <= report.gap_limit_R
        assert row.gap_T == row.T_ach / row.T_lb <= report.gap_limit_T


def test_gap_report_flags_low_memory_when_users_exceed_files():
    report = gap_report(WIDE_USERS, default_grid(WIDE_USERS, 60))
    flags = {row.regime for row in report.rows}
    assert flags == {"bounded", "unbounded"}
    for row in report.rows:
        assert (row.regime == "unbounded") == (row.M < 2)
        if row.regime == "bounded" and row.gap_R is not None:
            assert row.gap_R <= report.gap_limit_R
            assert row.gap_T <= report.gap_limit_T


def test_gap_report_csv_shape():
    report = gap_report(WIDE_FILES, default_grid(WIDE_FILES, 10))
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "M,T_ach,R_ach,T_lb,R_lb,gap_T,gap_R,regime_flag"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[2]) == 1.0          # R_ach(1)
    assert abs(float(first[4]) - 810 / 1400) < 1e-9
    last = lines[-1].split(",")
    assert float(last[0]) == 100.0
    assert last[6] == "nan"                # no load gap at full memory


def test_curve_load_never_exceeds_the_sharing_ratio():
    # r(M) <= (N - M)/(M - 1) for M > 1, scaled by 1/L in the load
    params = WIDE_USERS
    curve = man_curve(params)
    for M in default_grid(params, 17)[1:]:
        if M == 1:
            continue
        r = curve.R(M) * params.L
        assert r <= Fraction(params.N - M, M - 1)


# ---------- exact gap suprema ----------


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _brute_supremum(params):
    """(sup gap_R, least M reaching it) over the bounded region, read at
    the corners and at every crossing of two cut-set terms."""
    N, K = params.N, params.K
    left = 2 if K > N else 1
    top = min(N // 2, K)
    points = {1 + Fraction(t * (N - 1), K) for t in range(K + 1)} | {Fraction(left)}
    points |= {Fraction(N + 1, u + v) - 1
               for u in range(1, top + 1) for v in range(u + 1, top + 1)}
    curve = man_curve(params)
    gaps = [(curve.R(M) / load_lower_bound(M, params), M)
            for M in sorted(points) if left <= M < N]
    return max(gaps, key=lambda g: g[0], default=(None, None))


def _suprema(report):
    return report.sup_gap_T, report.sup_gap_R, report.peak_M


def test_gap_supremum_matches_every_crossing_on_a_small_family():
    # one report per (N, K), its grid rows and its suprema together
    for N in range(2, 21):
        for K in range(1, 21):
            params = SystemParams(N=N, K=K, H=5, A=1, I=1, J=4)
            report = gap_report(params, default_grid(params, 50))
            sup_T, sup_R, at = _suprema(report)
            assert (sup_R, at) == _brute_supremum(params), (N, K)
            for row in report.rows:
                if row.regime == "bounded":
                    assert row.gap_T <= sup_T, (N, K, row.M)
                    assert row.gap_R is None or row.gap_R <= sup_R, (N, K, row.M)
            if K <= N:
                assert report.rows[0].gap_T == sup_T


def test_gap_supremum_pins_the_committed_tradeoff_configs():
    pins = [(WIDE_FILES, (Fraction(77, 50), Fraction(28000, 8181), Fraction(96, 5))),
            (WIDE_USERS, (Fraction(21308, 8775), Fraction(18046, 1755), Fraction(2)))]
    for params, pinned in pins:
        # the suprema do not depend on the grid, and need none
        bare = gap_report(params, ())
        assert bare.rows == () and _suprema(bare) == pinned
        report = gap_report(params, default_grid(params, 200))
        assert _suprema(report) == pinned
        # the default 200-point grid misses the load peak
        grid_peak = max(r.gap_R for r in report.rows if r.regime == "bounded" and r.gap_R)
        assert grid_peak < report.sup_gap_R


def test_gap_supremum_without_a_load_gap():
    # K > N = 2: the bounded region is M = 2 = N alone, where R_lb = 0
    params = SystemParams(N=2, K=3, H=5, A=1, I=1, J=4)
    assert _suprema(gap_report(params, ())) == (Fraction(3), None, None)
    report = gap_report(params, default_grid(params, 5))
    assert _suprema(report) == (Fraction(3), None, None)
    assert [r.regime for r in report.rows] == ["unbounded"] * 4 + ["bounded"]
    assert report.rows[-1].gap_R is None


_f_bound = analysis.f_bound
_load_lower_bound = analysis.load_lower_bound
_man_curve = analysis.man_curve


def _reshaped_curve(load):
    """man_curve with load(t, R) in place of each corner's R."""
    def curve(params):
        c = _man_curve(params)
        return replace(c, points=tuple(replace(p, R=load(p.t, p.R)) for p in c.points))
    return curve


# on WIDE_FILES the t = 0, 1, 2 corners have R = 1, 9/20, 4/15
BROKEN = {
    "collinear_corners": (
        "man_curve", _reshaped_curve(lambda t, R: Fraction(19, 30) if t == 1 else R),
        "not already convex"),
    "raised_corner": (
        "man_curve", _reshaped_curve(lambda t, R: Fraction(2, 3) if t == 1 else R),
        "not already convex"),
    "load_above_the_sharing_ratio": (
        "man_curve", _reshaped_curve(lambda t, R: 3 * R), "envelope exceeds"),
    "envelope_off_the_cut_terms": (
        "f_bound", lambda M, params: 2 * _f_bound(M, params), "tangency"),
    "storage_bound_above_achievability": (
        "storage_lower_bound", lambda params: Fraction(10 ** 6), "crossed achievability"),
    "load_bound_above_achievability": (
        "load_lower_bound", lambda M, params: 2 * _load_lower_bound(M, params),
        "crossed achievability"),
    "storage_gap_over_the_limit": (
        "storage_lower_bound", lambda params: Fraction(1, 10 ** 6), "storage gap"),
    "load_gap_over_the_limit": (
        "load_lower_bound", lambda M, params: _load_lower_bound(M, params) / 100,
        "load gap"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_a_broken_invariant_fails_the_report_and_the_curve_command(case, monkeypatch,
                                                                   capsys):
    name, broken, message = BROKEN[case]
    monkeypatch.setattr(analysis, name, broken)
    for grid in (default_grid(WIDE_FILES, 11), ()):  # a report with no rows checks too
        with pytest.raises(AnalysisInvariantError, match=message):
            gap_report(WIDE_FILES, grid)
    assert main(["curve", "--config", str(CONFIGS / "tradeoff_n100_k10.json")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
