"""End-to-end sweeps over random placement delivery arrays, not only MAN's.

Every other end-to-end test runs ``man_pda`` or the 1x1 micro array.
Here hypothesis draws small valid arrays of other shapes, and a sweep
over every J-subset, every adversary set within the budget and every
strategy, with library recovery, must be exact and measure the triple
the array's formulas give.  Within the budget and past it, a sweep must
also report what the step-by-step replay of ``oracles`` reports.
"""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import replay  # noqa: E402
from rsplfr import sim  # noqa: E402
from rsplfr.analysis import msc_from_pda  # noqa: E402
from rsplfr.pda import STAR, validate  # noqa: E402
from rsplfr.protocol import SystemParams  # noqa: E402
from rsplfr.sim import Scenario, sweep  # noqa: E402

# K and B are set per array: K from its width, B = L * F
INSTANCES = (SystemParams(N=2, K=1, H=5, A=1, I=1, J=4, q=11),   # L = 1
             SystemParams(N=4, K=1, H=6, A=1, I=1, J=5, q=7))    # L = 2


@st.composite
def pdas(draw):
    """A valid array with at most 5 columns and 6 rows.

    Every column gets the same number of stars, in drawn rows.  The
    ordinary cells, in a drawn order, then join the first symbol they
    can share under conditions A and B, or start a new one.
    """
    K = draw(st.integers(1, 5))
    F = draw(st.integers(1, 6))
    Z = draw(st.integers(0, F - 1))
    grid = [[0] * K for _ in range(F)]
    for k in range(K):
        for j in draw(st.permutations(range(F)))[:Z]:
            grid[j][k] = STAR
    cells = [(j, k) for j in range(F) for k in range(K) if grid[j][k] is not STAR]
    symbols = []
    for j, k in draw(st.permutations(cells)):
        for cells_of in symbols:
            if all(j != j2 and k != k2 and grid[j][k2] is STAR and grid[j2][k] is STAR
                   for j2, k2 in cells_of):
                cells_of.append((j, k))
                break
        else:
            symbols.append([(j, k)])
    for s, cells_of in enumerate(symbols, start=1):
        for j, k in cells_of:
            grid[j][k] = s
    return validate(grid)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(pdas(), st.sampled_from(INSTANCES))
def test_random_pdas_sweep_exactly(arr, base):
    params = replace(base, K=arr.K, B=base.L * arr.F)
    sc = Scenario(params=params, pda=arr, sweep_j_subsets=True,
                  sweep_adversary_subsets=True, sweep_strategies=True,
                  check_recovery=True)
    result = sweep(sc)
    assert result.ok, result.failures[:3]
    assert result.measured == msc_from_pda(arr, params)


@settings(max_examples=16, derandomize=True, database=None, deadline=None)
@given(pdas(), st.sampled_from(INSTANCES), st.sampled_from([7, 257]),
       st.sampled_from([(0, 1), (2,)]))
def test_random_pda_sweeps_report_what_a_step_by_step_replay_reports(arr, base, q, sizes):
    # two adversaries are past the radius of one: deliveries and sets fail
    params = replace(base, K=arr.K, B=base.L * arr.F, q=q)
    sc = Scenario(params=params, pda=arr, sweep_j_subsets=True,
                  sweep_adversary_subsets=True, sweep_strategies=True,
                  adversary_sizes=sizes, demand_samples=2, check_recovery=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_WITNESS_CAP", 10 ** 9)  # every witness kept
        result = sweep(sc)
    witnesses, stage_counts = replay(sc)
    assert list(result.failures) == witnesses
    assert result.failure_count == len(witnesses)
    assert result.stage_counts == stage_counts
