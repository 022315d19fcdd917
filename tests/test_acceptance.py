"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Every expected value is exact rational arithmetic or an
explicitly stated tolerance; nothing is tuned to the implementation.
"""

import math
import random
import time
from fractions import Fraction

from rsplfr import (
    Codeword,
    EvalPoints,
    HonestPlusConstant,
    MscTriple,
    Scenario,
    SystemParams,
    audit_demand_privacy,
    audit_robustness,
    audit_server_security,
    audit_signal_security,
    brute_force_decode,
    decode,
    default_grid,
    encode,
    gap_report,
    man_pda,
    msc_from_pda,
    parse,
    run,
    storage_lower_bound,
    sweep,
)

TOY = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=6)
MICRO = SystemParams(N=2, K=1, H=2, A=0, I=1, J=2, q=3, B=1)
MICRO_PDA = parse("1")
ROBUST = SystemParams(N=2, K=2, H=5, A=1, I=1, J=4, q=11, B=2)


def test_criterion_1_toy_reproduction():
    """Measured triple (2, 5/2, 1/2), subpacketization 6, exhaustive delivery
    sweep with 50 random demand tuples, all users exact, under 10 seconds."""
    t0 = time.perf_counter()
    sc = Scenario(params=TOY, pda=man_pda(3, 1), demand_samples=50,
                  sweep_j_subsets=True, sweep_adversary_subsets=True,
                  sweep_strategies=True)
    result = sweep(sc)
    elapsed = time.perf_counter() - t0
    # 6 J-subsets x (no adversary + 6 single adversaries) x 4 strategies
    assert result.configurations == 6 * 7 * 4 == 168
    assert result.measured == MscTriple(M=Fraction(2), T=Fraction(5, 2),
                                        R=Fraction(1, 2), subpacketization=6)
    assert result.ok, result.failures[:3]
    assert result.failure_count == 0
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 1: PASS (168 configurations x 50 demands, {elapsed:.2f}s)")


def test_criterion_2_triple_identity_across_the_family():
    """Measured (M, T, R) equals the closed forms exactly for every
    caching-gain array with K <= 8, every t, three library sizes, and
    three redundancy settings; zero tolerance, and T - R = N/L."""
    settings = [  # (A, I, J, H, q), with q the smallest prime above H
        (0, 1, 2, 3, 5),
        (1, 1, 4, 5, 7),
        (2, 3, 17, 20, 23),
    ]
    checked = 0
    for K in range(1, 9):
        for t in range(K + 1):
            arr = man_pda(K, t)
            for A, I, J, H, q in settings:
                L = J - I - 2 * A
                for N in (2, 5, 12):
                    params = SystemParams(N=N, K=K, H=H, A=A, I=I, J=J,
                                          q=q, B=L * arr.F)
                    expected = msc_from_pda(arr, params)
                    result = run(Scenario(params=params, pda=arr))
                    assert result.ok
                    assert result.measured == expected
                    assert result.measured.M == 1 + Fraction(arr.Z * (N - 1), arr.F)
                    assert result.measured.R == Fraction(arr.S, L * arr.F)
                    assert result.measured.T - result.measured.R == Fraction(N, L)
                    assert result.measured.subpacketization == L * arr.F
                    checked += 1
    assert checked == 44 * 3 * 3 == 396
    print(f"criterion 2: PASS ({checked} instances, exact)")


def test_criterion_3_decoder_agrees_with_the_oracle():
    """Production decoder vs support-enumeration oracle: >= 1000 randomized
    instances plus an exhaustive grid; zero disagreements."""
    rng = random.Random("acceptance:decoder-oracle")
    disagreements = 0
    for _ in range(1000):
        q = rng.choice((11, 13))
        k = rng.randint(1, 4)
        J = rng.randint(k, 8)
        points = EvalPoints(q, tuple(rng.sample(range(1, q), J)))
        message = [rng.randrange(q) for _ in range(k)]
        codeword = encode(message, points)
        erase = rng.randint(0, J - k)
        kept = sorted(rng.sample(range(1, J + 1), J - erase))
        radius = (len(kept) - k) // 2
        errors = rng.sample(kept, rng.randint(0, radius))
        received = {}
        for h in kept:
            y = codeword.positions[h]
            if h in errors:
                y = (y + rng.randint(1, q - 1)) % q
            received[h] = y
        got = decode(Codeword(k, received), points, radius)
        oracle = brute_force_decode(Codeword(k, received), points, radius)
        if got != oracle or got != (message, set(errors)):
            disagreements += 1
    assert disagreements == 0

    points = EvalPoints.consecutive(7, 5)
    for a in range(7):
        for b in range(7):
            message = [a, b, 0]
            codeword = encode(message, points)
            for position in range(1, 6):
                for delta in range(7):
                    received = dict(codeword.positions)
                    received[position] = (received[position] + delta) % 7
                    word = Codeword(3, received)
                    got = decode(word, points, 1)
                    oracle = brute_force_decode(word, points, 1)
                    expected_flags = {position} if delta else set()
                    if got != oracle or got != (message, expected_flags):
                        disagreements += 1
    assert disagreements == 0
    print("criterion 3: PASS (1000 randomized + 1715 exhaustive, 0 disagreements)")


def test_criterion_4_exact_security_audits():
    """All three leakage audits report literally zero bits on the micro
    instance, every mutation is strictly positive, under 60 seconds."""
    t0 = time.perf_counter()
    server = audit_server_security(MICRO, MICRO_PDA)
    signal = audit_signal_security(MICRO, MICRO_PDA)
    demand = audit_demand_privacy(MICRO, MICRO_PDA)
    for report in (server, signal, demand):
        assert report.satisfied
        assert report.mi_bits == 0.0

    mutated_server = audit_server_security(MICRO, MICRO_PDA, ("zero-noise",))
    mutated_signal = audit_signal_security(MICRO, MICRO_PDA, ("key-removal",))
    mutated_demand = audit_demand_privacy(MICRO, MICRO_PDA, ("zero-pad",))
    for report in (mutated_server, mutated_signal, mutated_demand):
        assert not report.satisfied
        assert report.mi_bits > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"audits took {elapsed:.1f}s"
    print(f"criterion 4: PASS (0 bits honest, all mutations leak, {elapsed:.1f}s)")


def test_criterion_5_bounds_and_gaps():
    """Across 200 memory points for both library/user mixes: achievability
    dominates the bounds, multiplicative gaps respect 2.8 / 16.8 wherever
    the bounded regime applies, the heavy-user low-memory region is only
    flagged, and the exact spot values hold to 1e-9."""
    gap_limit_T = Fraction(14, 5)    # 2 * (1 + 2A/L) at A=2, L=10
    gap_limit_R = Fraction(84, 5)    # 12 * (1 + 2A/L)
    for N, K in ((10, 100), (100, 10)):
        params = SystemParams(N=N, K=K, H=20, A=2, I=3, J=17)
        assert params.L == 10
        report = gap_report(params, default_grid(params, 200))
        assert len(report.rows) == 200
        assert report.gap_limit_T == gap_limit_T
        assert report.gap_limit_R == gap_limit_R
        t_floor = storage_lower_bound(params)
        assert t_floor == Fraction(N, 14)
        for row in report.rows:
            assert row.R_ach >= row.R_lb
            assert row.T_ach >= t_floor
            expected_regime = "unbounded" if (K > N and row.M < 2) else "bounded"
            assert row.regime == expected_regime
            if row.regime == "bounded":
                assert row.gap_T <= gap_limit_T
                if row.gap_R is not None:
                    assert row.gap_R <= gap_limit_R
        if K > N:
            assert any(r.regime == "unbounded" for r in report.rows)
        else:
            assert all(r.regime == "bounded" for r in report.rows)
        if (N, K) == (100, 10):
            first = report.rows[0]
            assert first.M == 1
            assert math.isclose(float(first.R_ach), 1.0, abs_tol=1e-9)
            assert math.isclose(float(first.R_lb), 810 / 1400, abs_tol=1e-9)
    print("criterion 5: PASS (2 x 200 grid points, gaps within 2.8 / 16.8)")


def test_criterion_6_robust_recovery():
    """Every delivery subset x every single corrupted position x every
    strategy recovers the library and decodes exactly; one corruption
    beyond the budget fails detectably."""
    arr = man_pda(2, 1)
    recovery, decoding = audit_robustness(ROBUST, arr)
    # C(5,4) deliveries x (no adversary + 5 singles) x 4 strategies
    assert recovery.outcomes == 120
    assert recovery.satisfied
    assert decoding.satisfied

    over = Scenario(params=ROBUST, pda=arr, adversaries=(1, 2),
                    strategy=HonestPlusConstant(1),
                    adversary_sizes=(2,), check_recovery=True)
    result = run(over)
    assert not result.ok
    assert result.per_user == (False, False)
    stages = dict(result.stage_counts)
    assert stages.get("decode", 0) >= 1
    assert stages.get("recover", 0) >= 1
    print("criterion 6: PASS (120 configurations exact, excess corruption detected)")
