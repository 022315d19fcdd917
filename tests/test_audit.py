"""Exact leakage audits, their enumeration oracles, and mutation controls.

The micro instance (q=3, two files, one user, two servers) has a joint
outcome space of 3^10 = 59049, small enough to enumerate exactly.  Every
audit must report literal zero leakage on the honest construction, and
each mutation must flip its targeted audit to a strictly positive figure.
The rank audits must equal the enumeration oracles wherever those run.
"""

import hashlib
import math
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

import rsplfr.audit as audit_module
from rsplfr import (
    AuditError,
    AuditReport,
    ConfigError,
    InfeasibleAuditError,
    MUTATIONS,
    ServerStore,
    SystemParams,
    audit_demand_privacy,
    audit_robustness,
    audit_server_security,
    audit_signal_security,
    exact_mi,
    man_pda,
    parse,
    run_audits,
)

MICRO = SystemParams(N=2, K=1, H=2, A=0, I=1, J=2, q=3, B=1)
MICRO_PDA = parse("1")

ROBUST = SystemParams(N=2, K=2, H=5, A=1, I=1, J=4, q=11, B=2)
ROBUST_PDA = man_pda(2, 1)

K2 = SystemParams(N=2, K=2, H=2, A=0, I=1, J=2, q=3, B=2)
K2_PDA = man_pda(2, 1)

TOY = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=6)
TOY_PDA = man_pda(3, 1)

LOG2_3 = math.log2(3)


# ---------- exact_mi ----------


def test_mi_of_independent_uniform_table_is_literal_zero():
    table = {(x, y): 1 for x in range(3) for y in range(3)}
    assert exact_mi(table) == 0.0


def test_mi_detects_scaled_rank_one_counts():
    # non-uniform marginals, still exactly independent
    table = {(0, 0): 2, (0, 1): 4, (1, 0): 1, (1, 1): 2}
    assert exact_mi(table) == 0.0


def test_mi_of_identity_channel_is_log_alphabet():
    table = {(v, v): 1 for v in range(3)}
    assert exact_mi(table) == pytest.approx(LOG2_3, abs=1e-12)


def test_mi_of_one_bit_copy_is_exactly_one():
    assert exact_mi({(0, 0): 1, (1, 1): 1}) == pytest.approx(1.0, abs=1e-12)


def test_mi_of_one_time_pad_is_zero():
    # y = x + k mod 3 with independent uniform k wipes out the secret
    table = {}
    for x in range(3):
        for k in range(3):
            table[(x, (x + k) % 3)] = table.get((x, (x + k) % 3), 0) + 1
    assert exact_mi(table) == 0.0


def test_mi_positive_when_support_is_constrained():
    # missing (1,1) cell makes the variables dependent
    assert exact_mi({(0, 0): 1, (0, 1): 1, (1, 0): 1}) > 0.0


def test_mi_rejects_empty_and_nonpositive_tables():
    with pytest.raises(AuditError):
        exact_mi({})
    with pytest.raises(AuditError):
        exact_mi({(0, 0): 0})
    with pytest.raises(AuditError):
        exact_mi({(0, 0): 3, (1, 1): -1})


# ---------- honest audits on the micro instance ----------


def test_server_storage_leaks_nothing_about_the_library():
    report = audit_server_security(MICRO, MICRO_PDA)
    assert report.satisfied
    assert report.mi_bits == 0.0
    assert report.constraint == "server-security"
    assert report.outcomes == 1458  # 3^6 joint outcomes per single-server table
    assert report.tables == 2
    assert all(mi == 0.0 for _, mi in report.details)
    assert report.witness is None


def test_transmission_leaks_nothing_about_the_library():
    report = audit_signal_security(MICRO, MICRO_PDA)
    assert report.satisfied
    assert report.mi_bits == 0.0
    assert report.outcomes == 3 ** 10
    assert report.tables == 2
    assert dict(report.details) == {"secret=library": 0.0,
                                    "secret=library+demands": 0.0}


def test_servers_and_colluders_learn_nothing_about_demands():
    report = audit_demand_privacy(MICRO, MICRO_PDA)
    assert report.satisfied
    assert report.mi_bits == 0.0
    assert report.outcomes == 3 ** 10
    # one real coalition (empty set) conditioned on each of 3^2 libraries
    assert report.tables == 9
    labels = [label for label, _ in report.details]
    assert labels == ["colluders=[]", "colluders=[1]"]


# ---------- mutations flip their targeted audit ----------


def test_dropping_noise_symbols_exposes_files_to_servers():
    report = audit_server_security(MICRO, MICRO_PDA, mutations=("zero-noise",))
    assert not report.satisfied
    # stores then hold the files verbatim: full 2*log2(3) bits leak
    assert report.mi_bits == pytest.approx(2 * LOG2_3, abs=1e-9)
    assert report.witness is not None
    assert report.witness["mi_bits"] == report.mi_bits


def test_removing_keys_exposes_the_transmission():
    report = audit_signal_security(MICRO, MICRO_PDA, mutations=("key-removal",))
    assert not report.satisfied
    assert report.mi_bits > 0.0
    assert report.witness["secret"] in ("library", "library+demands")


def test_zeroing_blend_vectors_exposes_demands():
    report = audit_demand_privacy(MICRO, MICRO_PDA, mutations=("zero-pad",))
    assert not report.satisfied
    # queries then equal the demand rows: full 2*log2(3) bits leak
    assert report.mi_bits == pytest.approx(2 * LOG2_3, abs=1e-9)
    assert report.witness["colluders"] == []


def test_unmutated_audits_stay_clean_under_other_mutations():
    # zero-pad changes queries, not stores: storage audit still passes
    report = audit_server_security(MICRO, MICRO_PDA, mutations=("zero-pad",))
    assert report.satisfied
    assert report.mi_bits == 0.0


def test_mutation_names_are_checked():
    assert MUTATIONS == ("zero-noise", "key-removal", "zero-pad")
    with pytest.raises(ConfigError):
        audit_server_security(MICRO, MICRO_PDA, mutations=("drop-everything",))
    with pytest.raises(ConfigError):
        run_audits(MICRO, MICRO_PDA, mutations=("zero_noise",))


# ---------- feasibility guard ----------


def test_realistic_instances_are_rejected_as_infeasible():
    # toy signal security would answer 7^24 query-grid points per probe
    # store, and demand privacy would probe each of 7^24 libraries
    with pytest.raises(InfeasibleAuditError, match="would evaluate"):
        audit_signal_security(TOY, TOY_PDA)
    with pytest.raises(InfeasibleAuditError, match="would evaluate"):
        audit_demand_privacy(TOY, TOY_PDA)
    # the oracles count outcomes: about 1.07e38 for toy server security
    with pytest.raises(InfeasibleAuditError, match="would enumerate"):
        audit_module.enumerate_server_security(TOY, TOY_PDA)


def test_toy_server_security_runs_by_rank():
    # 7^45 outcomes per server, but only 49 probe stores to build
    report = audit_server_security(TOY, TOY_PDA)
    assert report.satisfied
    assert report.mi_bits == 0.0
    assert report.outcomes == 6 * 7 ** 45
    assert report.tables == 6


def test_cap_is_adjustable(monkeypatch):
    # the rank audits count probe evaluations before doing any work:
    # 6 units + zero + 2 checks for server security; those 9 stores times
    # 3^4 query-grid points plus 4 + 3 query probes for signal security;
    # 3^2 libraries times 8 + 3 probes for demand privacy
    for audit, work in ((audit_server_security, 9),
                        (audit_signal_security, 736),
                        (audit_demand_privacy, 99)):
        monkeypatch.setattr(audit_module, "CAP", work - 1)
        with pytest.raises(InfeasibleAuditError,
                           match=rf"would evaluate {work} probes \(cap {work - 1}\)"):
            audit(MICRO, MICRO_PDA)
        monkeypatch.setattr(audit_module, "CAP", work)
        assert audit(MICRO, MICRO_PDA).satisfied


def test_demand_privacy_cap_bounds_the_whole_enumeration(monkeypatch):
    # 3^2 libraries x 3^8 outcomes each x one coalition = 59049
    oracle = audit_module.enumerate_demand_privacy
    monkeypatch.setattr(audit_module, "CAP", 59048)
    with pytest.raises(InfeasibleAuditError, match="would enumerate 59049 outcomes"):
        oracle(MICRO, MICRO_PDA)
    monkeypatch.setattr(audit_module, "CAP", 59049)
    assert oracle(MICRO, MICRO_PDA).outcomes == 59049


def test_audit_requires_fixed_sizes():
    free = SystemParams(N=2, K=1, H=2, A=0, I=1, J=2)  # no q, no B
    with pytest.raises(ConfigError):
        audit_server_security(free, MICRO_PDA)


# ---------- exactness and repeated work ----------


def test_count_tables_and_reports_are_pinned(monkeypatch):
    # SHA-256 over the SHA-256 of repr(sorted(table.items())) of every table
    # handed to exact_mi, in call order, and of the reports; both values come
    # from the enumeration that rebuilt queries and answers for every outcome,
    # so skipping repeated work must leave every count and report unchanged.
    # Every audit is pinned on its enumeration oracle, which the rank
    # audit is checked against below.  The report digest was taken again
    # when exact_mi came to derive each figure from one exact rational.
    digests = []
    original = audit_module.exact_mi

    def recording(counts):
        digests.append(hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest())
        return original(counts)

    monkeypatch.setattr(audit_module, "exact_mi", recording)
    reports = [[audit(MICRO, MICRO_PDA, mutations)
                for audit in (audit_module.enumerate_server_security,
                              audit_module.enumerate_signal_security,
                              audit_module.enumerate_demand_privacy)]
               for mutations in ((), ("zero-noise",), ("key-removal",), ("zero-pad",))]
    assert len(digests) == 52
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == (
        "62cf6c5b5f501229c09d3d559a4815505629840d1fbf8015819b68e2bf036c55")
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
        "a0a10f59f28d743c05be200d83bae76334f18f51ce3221925546b5c15cc4eb64")


MUTATION_SUBSETS = [m for r in range(len(MUTATIONS) + 1)
                    for m in combinations(MUTATIONS, r)]

# every micro case, plus the K=2 cases whose oracle runs in under a second;
# the honest and zero-pad server cases and the remaining feasible signal
# and demand cases take 1-9 s each and were compared once (see CHANGES.md)
RANK_CASES = (
    [("micro", kind, m) for kind in ("server", "signal", "demand")
     for m in MUTATION_SUBSETS]
    + [("k2", "server", m) for m in (
        ("zero-noise",), ("key-removal",), ("zero-noise", "key-removal"),
        ("zero-noise", "zero-pad"), ("key-removal", "zero-pad"), MUTATIONS)]
    + [("k2", "signal", MUTATIONS)]
    + [("k2", "demand", m) for m in (("zero-noise", "zero-pad"), MUTATIONS)])

INSTANCES = {"micro": (MICRO, MICRO_PDA), "k2": (K2, K2_PDA)}
RANK_AUDITS = {
    "server": (audit_server_security, audit_module.enumerate_server_security),
    "signal": (audit_signal_security, audit_module.enumerate_signal_security),
    "demand": (audit_demand_privacy, audit_module.enumerate_demand_privacy)}


def _assert_same_figures(got, want):
    """Rank report against oracle report, figures to 9 digits."""
    assert (got.constraint, got.satisfied, got.outcomes, got.tables) == (
        want.constraint, want.satisfied, want.outcomes, want.tables)
    assert round(got.mi_bits, 9) == round(want.mi_bits, 9)
    assert [(label, round(mi, 9)) for label, mi in got.details] == [
        (label, round(mi, 9)) for label, mi in want.details]
    assert (got.witness is None) == (want.witness is None)
    if got.witness is not None:
        got_fields, want_fields = dict(got.witness), dict(want.witness)
        assert round(got_fields.pop("mi_bits"), 9) == round(want_fields.pop("mi_bits"), 9)
        # exact: where I(D; Q) = 0 the two signal figures are the same float
        # in both, so both name "library" (micro with key-removal)
        assert got_fields == want_fields


@pytest.mark.parametrize(
    "instance,kind,mutations", RANK_CASES,
    ids=[f"{i}-{k}-{'+'.join(m) or 'honest'}" for i, k, m in RANK_CASES])
def test_rank_audit_equals_the_enumeration_oracle(instance, kind, mutations):
    params, arr = INSTANCES[instance]
    audit, oracle = RANK_AUDITS[kind]
    _assert_same_figures(audit(params, arr, mutations), oracle(params, arr, mutations))


def test_rank_audit_reports_are_pinned():
    # SHA-256 of repr of all 48 rank-audit reports: micro, then K=2; per
    # instance the mutation subsets in order; per subset server, signal,
    # demand.  Taken when signal security and demand privacy still
    # enumerated every query vector and library, so the certificates
    # must leave every report byte-identical.
    reports = [audit(params, arr, mutations)
               for params, arr in (INSTANCES["micro"], INSTANCES["k2"])
               for mutations in MUTATION_SUBSETS
               for audit in (audit_server_security, audit_signal_security,
                             audit_demand_privacy)]
    assert len(reports) == 48
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
        "8fb15236e017462b9e51d8b85ada7e578f3fc2cf07903f5ee581b07886b84075")


def test_signal_certificate_takes_only_keys_that_stay_put(monkeypatch):
    # keys times 1 + the first query symbol: still linear in the store and
    # affine in the query, and the keys span the library columns at Q = 0,
    # but they vanish wherever that symbol is q - 1, and there the payload
    # carries the library in the clear; the key columns move with Q, so
    # the certificate must fail and the grid give the oracle's figure
    original = audit_module.server_signal

    def fading(params, arr, store, queries):
        f = 1 + queries[0][0]
        return original(params, arr, replace(
            store, coded_keys=tuple(v * f % params.q for v in store.coded_keys)), queries)

    monkeypatch.setattr(audit_module, "server_signal", fading)
    got = audit_signal_security(MICRO, MICRO_PDA)
    assert not got.satisfied
    _assert_same_figures(got, audit_module.enumerate_signal_security(MICRO, MICRO_PDA))


def test_demand_privacy_loop_equals_the_oracle_where_no_certificate_holds(monkeypatch):
    # keyed packets times 1 + the library's first symbol: with zero noise
    # and zero pads the colluders' key columns then move with the library,
    # and their hidden demands lie in no span, so [1] and [2] take the gap
    # at every library ([] sees no cache and takes one gap for all)
    original = audit_module.place_user

    def scaled(params, arr, library, randomness, k, p):
        cache = original(params, arr, library, randomness, k, p)
        f = 1 + library.files[0][0]
        return replace(cache, keys={j: tuple(v * f % params.q for v in run)
                                    for j, run in cache.keys.items()})

    monkeypatch.setattr(audit_module, "place_user", scaled)
    builds = Counter()
    build_storage = audit_module.build_storage

    def counting(params, arr, library, randomness):
        builds[library] += 1
        return build_storage(params, arr, library, randomness)

    monkeypatch.setattr(audit_module, "build_storage", counting)
    mutations = ("zero-noise", "zero-pad")
    got = audit_demand_privacy(K2, K2_PDA, mutations)
    # every one of the 3^4 libraries, each with its 6 + 3 probes, once
    assert len(builds) == 81
    assert set(builds.values()) == {9}
    _assert_same_figures(got, audit_module.enumerate_demand_privacy(K2, K2_PDA, mutations))
    assert round(got.mi_bits, 5) == 6.33985


def _affine(function, shift):
    def shifted(*args, **kwargs):
        return shift(function(*args, **kwargs))
    return shifted


def test_rank_audits_refuse_affine_stores(monkeypatch):
    # every stored symbol + 1: f(0) != 0, so the columns cannot be trusted
    def plus_one(stores):
        return [ServerStore(st.h, tuple((v + 1) % 3 for v in st.coded_subfiles),
                            tuple((v + 1) % 3 for v in st.coded_keys))
                for st in stores]

    monkeypatch.setattr(audit_module, "build_storage",
                        _affine(audit_module.build_storage, plus_one))
    with pytest.raises(AuditError, match="build_storage is not linear"):
        audit_server_security(MICRO, MICRO_PDA)
    with pytest.raises(AuditError, match="build_storage is not linear"):
        audit_signal_security(MICRO, MICRO_PDA)


def test_rank_audit_refuses_affine_signals(monkeypatch):
    def plus_one(answer):
        return tuple((v + 1) % 3 for v in answer)

    monkeypatch.setattr(audit_module, "server_signal",
                        _affine(audit_module.server_signal, plus_one))
    with pytest.raises(AuditError, match="server_signal is not linear"):
        audit_signal_security(MICRO, MICRO_PDA)
    assert audit_server_security(MICRO, MICRO_PDA).satisfied


def test_rank_demand_audit_refuses_non_affine_caches(monkeypatch):
    # squaring the cached blend vector agrees with it on unit vectors only
    def squared(cache):
        return replace(cache, p=tuple(v * v % 3 for v in cache.p))

    monkeypatch.setattr(audit_module, "place_user",
                        _affine(audit_module.place_user, squared))
    with pytest.raises(AuditError, match="place_user is not affine"):
        audit_demand_privacy(MICRO, MICRO_PDA)


def test_rank_audits_refuse_non_linear_queries(monkeypatch):
    def squared(query):
        return tuple(v * v % 3 for v in query)

    monkeypatch.setattr(audit_module, "make_query",
                        _affine(audit_module.make_query, squared))
    with pytest.raises(AuditError, match="make_query is not linear"):
        audit_signal_security(MICRO, MICRO_PDA)
    with pytest.raises(AuditError, match="make_query is not affine"):
        audit_demand_privacy(MICRO, MICRO_PDA)


def test_signal_audit_refuses_queries_that_miss_vectors(monkeypatch):
    # still linear, but no query has a nonzero last symbol, so the mean
    # over the query vectors would not be the mean over (blends, demands)
    def last_zeroed(query):
        return query[:-1] + (0,)

    monkeypatch.setattr(audit_module, "make_query",
                        _affine(audit_module.make_query, last_zeroed))
    with pytest.raises(AuditError, match="make_query does not reach every vector of F_3"):
        audit_signal_security(MICRO, MICRO_PDA)


@pytest.mark.parametrize("instance", ["micro", "k2"])
def test_production_audits_never_tabulate(monkeypatch, instance):
    def refuse(counts):
        raise AssertionError("exact_mi is for the enumeration oracles only")

    monkeypatch.setattr(audit_module, "exact_mi", refuse)
    reports = run_audits(*INSTANCES[instance])
    assert len(reports) == 5
    assert all(r.satisfied for r in reports)


def _count_calls(monkeypatch, name):
    calls = [0]
    original = getattr(audit_module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(audit_module, name, counting)
    return calls


def test_queries_and_answers_are_built_once(monkeypatch):
    # queries are built only for I(D; Q)'s 4 unit + zero + 2 check probes
    # = 7.  Honest, the certificate answers its probe query vectors, 2
    # units, zero and 2 checks, of which the second is the unit (0, 1),
    # once per probe store and server:
    # 4 x (6 unit vectors + zero + 2 random checks) x 2 servers = 72
    queries = _count_calls(monkeypatch, "make_query")
    answers = _count_calls(monkeypatch, "server_signal")
    audit_signal_security(MICRO, MICRO_PDA)
    assert queries[0] == 7
    assert answers[0] == 72
    # without keys the certificate fails, and the grid answers each of the
    # 3^2 query vectors once, the probed ones included:
    # 9 x (4 unit vectors + zero + 2 checks) x 2 servers = 126
    answers[0] = 0
    assert not audit_signal_security(MICRO, MICRO_PDA, ("key-removal",)).satisfied
    assert answers[0] == 126
    queries[0] = 0
    audit_module.enumerate_demand_privacy(MICRO, MICRO_PDA)
    assert queries[0] == 81


def test_demand_privacy_builds_only_the_probe_libraries(monkeypatch):
    # every coalition is decided from the 2 unit libraries, zero and 2
    # checks, of which the second is the unit (0, 1), each built once:
    # 4 libraries x (8 unit probes + zero + 2 checks) = 44
    stores = _count_calls(monkeypatch, "build_storage")
    assert audit_demand_privacy(MICRO, MICRO_PDA).satisfied
    assert stores[0] == 44


def test_demand_privacy_builds_the_stores_once_per_outcome(monkeypatch):
    # all three mutations leave no randomness: 3^4 (library) outcomes,
    # shared by the three coalitions that hide a demand (243 builds before)
    stores = _count_calls(monkeypatch, "build_storage")
    report = audit_module.enumerate_demand_privacy(K2, K2_PDA, MUTATIONS)
    assert stores[0] == 81
    assert (round(report.mi_bits, 5), report.outcomes, report.tables) == (6.33985, 19683, 243)
    assert [(name, round(mi, 5)) for name, mi in report.details] == [
        ("colluders=[]", 6.33985), ("colluders=[1]", 3.16993),
        ("colluders=[2]", 3.16993), ("colluders=[1, 2]", 0.0)]
    assert report.witness == {"colluders": [], "library": [0, 0, 0, 0],
                              "mi_bits": report.mi_bits}


# ---------- robustness replay ----------


def test_robustness_replay_covers_every_configuration():
    recovery, decoding = audit_robustness(ROBUST, ROBUST_PDA)
    for report in (recovery, decoding):
        assert report.satisfied
        assert report.mi_bits is None
        # C(5,4) deliveries x (1 + 5) adversary sets x 4 strategies
        assert report.outcomes == 120
        assert report.witness is None
    assert recovery.constraint == "robust-recovery"
    assert decoding.constraint == "robust-decoding"


def test_run_audits_returns_all_reports_in_order():
    reports = run_audits(MICRO, MICRO_PDA)
    assert [r.constraint for r in reports] == [
        "server-security", "signal-security", "demand-privacy",
        "robust-recovery", "robust-decoding"]
    assert all(r.satisfied for r in reports)
    trimmed = run_audits(MICRO, MICRO_PDA, robustness=False)
    assert len(trimmed) == 3


# ---------- report formatting ----------


def test_report_line_formats():
    ok = AuditReport(constraint="server-security", satisfied=True, mi_bits=0.0,
                     outcomes=1458, tables=2, details=())
    assert ok.line() == "server-security: OK mi_bits=0 (1458 outcomes)"
    bad = AuditReport(constraint="demand-privacy", satisfied=False,
                      mi_bits=1.5, outcomes=9, tables=1, details=())
    assert bad.line() == "demand-privacy: VIOLATED mi_bits=1.5 (9 outcomes)"
    replay = AuditReport(constraint="robust-recovery", satisfied=True,
                         mi_bits=None, outcomes=120, tables=1, details=())
    assert replay.line() == "robust-recovery: OK (120 outcomes)"
