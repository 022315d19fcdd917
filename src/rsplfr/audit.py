"""Exhaustive information-theoretic audits over tiny instances.

Each audit enumerates every equally likely joint outcome (library,
randomness, blend vectors, demands), tabulates integer counts of
(secret, observation) pairs, and reports mutual information in bits.
Independence is detected by an exact integer rank-one test on the
count table, so a passing audit returns a literal 0.0 rather than a
small float.  Priors are uniform by construction; there is no hook
for weighting outcomes.

Corruption by the bounded adversaries cannot make these leakage
figures worse: every deterministic strategy is a function of the
honest signal, and the randomized one adds noise drawn independently
of all secrets.  The audits therefore enumerate honest transcripts.

Repeated work is left out, never outcomes: queries depend only on
(blends, demands), so they are built once per pair before the library
and randomness loops, and since ``server_signal`` is a pure function of
(store, queries), each server answers each distinct query vector once
per (library, randomness) outcome.  The demand-privacy audit builds the
stores once per (library, randomness) outcome for all coalitions.
Every outcome is still counted, in the original order.

Mutations deliberately break one defense at a time by pinning its
random symbols to zero ("zero-noise", "key-removal", "zero-pad"),
which shrinks the enumeration instead of changing protocol code.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product

from . import sim
from .pda import Pda
from .protocol import (ConfigError, Library, ProtocolError, Randomness, SystemParams,
                       _dims, build_storage, make_query, place_user, server_signal)


class AuditError(Exception):
    pass


class InfeasibleAuditError(AuditError):
    """The joint outcome space is too large to enumerate exactly."""


MUTATIONS = ("zero-noise", "key-removal", "zero-pad")


def _check_mutations(mutations) -> frozenset:
    muts = frozenset(mutations)
    for m in muts:
        if m not in MUTATIONS:
            raise ConfigError(f"unknown mutation {m!r}; choose from {list(MUTATIONS)}")
    return muts


def exact_mi(counts: dict) -> float:
    """Mutual information in bits of a {(secret, observation): count} table."""
    total = sum(counts.values())
    if total <= 0:
        raise AuditError("empty count table")
    rows: Counter = Counter()
    cols: Counter = Counter()
    for (x, y), c in counts.items():
        if c <= 0:
            raise AuditError("counts must be positive")
        rows[x] += c
        cols[y] += c
    # exact independence <=> every cell satisfies c*total == row*col;
    # missing cells cannot hide here: the row sums force full support
    if all(c * total == rows[x] * cols[y] for (x, y), c in counts.items()):
        return 0.0
    mi = 0.0
    for (x, y), c in counts.items():
        mi += (c / total) * math.log2(c * total / (rows[x] * cols[y]))
    return mi


@dataclass(frozen=True)
class AuditReport:
    constraint: str
    satisfied: bool
    mi_bits: float | None            # worst table, None for replay-style checks
    outcomes: int                    # joint outcomes enumerated or configs replayed
    tables: int
    details: tuple[tuple[str, float], ...]
    witness: dict | None = None

    def line(self) -> str:
        verdict = "OK" if self.satisfied else "VIOLATED"
        figure = "" if self.mi_bits is None else f" mi_bits={self.mi_bits:.6g}"
        return f"{self.constraint}: {verdict}{figure} ({self.outcomes} outcomes)"


@dataclass(frozen=True)
class _Space:
    """Flat enumeration dimensions for one instance, after mutations."""
    params: SystemParams
    arr: Pda
    sub_len: int
    pkt: int
    n_w: int
    n_delta: int
    n_vee: int
    n_lambda: int
    n_p: int
    n_d: int


def _space(params: SystemParams, arr: Pda, muts: frozenset) -> _Space:
    try:
        sub_len, pkt = _dims(params, arr)
    except ProtocolError as exc:
        raise ConfigError(str(exc)) from exc
    return _Space(
        params=params, arr=arr, sub_len=sub_len, pkt=pkt,
        n_w=params.N * params.B,
        n_delta=0 if "zero-noise" in muts else params.N * params.I * sub_len,
        n_vee=0 if "key-removal" in muts else params.L * arr.S * pkt,
        n_lambda=0 if "key-removal" in muts else params.I * arr.S * pkt,
        n_p=0 if "zero-pad" in muts else params.K * params.N,
        n_d=params.K * params.N,
    )


def _guard(space: _Space, dims: int, constraint: str, cap: int,
           copies: int = 1) -> int:
    """Outcomes of `copies` enumerations of q^dims each, refused above cap."""
    count = space.params.q ** dims * copies
    if count > cap:
        raise InfeasibleAuditError(
            f"{constraint} would enumerate {count} outcomes (cap {cap})")
    return count


def _rows(flat, rows: int, cols: int):
    if not flat:
        flat = (0,) * (rows * cols)
    return [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]


def _nest(flat, d1: int, d2: int, d3: int):
    if not flat:
        flat = (0,) * (d1 * d2 * d3)
    it = iter(flat)
    return tuple(tuple(tuple(next(it) for _ in range(d3))
                       for _ in range(d2)) for _ in range(d1))


def _library(space: _Space, wflat) -> Library:
    B = space.params.B
    return Library(tuple(tuple(wflat[n * B:(n + 1) * B])
                         for n in range(space.params.N)))


def _randomness(space: _Space, uflat) -> Randomness:
    p, arr = space.params, space.arr
    a = space.n_delta
    b = a + space.n_vee
    deltas = _nest(uflat[:a], p.N, p.I, space.sub_len)
    vees = _nest(uflat[a:b], p.L, arr.S, space.pkt)
    lambdas = _nest(uflat[b:], p.I, arr.S, space.pkt)
    return Randomness(deltas=deltas, vees=vees, lambdas=lambdas)


def _contents(store) -> tuple:
    """A server store flattened: its coded subfiles, then its coded keys."""
    return (tuple(chain.from_iterable(store.coded_subfiles))
            + tuple(chain.from_iterable(store.coded_keys)))


def _cached(cache) -> tuple:
    """A user cache flattened: blend vector, star-row packets, keyed packets."""
    return (cache.p
            + tuple(v for j in sorted(cache.uncoded) for per_file in cache.uncoded[j]
                    for packet in per_file for v in packet)
            + tuple(v for j in sorted(cache.keys) for packet in cache.keys[j]
                    for v in packet))


def _demands(dflat, users, N: int) -> tuple:
    """The demand rows of the given users (1-based), concatenated."""
    return tuple(v for k in users for v in dflat[(k - 1) * N:k * N])


def _query_grid(space: _Space) -> list:
    """Every blend outcome with its demand outcomes and their queries.

    Queries depend only on (blends, demands), so the audits build them
    here once instead of once per (library, randomness) outcome.
    Returns [(ps, [(dflat, queries, flat query values), ...]), ...] in
    enumeration order, which keeps the count tables' insertion order.
    """
    params, q = space.params, space.params.q
    K, N = params.K, params.N
    grid = []
    for pflat in product(range(q), repeat=space.n_p):
        ps = _rows(pflat, K, N)
        rows = []
        for dflat in product(range(q), repeat=space.n_d):
            ds = _rows(dflat, K, N)
            queries = tuple(make_query(params, ds[k], ps[k]) for k in range(K))
            rows.append((dflat, queries,
                         tuple(chain.from_iterable(queries))))
        grid.append((ps, rows))
    return grid


def _u_space(space: _Space):
    q = space.params.q
    return product(range(q), repeat=space.n_delta + space.n_vee + space.n_lambda)


def audit_server_security(params: SystemParams, arr: Pda, mutations=(),
                          cap: int = 2_000_000) -> AuditReport:
    """Any set of at most I server stores must be independent of the library."""
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    per_table = _guard(space, space.n_w + space.n_delta + space.n_vee
                       + space.n_lambda, "server-security", cap)
    subsets = list(combinations(range(1, params.H + 1), params.I))
    tables = {T: {} for T in subsets}
    for wflat in product(range(q), repeat=space.n_w):
        library = _library(space, wflat)
        for uflat in _u_space(space):
            stores = build_storage(params, arr, library, _randomness(space, uflat))
            zed = [_contents(st) for st in stores]
            for T in subsets:
                key = (wflat, tuple(zed[h - 1] for h in T))
                tables[T][key] = tables[T].get(key, 0) + 1
    details = []
    worst = 0.0
    witness = None
    for T in subsets:
        mi = exact_mi(tables[T])
        details.append((f"servers={list(T)}", mi))
        if mi > worst:
            worst = mi
            witness = {"servers": list(T), "mi_bits": mi}
    return AuditReport(constraint="server-security", satisfied=worst == 0.0,
                       mi_bits=worst, outcomes=per_table * len(subsets),
                       tables=len(subsets), details=tuple(details), witness=witness)


def audit_signal_security(params: SystemParams, arr: Pda, mutations=(),
                          cap: int = 2_000_000) -> AuditReport:
    """Queries plus every server's payload must be independent of the library.

    A second, stronger table checks the pair (library, demands) against the
    same observation, so the transmission leaks neither content nor intent.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    total = _guard(space, space.n_w + space.n_delta + space.n_vee
                   + space.n_lambda + space.n_p + space.n_d,
                   "signal-security", cap)
    table: dict = {}
    strong: dict = {}
    grid = _query_grid(space)
    for wflat in product(range(q), repeat=space.n_w):
        library = _library(space, wflat)
        for uflat in _u_space(space):
            stores = build_storage(params, arr, library, _randomness(space, uflat))
            # server_signal is a pure function of (store, queries): answer
            # each distinct query vector once within this outcome
            answers: dict = {}
            for _ps, rows in grid:
                for dflat, queries, qvals in rows:
                    payloads = answers.get(qvals)
                    if payloads is None:
                        payloads = answers[qvals] = tuple(
                            tuple(chain.from_iterable(
                                server_signal(params, arr, st, queries).payload))
                            for st in stores)
                    obs = (qvals, payloads)
                    key = (wflat, obs)
                    table[key] = table.get(key, 0) + 1
                    skey = ((wflat, dflat), obs)
                    strong[skey] = strong.get(skey, 0) + 1
    mi_main = exact_mi(table)
    mi_strong = exact_mi(strong)
    worst = max(mi_main, mi_strong)
    witness = None
    if worst > 0.0:
        which = "library" if mi_main >= mi_strong else "library+demands"
        witness = {"secret": which, "mi_bits": worst}
    return AuditReport(constraint="signal-security", satisfied=worst == 0.0,
                       mi_bits=worst, outcomes=total, tables=2,
                       details=(("secret=library", mi_main),
                                ("secret=library+demands", mi_strong)),
                       witness=witness)


def audit_demand_privacy(params: SystemParams, arr: Pda, mutations=(),
                         cap: int = 2_000_000) -> AuditReport:
    """Non-colluders' demands must stay hidden from servers plus any colluders.

    For every colluding user set and every fixed library, the remaining
    users' demand rows must be independent of everything the coalition
    sees: all queries, all server stores, and the colluders' own caches,
    blend vectors, and demands.  Conditioning on the library makes this
    strictly stronger than an unconditional check.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    K, N = params.K, params.N
    coalitions = [tuple(c) for r in range(K + 1)
                  for c in combinations(range(1, K + 1), r)]
    real = [S for S in coalitions if len(S) < K]
    outcomes = _guard(space, space.n_w + space.n_delta + space.n_vee + space.n_lambda
                      + space.n_p + space.n_d, "demand-privacy", cap, len(real))
    grid = _query_grid(space)
    # the stores depend only on the (library, randomness) outcome, so
    # they are built once and shared by every coalition
    worlds = []
    for wflat in product(range(q), repeat=space.n_w):
        library = _library(space, wflat)
        outcomes_u = []
        for uflat in _u_space(space):
            randomness = _randomness(space, uflat)
            stores = build_storage(params, arr, library, randomness)
            outcomes_u.append((randomness, tuple(_contents(st) for st in stores)))
        worlds.append((wflat, library, outcomes_u))
    details = []
    worst = 0.0
    witness = None
    for S in coalitions:
        if len(S) == K:
            # the whole user set colludes: nothing is left to hide
            details.append((f"colluders={list(S)}", 0.0))
            continue
        rest = [k for k in range(1, K + 1) if k not in S]
        # per (blend, demand) pair: the hidden demands, the coalition's own
        # demands and the query values, built once per coalition
        views = [(ps, [(_demands(dflat, rest, N), _demands(dflat, S, N), qvals)
                       for dflat, _queries, qvals in rows])
                 for ps, rows in grid]
        s_worst = 0.0
        for wflat, library, outcomes_u in worlds:
            table: dict = {}
            for randomness, zed in outcomes_u:
                for ps, rows in views:
                    caches = tuple(_cached(place_user(params, arr, library, randomness,
                                                      k, ps[k - 1]))
                                   for k in S)
                    for secret, seen_demands, qvals in rows:
                        key = (secret, (caches, seen_demands, qvals, zed))
                        table[key] = table.get(key, 0) + 1
            mi = exact_mi(table)
            if mi > s_worst:
                s_worst = mi
            if mi > worst:
                worst = mi
                witness = {"colluders": list(S), "library": list(wflat),
                           "mi_bits": mi}
        details.append((f"colluders={list(S)}", s_worst))
    return AuditReport(constraint="demand-privacy", satisfied=worst == 0.0,
                       mi_bits=worst, outcomes=outcomes,
                       tables=len(real) * (q ** space.n_w), details=tuple(details),
                       witness=witness)


def audit_robustness(params: SystemParams, arr: Pda) -> tuple[AuditReport, AuditReport]:
    """Replay every delivery configuration within the corruption budget.

    Returns a pair of reports: exact recovery of the whole library from
    any J stored contents, and exact scalar-combination decoding by every
    user from any J signals, both under every adversary placement of size
    up to A and every corruption strategy, for two demand samples and at
    most 10,000 configurations.
    """
    sc = sim.Scenario(params=params, pda=arr, demand_samples=2,
                      sweep_j_subsets=True, sweep_adversary_subsets=True,
                      sweep_strategies=True, check_recovery=True,
                      max_configs=10_000)
    result = sim.sweep(sc)
    counts = dict(result.stage_counts)
    reports = []
    for stage, name in (("recover", "robust-recovery"), ("decode", "robust-decoding")):
        bad = counts.get(stage, 0)
        sample = tuple(w for w in result.failures if w.get("stage") == stage)
        reports.append(AuditReport(
            constraint=name, satisfied=bad == 0, mi_bits=None,
            outcomes=result.configurations, tables=1,
            details=((f"failures={bad}", float(bad)),),
            witness=dict(sample[0]) if sample else None))
    return reports[0], reports[1]


def run_audits(params: SystemParams, arr: Pda, mutations=(),
               robustness: bool = True, cap: int = 2_000_000) -> list[AuditReport]:
    """All audits in report order; mutations apply to the three leakage audits."""
    reports = [
        audit_server_security(params, arr, mutations, cap),
        audit_signal_security(params, arr, mutations, cap),
        audit_demand_privacy(params, arr, mutations, cap),
    ]
    if robustness:
        reports.extend(audit_robustness(params, arr))
    return reports
