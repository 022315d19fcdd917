"""Exact information-theoretic audits over tiny instances.

Server and signal security are computed from ranks over F_q.  Stores
are linear in (library, noise, keys, masks), and for fixed queries the
signals are linear in the stores, so for uniform secrets the leakage is
exactly I(W; Y) = (rank [G_W | G_R] - rank G_R) log2 q.  The columns of
G are the production ``build_storage`` and ``server_signal`` outputs on
unit vectors of the (library, randomness) space; linearity is checked
at zero and at seeded random inputs before any column is trusted, and
a failed check raises ``AuditError``.  A gap of 0 is a literal 0.0.

Demand privacy, and the enumeration oracles that the rank audits are
tested against, enumerate every equally likely joint outcome (library,
randomness, blend vectors, demands), tabulate integer counts of
(secret, observation) pairs, and report mutual information in bits.
Independence is detected by an exact integer rank-one test on the
count table, so a passing audit returns a literal 0.0 rather than a
small float.  Priors are uniform by construction; there is no hook
for weighting outcomes.  Every audit reports, and refuses above its
cap, the joint outcomes its figure covers, whether or not they are
enumerated.

Corruption by the bounded adversaries cannot make these leakage
figures worse: every deterministic strategy is a function of the
honest signal, and the randomized one adds noise drawn independently
of all secrets.  The audits therefore cover honest transcripts.

Queries depend only on (blends, demands), so every audit builds them
once per pair.  The enumerations leave out repeated work, never
outcomes: since ``server_signal`` is a pure function of (store,
queries), the signal oracle has each server answer each distinct query
vector once per (library, randomness) outcome, and the demand-privacy
audit builds the stores once per (library, randomness) outcome for all
coalitions.  Every outcome is still counted, in the original order.
The signal rank audit answers each distinct query vector once per
probe store.

Mutations deliberately break one defense at a time by pinning its
random symbols to zero ("zero-noise", "key-removal", "zero-pad"),
which drops those coordinates from the outcome space instead of
changing protocol code.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
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

# the rank audits check linearity at zero and at _CHECKS seeded random inputs
_CHECK_SEED = 0
_CHECKS = 2


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
    outcomes: int                    # joint outcomes the figure covers, or configs replayed
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


def _n_inputs(space: _Space) -> int:
    """Coordinates of one (library, randomness) outcome, after mutations."""
    return space.n_w + space.n_delta + space.n_vee + space.n_lambda


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


# ---------- rank audits ----------


def _probe_inputs(space: _Space) -> list:
    """The n unit vectors, then the inputs that check linearity.

    The checks are the zero vector and two vectors from a fixed-seed
    generator; a mutation's pinned coordinates are not in the space.
    """
    n, q = _n_inputs(space), space.params.q
    rng = random.Random(_CHECK_SEED)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return units + [(0,) * n] + [tuple(rng.randrange(q) for _ in range(n))
                                 for _ in range(_CHECKS)]


def _columns(space: _Space, inputs: list, outputs: list, what: str) -> list:
    """The outputs at the unit vectors, once f(x) = sum x_i f(e_i) holds
    at every check input x; the generator is untrusted until then."""
    n, q = _n_inputs(space), space.params.q
    cols = outputs[:n]
    for x, got in zip(inputs[n:], outputs[n:]):
        want = tuple(sum(xi * col[r] for xi, col in zip(x, cols)) % q
                     for r in range(len(cols[0])))
        if tuple(got) != want:
            raise AuditError(f"{what} is not linear over F_{q} in "
                             f"(library, randomness); the rank audit needs it")
    return cols


def _probe_stores(space: _Space) -> tuple[list, list]:
    """Every probe input with the server stores built from it."""
    params, arr, w = space.params, space.arr, space.n_w
    inputs = _probe_inputs(space)
    stores = [build_storage(params, arr, _library(space, x[:w]),
                            _randomness(space, x[w:])) for x in inputs]
    _columns(space, inputs,
             [tuple(chain.from_iterable(_contents(st) for st in sts))
              for sts in stores], "build_storage")
    return inputs, stores


def _rank_gap(columns: list, split: int, q: int) -> int:
    """rank G - rank G[:, split:] over F_q, for G given by its columns.

    The randomness columns (from `split` on) are eliminated first; the gap
    is the number of library columns that still raise the rank.
    """
    basis: dict = {}                     # leading index -> row, leading entry 1
    gap = 0
    for c in chain(range(split, len(columns)), range(split)):
        v = [x % q for x in columns[c]]
        lead = next((i for i, x in enumerate(v) if x), None)
        while lead in basis:
            f, row = v[lead], basis[lead]
            v = [(x - f * y) % q for x, y in zip(v, row)]
            lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], q - 2, q)
        basis[lead] = [x * inv % q for x in v]
        gap += c < split
    return gap


def audit_server_security(params: SystemParams, arr: Pda, mutations=(),
                          cap: int = 2_000_000) -> AuditReport:
    """Any set of at most I server stores must be independent of the library.

    The stores of T are G_W W + G_R R for the uniform library W and
    randomness R, so I(W; stores) = (rank G - rank G_R) log2 q exactly.
    G's columns are the production stores of the probe inputs.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    per_table = _guard(space, _n_inputs(space), "server-security", cap)
    subsets = list(combinations(range(1, params.H + 1), params.I))
    _, stores = _probe_stores(space)
    zeds = [[_contents(st) for st in sts] for sts in stores[:_n_inputs(space)]]
    details = []
    worst = 0.0
    witness = None
    for T in subsets:
        cols = [tuple(chain.from_iterable(zed[h - 1] for h in T)) for zed in zeds]
        gap = _rank_gap(cols, space.n_w, params.q)
        mi = gap * math.log2(params.q)
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

    A second, stronger figure holds the pair (library W, demands D) against
    the same observation (queries Q, payloads Y), so the transmission leaks
    neither content nor intent.

    For fixed Q the payloads are G_W(Q) W + G_R(Q) R, with G(Q)'s columns
    the production payloads on the probe stores.  Q is a function of
    (blends, demands), which are independent of (W, R), so
        I(W; Q, Y) = I(W; Y | Q) = E_Q[rank G(Q) - rank G_R(Q)] log2 q,
    the mean over equally likely grid points.  Given (Q, W), Y depends only
    on R, so I(D; Y | Q, W) = 0, and W is independent of (D, Q):
        I((W, D); (Q, Y)) = I((W, D); Q) + I((W, D); Y | Q)
                          = I(D; Q) + I(W; Y | Q),
    where I(D; Q) comes from the exact count table over the grid.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    total = _guard(space, _n_inputs(space) + space.n_p + space.n_d,
                   "signal-security", cap)
    inputs, stores = _probe_stores(space)
    gaps: dict = {}
    gap_sum = 0
    grid_points = 0
    demand_query: dict = {}
    for _ps, rows in _query_grid(space):
        for dflat, queries, qvals in rows:
            gap = gaps.get(qvals)
            if gap is None:
                outputs = [tuple(v for st in sts for packet in
                                 server_signal(params, arr, st, queries).payload
                                 for v in packet) for sts in stores]
                gap = gaps[qvals] = _rank_gap(
                    _columns(space, inputs, outputs, "server_signal"), space.n_w, q)
            gap_sum += gap
            grid_points += 1
            key = (dflat, qvals)
            demand_query[key] = demand_query.get(key, 0) + 1
    mi_main = Fraction(gap_sum, grid_points) * math.log2(q)    # a float
    mi_demands = exact_mi(demand_query)
    mi_strong = mi_demands + mi_main
    worst = max(mi_main, mi_strong)
    witness = None
    if worst > 0.0:
        which = "library" if mi_demands == 0.0 else "library+demands"
        witness = {"secret": which, "mi_bits": worst}
    return AuditReport(constraint="signal-security", satisfied=worst == 0.0,
                       mi_bits=worst, outcomes=total, tables=2,
                       details=(("secret=library", mi_main),
                                ("secret=library+demands", mi_strong)),
                       witness=witness)


# ---------- enumeration and replay audits ----------


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
    outcomes = _guard(space, _n_inputs(space) + space.n_p + space.n_d,
                      "demand-privacy", cap, len(real))
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


# ---------- enumeration oracles ----------


def enumerate_server_security(params: SystemParams, arr: Pda, mutations=(),
                              cap: int = 2_000_000) -> AuditReport:
    """Oracle for `audit_server_security`: tabulate every joint outcome."""
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    per_table = _guard(space, _n_inputs(space), "server-security", cap)
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


def enumerate_signal_security(params: SystemParams, arr: Pda, mutations=(),
                              cap: int = 2_000_000) -> AuditReport:
    """Oracle for `audit_signal_security`: tabulate every joint outcome.

    The second table holds the pair (library, demands) against the same
    observation.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    total = _guard(space, _n_inputs(space) + space.n_p + space.n_d,
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
