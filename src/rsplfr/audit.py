"""Exact information-theoretic audits over tiny instances.

Every leakage figure is a rank gap over F_q.  For uniform secrets X and
uniform nuisance inputs Z, an observation c + G_X X + G_Z Z leaks exactly
I(X; observation) = (rank [G_X | G_Z] - rank G_Z) log2 q bits.  The
columns of G are the outputs of the production functions on unit
vectors of the input space; the functions are checked at zero and at
seeded random inputs before any column is trusted, and a failed check
raises ``AuditError``.  A gap of 0 is a literal 0.0.

- Server security: stores are linear in (library, noise, keys, masks).
- Signal security: for fixed queries the signals are linear in the
  stores; the figure is the mean gap over the q^(K*N) query vectors,
  which equals the mean over the (blend, demand) grid because queries
  are demands plus blends, linear and onto.  I(demands; queries) is a
  rank gap too.
- Demand privacy: for a fixed library, everything a coalition sees
  (stores, its caches, its demands, every query) is affine in
  (randomness, blends, demands), and the hidden demands are the secret.

Each audit refuses, above ``CAP``, the probe evaluations it would make,
counted before any work is done, and reports the joint outcomes its
figure covers.  The signal audit's count is taken over the (blend,
demand) grid, not the fewer query vectors it answers.

The enumeration oracles (``enumerate_server_security``,
``enumerate_signal_security``, ``enumerate_demand_privacy``) are what
the rank audits are tested against.  They enumerate every equally likely
joint outcome (library, randomness, blend vectors, demands), tabulate
integer counts of (secret, observation) pairs, and report mutual
information in bits from ``exact_mi``, whose exact integer rank-one test
returns a literal 0.0 for independent tables.  They refuse above
``CAP`` the outcomes they would enumerate.  Priors are uniform by
construction; there is no hook for weighting outcomes.

Corruption by the bounded adversaries cannot make these leakage
figures worse: every deterministic strategy is a function of the
honest signal, and the randomized one adds noise drawn independently
of all secrets.  The audits therefore cover honest transcripts.

Queries depend only on (blends, demands), so the oracles build them
once per pair.  The oracles leave out repeated work,
never outcomes: since ``server_signal`` is a pure function of (store,
queries), the signal oracle has each server answer each distinct query
vector once per (library, randomness) outcome, and the demand-privacy
oracle builds the stores once per (library, randomness) outcome for all
coalitions.  Every outcome is still counted, in the original order.
The signal rank audit answers each query vector once per probe store,
and the demand-privacy rank audit builds the stores and caches once per
(library, probe) for all coalitions.

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
                       build_storage, make_query, place_user, server_signal)


class AuditError(Exception):
    pass


class InfeasibleAuditError(AuditError):
    """The joint outcome space is too large to enumerate exactly."""


MUTATIONS = ("zero-noise", "key-removal", "zero-pad")

# the rank audits check linearity at zero and at _CHECKS seeded random inputs
_CHECK_SEED = 0
_CHECKS = 2

# what the guards count: the oracles' outcomes, the rank audits' probes
_ENUMERATE = "enumerate {} outcomes"
_EVALUATE = "evaluate {} probes"

# the most work any audit or oracle takes on; above it, it is refused
CAP = 2_000_000


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
    runs: tuple[int, int, int]  # the full size of each Randomness run
    n_w: int
    n_delta: int
    n_vee: int
    n_lambda: int
    n_p: int
    n_d: int


def _space(params: SystemParams, arr: Pda, muts: frozenset) -> _Space:
    try:
        runs = Randomness.sizes(params, arr)
    except ProtocolError as exc:
        raise ConfigError(str(exc)) from exc
    n_delta, n_vee, n_lambda = runs
    return _Space(
        params=params, arr=arr, runs=runs,
        n_w=params.N * params.B,
        n_delta=0 if "zero-noise" in muts else n_delta,
        n_vee=0 if "key-removal" in muts else n_vee,
        n_lambda=0 if "key-removal" in muts else n_lambda,
        n_p=0 if "zero-pad" in muts else params.K * params.N,
        n_d=params.K * params.N,
    )


def _n_inputs(space: _Space) -> int:
    """Coordinates of one (library, randomness) outcome, after mutations."""
    return space.n_w + space.n_delta + space.n_vee + space.n_lambda


def _outcomes(space: _Space, dims: int, copies: int = 1) -> int:
    """Outcomes of `copies` enumerations of q^dims each."""
    return space.params.q ** dims * copies


def _guard(constraint: str, count: int, work: str = _ENUMERATE) -> int:
    """`count`, the work an audit would do, refused above ``CAP``."""
    if count > CAP:
        raise InfeasibleAuditError(
            f"{constraint} would {work.format(count)} (cap {CAP})")
    return count


def _rows(flat, rows: int, cols: int):
    if not flat:
        flat = (0,) * (rows * cols)
    return [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]


def _library(space: _Space, wflat) -> Library:
    B = space.params.B
    return Library(tuple(tuple(wflat[n * B:(n + 1) * B])
                         for n in range(space.params.N)))


def _randomness(space: _Space, uflat) -> Randomness:
    """uflat cut into the runs of ``Randomness``; a run a mutation pins is all zeros."""
    a = space.n_delta
    b = a + space.n_vee
    return Randomness(*(tuple(run) or (0,) * size
                        for run, size in zip((uflat[:a], uflat[a:b], uflat[b:]), space.runs)))


def _cached(cache) -> tuple:
    """A user cache flattened: blend vector, star-row runs, keyed runs, rows ascending."""
    return tuple(chain(cache.p, *(cache.uncoded[j] for j in sorted(cache.uncoded)),
                       *(cache.keys[j] for j in sorted(cache.keys))))


def _demands(dflat, users, N: int) -> tuple:
    """The demand rows of the given users (1-based), concatenated."""
    return tuple(v for k in users for v in dflat[(k - 1) * N:k * N])


def _query_values(space: _Space, dflat, pflat) -> tuple:
    """Every user's query, concatenated, for flat demands and blends."""
    params = space.params
    ds = _rows(dflat, params.K, params.N)
    ps = _rows(pflat, params.K, params.N)
    return tuple(chain.from_iterable(make_query(params, ds[k], ps[k])
                                     for k in range(params.K)))


def _query_grid(space: _Space) -> list:
    """Every blend outcome with its demand outcomes and their queries.

    Queries depend only on (blends, demands), so the oracles build them
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


def _probes(n: int) -> int:
    """Probe inputs of an n-coordinate space: units, zero and the checks."""
    return n + 1 + _CHECKS


def _probe_inputs(n: int, q: int) -> list:
    """The n unit vectors, then the inputs that check linearity.

    The checks are the zero vector and two vectors from a fixed-seed
    generator; a mutation's pinned coordinates are not in the space.
    """
    rng = random.Random(_CHECK_SEED)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return units + [(0,) * n] + [tuple(rng.randrange(q) for _ in range(n))
                                 for _ in range(_CHECKS)]


def _columns(q: int, inputs: list, outputs: list, what: str,
             over: str = "(library, randomness)", affine: bool = False) -> list:
    """The columns f(e_i) - f(0), once f(x) = f(0) + sum x_i (f(e_i) - f(0))
    holds at every check input x, with f(0) = 0 unless `affine`; the
    generator is untrusted until then."""
    n = len(inputs[0])
    offset = tuple(outputs[n]) if affine else (0,) * len(outputs[n])
    cols = [tuple((v - o) % q for v, o in zip(out, offset)) for out in outputs[:n]]
    for x, got in zip(inputs[n:], outputs[n:]):
        want = tuple((o + sum(xi * col[r] for xi, col in zip(x, cols))) % q
                     for r, o in enumerate(offset))
        if tuple(got) != want:
            kind = "affine" if affine else "linear"
            raise AuditError(f"{what} is not {kind} over F_{q} in {over}; "
                             f"the rank audit needs it")
    return cols


def _probe_stores(space: _Space) -> tuple[list, list]:
    """Every probe input with the server stores built from it."""
    params, arr, w = space.params, space.arr, space.n_w
    inputs = _probe_inputs(_n_inputs(space), params.q)
    stores = [build_storage(params, arr, _library(space, x[:w]),
                            _randomness(space, x[w:])) for x in inputs]
    _columns(params.q, inputs,
             [tuple(chain.from_iterable(st.symbols() for st in sts)) for sts in stores],
             "build_storage")
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


def audit_server_security(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Any set of at most I server stores must be independent of the library.

    The stores of T are G_W W + G_R R for the uniform library W and
    randomness R, so I(W; stores) = (rank G - rank G_R) log2 q exactly.
    G's columns are the production stores of the probe inputs.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    _guard("server-security", _probes(_n_inputs(space)), _EVALUATE)
    per_table = _outcomes(space, _n_inputs(space))
    subsets = list(combinations(range(1, params.H + 1), params.I))
    _, stores = _probe_stores(space)
    zeds = [[st.symbols() for st in sts] for sts in stores[:_n_inputs(space)]]
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


def audit_signal_security(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Queries plus every server's payload must be independent of the library.

    A second, stronger figure holds the pair (library W, demands D) against
    the same observation (queries Q, payloads Y), so the transmission leaks
    neither content nor intent.

    For fixed Q the payloads are G_W(Q) W + G_R(Q) R, with G(Q)'s columns
    the production payloads on the probe stores.  Q is a function of
    (blends, demands), which are independent of (W, R), so
        I(W; Q, Y) = I(W; Y | Q) = E_Q[rank G(Q) - rank G_R(Q)] log2 q.
    Q = D + P is linear in the uniform (D, P) and reaches every vector of
    F_q^(K*N), so Q is uniform: the mean over the (blend, demand) grid is
    the mean over the q^(K*N) query vectors, which are answered directly.
    The probed query columns must have rank K*N, or ``AuditError``.
    Given (Q, W), Y depends only on R, so I(D; Y | Q, W) = 0, and W is
    independent of (D, Q):
        I((W, D); (Q, Y)) = I((W, D); Q) + I((W, D); Y | Q)
                          = I(D; Q) + I(W; Y | Q).
    So I(D; Q) is the rank gap of the production queries probed over
    (D, P), with D as the secret.

    The work refused above ``CAP`` is counted over the query grid: the
    probe stores times the (blend, demand) grid points, plus the query
    probes.  That overstates the q^(K*N) query vectors answered; item 1
    of ROADMAP.md replaces the count with a certificate's own work.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q, K, N = params.q, params.K, params.N
    n_dp = space.n_d + space.n_p
    _guard("signal-security",
           _probes(_n_inputs(space)) * q ** n_dp + _probes(n_dp), _EVALUATE)
    total = _outcomes(space, _n_inputs(space) + n_dp)
    dp_inputs = _probe_inputs(n_dp, q)
    query_cols = _columns(
        q, dp_inputs, [_query_values(space, x[:space.n_d], x[space.n_d:])
                       for x in dp_inputs], "make_query", "(demands, blends)")
    if _rank_gap(query_cols, n_dp, q) != K * N:
        raise AuditError(f"make_query does not reach every vector of F_{q}^{K * N}; "
                         f"the mean over query vectors needs it")
    mi_demands = _rank_gap(query_cols, space.n_d, q) * math.log2(q)
    inputs, stores = _probe_stores(space)
    gap_sum = 0
    for qvals in product(range(q), repeat=K * N):
        queries = _rows(qvals, K, N)
        outputs = [tuple(chain.from_iterable(
            server_signal(params, arr, st, queries).payload for st in sts))
            for sts in stores]
        gap_sum += _rank_gap(_columns(q, inputs, outputs, "server_signal"), space.n_w, q)
    mi_main = Fraction(gap_sum, q ** (K * N)) * math.log2(q)    # a float
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


def audit_demand_privacy(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Non-colluders' demands must stay hidden from servers plus any colluders.

    For every colluding user set and every fixed library, the remaining
    users' demand rows must be independent of everything the coalition
    sees: all queries, all server stores, and the colluders' own caches,
    blend vectors, and demands.  Conditioning on the library makes this
    strictly stronger than an unconditional check.  The signals are left
    out: they are a function of the stores and the queries.

    For a fixed library W the view is affine in the uniform (randomness,
    blends, demands): stores are G_R R + c_W, keyed cache packets are
    vee + p W, queries are d + p.  So
        I(D_rest; view | W = w) = (rank G - rank G without D_rest) log2 q,
    with G's columns the production outputs on unit vectors minus their
    value at zero.  The stores and caches of every (library, probe) are
    built once for all coalitions.  The work refused above ``CAP`` is the
    libraries times the probes per library.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q, K, N = params.q, params.K, params.N
    coalitions = [tuple(c) for r in range(K + 1)
                  for c in combinations(range(1, K + 1), r)]
    real = [S for S in coalitions if len(S) < K]
    n_u = _n_inputs(space) - space.n_w
    d0 = n_u + space.n_p                 # where a probe's demands start
    n = d0 + space.n_d
    _guard("demand-privacy", q ** space.n_w * _probes(n), _EVALUATE)
    outcomes = _outcomes(space, _n_inputs(space) + space.n_p + space.n_d, len(real))
    # a probe x is (randomness, blends, demands); the queries and the
    # colluders' own demands do not depend on the library
    inputs = _probe_inputs(n, q)
    probes = [(_randomness(space, x[:n_u]), _rows(x[n_u:d0], K, N)) for x in inputs]
    over = "(randomness, blends, demands) for a fixed library"
    queries = _columns(q, inputs, [_query_values(space, x[d0:], x[n_u:d0]) for x in inputs],
                       "make_query", over, affine=True)
    # per coalition, the hidden demand columns go first
    orders = {}
    for S in real:
        hidden = [d0 + (k - 1) * N + i for k in range(1, K + 1) if k not in S
                  for i in range(N)]
        orders[S] = (hidden + sorted(set(range(n)) - set(hidden)), len(hidden))
    gaps: dict = {S: [] for S in real}
    for wflat in product(range(q), repeat=space.n_w):
        library = _library(space, wflat)
        stores = _columns(q, inputs, [
            tuple(chain.from_iterable(
                st.symbols() for st in build_storage(params, arr, library, randomness)))
            for randomness, _ps in probes], "build_storage", over, affine=True)
        caches = [_columns(q, inputs, [
            _cached(place_user(params, arr, library, randomness, k, ps[k - 1]))
            for randomness, ps in probes], "place_user", over, affine=True)
            for k in range(1, K + 1)]
        for S, (order, split) in orders.items():
            view = [stores[c] + queries[c] + _demands(inputs[c][d0:], S, N)
                    + tuple(chain.from_iterable(caches[k - 1][c] for k in S))
                    for c in order]
            gaps[S].append(_rank_gap(view, split, q))
    details = []
    worst = 0
    witness = None
    for S in coalitions:
        if len(S) == K:
            # the whole user set colludes: nothing is left to hide
            details.append((f"colluders={list(S)}", 0.0))
            continue
        for wflat, gap in zip(product(range(q), repeat=space.n_w), gaps[S]):
            if gap > worst:
                worst = gap
                witness = {"colluders": list(S), "library": list(wflat),
                           "mi_bits": gap * math.log2(q)}
        details.append((f"colluders={list(S)}", max(gaps[S]) * math.log2(q)))
    return AuditReport(constraint="demand-privacy", satisfied=worst == 0,
                       mi_bits=worst * math.log2(q), outcomes=outcomes,
                       tables=len(real) * (q ** space.n_w), details=tuple(details),
                       witness=witness)


# ---------- replay audit ----------


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


def enumerate_server_security(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Oracle for `audit_server_security`: tabulate every joint outcome."""
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    per_table = _guard("server-security", _outcomes(space, _n_inputs(space)))
    subsets = list(combinations(range(1, params.H + 1), params.I))
    tables = {T: {} for T in subsets}
    for wflat in product(range(q), repeat=space.n_w):
        library = _library(space, wflat)
        for uflat in _u_space(space):
            stores = build_storage(params, arr, library, _randomness(space, uflat))
            zed = [st.symbols() for st in stores]
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


def enumerate_signal_security(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Oracle for `audit_signal_security`: tabulate every joint outcome.

    The second table holds the pair (library, demands) against the same
    observation.
    """
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    total = _guard("signal-security", _outcomes(
        space, _n_inputs(space) + space.n_p + space.n_d))
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
                            server_signal(params, arr, st, queries).payload
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


def enumerate_demand_privacy(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Oracle for `audit_demand_privacy`: tabulate every joint outcome,
    one count table per (coalition, library)."""
    muts = _check_mutations(mutations)
    space = _space(params, arr, muts)
    q = params.q
    K, N = params.K, params.N
    coalitions = [tuple(c) for r in range(K + 1)
                  for c in combinations(range(1, K + 1), r)]
    real = [S for S in coalitions if len(S) < K]
    outcomes = _guard("demand-privacy", _outcomes(
        space, _n_inputs(space) + space.n_p + space.n_d, len(real)))
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
            outcomes_u.append((randomness, tuple(st.symbols() for st in stores)))
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


def run_audits(params: SystemParams, arr: Pda, mutations=(),
               robustness: bool = True) -> list[AuditReport]:
    """All audits in report order; mutations apply to the three leakage audits."""
    reports = [
        audit_server_security(params, arr, mutations),
        audit_signal_security(params, arr, mutations),
        audit_demand_privacy(params, arr, mutations),
    ]
    if robustness:
        reports.extend(audit_robustness(params, arr))
    return reports
