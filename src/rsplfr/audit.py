"""Exact information-theoretic audits over tiny instances.

Every leakage figure is a rank gap over F_q.  For uniform secrets X and
uniform nuisance inputs Z, an observation c + G_X X + G_Z Z leaks exactly
I(X; observation) = (rank [G_X | G_Z] - rank G_Z) log2 q bits.  The
columns of G are the outputs of the production functions on unit
vectors of the input space; the functions are checked at zero and at
seeded random inputs before any column is trusted, and a failed check
raises ``AuditError``.  ``_fit`` takes the columns and makes the checks
on packed rows, in the ``rscode._Slots`` of one integer.
The stores of every probe input are built by one ``protocol._storages``
call, which takes a list of (library, randomness) inputs, and each
user's caches by one ``protocol._placements`` call.  A gap of 0 is a
literal 0.0.

- Server security: stores are linear in (library, noise, keys, masks).
- Signal security: for fixed queries the signals are linear in the
  stores; the figure is the mean gap over the q^(K*N) query vectors,
  which equals the mean over the (blend, demand) grid because queries
  are demands plus blends, linear and onto.  I(demands; queries) is a
  rank gap too.
- Demand privacy: for a fixed library, everything a coalition sees
  (stores, its caches, its demands, every query) is affine in
  (randomness, blends, demands), and the hidden demands are the secret.

Signal security and demand privacy share one certificate, ``_figures``,
over an outer input x: the query vector for the first, the library for
the second (Shamir 1979; Cai & Yeung, ISIT 2002).  The columns are built
at x = 0, the unit vectors and the checks, and must be affine in x there;
a column equal at all of them is the same at every x.  Each view then
has one of three outcomes: no column moves, and its gap at zero is its
gap at every x; every secret column at zero, and each of its
increments, lies in the span of the non-secret columns that stay put,
and its gap is 0 at every x; or it takes the gap at every x.  Either
short cut gives the figure the enumeration gives, so every report is
unchanged.

Each audit refuses, above ``CAP``, the probe evaluations it would make,
counted before any work is done, and reports the joint outcomes its
figure covers.  The signal audit's count is still taken over the (blend,
demand) grid, not the fewer query vectors it answers, and the demand
audit's over every library: the guards bound the enumeration a failed
certificate falls back to.

The enumeration oracles (``enumerate_server_security``,
``enumerate_signal_security``, ``enumerate_demand_privacy``) are what
the rank audits are tested against.  They enumerate every equally likely
joint outcome (library, randomness, blend vectors, demands), tabulate
integer counts of (secret, observation) pairs, and report mutual
information in bits from ``exact_mi``, whose exact integer rank-one test
returns a literal 0.0 for independent tables; any other figure is the
log of one exact rational, so equal information gives equal floats and
witnesses never differ by summation order.  They refuse above
``CAP`` the outcomes they would enumerate.  Priors are uniform by
construction; there is no hook for weighting outcomes.

Every leakage report, rank audit or oracle, is one fold over an ordered
list of figures (label, bits, witness fields): the details list them in
that order, the worst is the first largest, and the witness is its
fields plus ``mi_bits`` (None when the worst is 0.0, which satisfies
the constraint).  A demand-privacy coalition's figure is its largest
over the libraries, witnessed by the first library that reaches it.

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
The rank audits build the columns at each x at most once, for every
view, the probes' in one call; a walk over every x reuses them.
Demand privacy builds the stores of every (library, probe) pair of a
call in one ``_storages`` call, and each user's caches in one
``_placements`` call.

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
from functools import lru_cache
from itertools import chain, combinations, product
from operator import mul

from . import sim
from .pda import Pda
from .protocol import (ConfigError, Library, ProtocolError, Randomness, SystemParams,
                       _placements, _server_columns, _storages, build_storage, make_query,
                       place_user, server_signal)
from .rscode import _Slots


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
    # 2^(total*I) = total^total prod c^c / (prod r^r prod s^s), exact and
    # reduced, so tables of one total with equal information give one float
    def power(values):  # prod v^v, each distinct power taken once
        return math.prod(v ** (v * n) for v, n in Counter(values).items())
    ratio = Fraction(power([total, *counts.values()]), power([*rows.values(), *cols.values()]))
    # log2 ratio = e + log2(num/den), with num/den = ratio / 2^e in (1/2, 2)
    e = ratio.numerator.bit_length() - ratio.denominator.bit_length()
    num, den = ratio.numerator << max(-e, 0), ratio.denominator << max(e, 0)
    return (e + math.log1p((num - den) / den) / math.log(2)) / total


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


def _report(constraint: str, figures: list, outcomes: int, tables: int) -> AuditReport:
    """The leakage report on ordered figures [(label, bits, witness fields), ...]."""
    _label, worst, fields = max(figures, key=lambda figure: figure[1])
    return AuditReport(constraint=constraint, satisfied=worst == 0.0, mi_bits=worst,
                       outcomes=outcomes, tables=tables,
                       details=tuple((label, bits) for label, bits, _ in figures),
                       witness={**fields, "mi_bits": worst} if worst > 0.0 else None)


def _coalition_figures(K: int, figures: list) -> list:
    """Demand-privacy figures from (coalition, largest bits, first library
    reaching them) triples, then a literal 0.0 for the whole user set,
    which has nothing left to hide."""
    everyone = list(range(1, K + 1))
    return [(f"colluders={list(S)}", bits, {"colluders": list(S), "library": list(library)})
            for S, bits, library in figures] + [
        (f"colluders={everyone}", 0.0, {"colluders": everyone})]


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


def _space(params: SystemParams, arr: Pda, mutations) -> _Space:
    muts = frozenset(mutations)
    for m in muts:
        if m not in MUTATIONS:
            raise ConfigError(f"unknown mutation {m!r}; choose from {list(MUTATIONS)}")
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


@lru_cache(maxsize=64)
def _probe_inputs(n: int, q: int) -> tuple:
    """The n unit vectors, then the inputs that check linearity.

    The checks are the zero vector and two vectors from a fixed-seed
    generator; a mutation's pinned coordinates are not in the space.
    """
    rng = random.Random(_CHECK_SEED)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return tuple(units + [(0,) * n] + [tuple(rng.randrange(q) for _ in range(n))
                                       for _ in range(_CHECKS)])


def _fit(q: int, inputs: list, outputs: list, affine: bool = False) -> list | None:
    """The columns f(e_i) - f(0), or None unless f(x) = f(0) + sum x_i
    (f(e_i) - f(0)) holds at every check input x, with f(0) = 0 unless
    `affine`.

    Checked on packed rows, in the slots of ``_Slots.for_sums(q, n + 1)``
    (at least 3 terms, so that a slot holds 2q - 1): the unit outputs mod
    q, plus q and less f(0) mod q in every slot, are the n columns, by
    one subtraction and one reduce; each check input x is then n
    multiply-adds of the columns by x mod q, one reduce and one
    comparison with its output packed as it is.  An output of another
    length than f(0), or a check output outside [0, q), fails.
    """
    n = len(inputs[0])
    m = len(outputs[n])
    if any(len(out) != m for out in outputs):
        return None
    slots = _Slots.for_sums(q, max(n + 1, 3))
    row, rows = slots.masks(m), slots.masks(n * m)
    units = slots.pack_mod(list(chain.from_iterable(outputs[:n])), rows)
    offset = 0
    if affine:
        offset = slots.pack_mod(outputs[n], row)
        units = slots.reduce(units + q * rows.ones - slots.repeat(offset, m, n), rows)
    values, packed = slots.unpack(units, n * m), slots.cut(units, m, n)
    for x, got in zip(inputs[n:], outputs[n:]):
        try:
            seen = slots.pack(got)
        except OverflowError:  # a value below 0 or too wide for its slot
            return None
        if seen != slots.reduce(offset + sum(map(mul, (v % q for v in x), packed)), row):
            return None
    return [tuple(values[i * m:i * m + m]) for i in range(n)]


def _columns(q: int, inputs: list, outputs: list, what: str,
             over: str = "(library, randomness)", affine: bool = False) -> list:
    """``_fit``'s columns of `what`; the generator is untrusted until then."""
    cols = _fit(q, inputs, outputs, affine)
    if cols is None:
        kind = "affine" if affine else "linear"
        raise AuditError(f"{what} is not {kind} over F_{q} in {over}; "
                         f"the rank audit needs it")
    return cols


def _probe_stores(space: _Space) -> tuple[list, list]:
    """Every probe input with the server stores built from it, all in one call."""
    params, arr, w = space.params, space.arr, space.n_w
    inputs = _probe_inputs(_n_inputs(space), params.q)
    stores = _storages(params, arr, [(_library(space, x[:w]), _randomness(space, x[w:]))
                                     for x in inputs])
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


def _figures(q: int, n_x: int, build, views: list) -> list:
    """[gap sum, largest gap, first x reaching it] of each view over x in F_q^n_x.

    `build(xs)` gives the parts at each x in the list xs, in order, each a
    list of columns.  A view is (select, split): select(parts) lists its
    columns, the `split` secret ones first, from a fixed selection of the
    parts and pieces that do not depend on x, so it is affine in x
    wherever the parts are.  The parts are built at the distinct
    ``_probe_inputs(n_x, q)`` in one call and checked affine in x once.
    Each view is then decided by the certificate in the module docstring;
    only the views it leaves open, or all of them when the check fails,
    walk every x in ``product`` order, the probes' parts reused, the rest one x per call.
    """
    inputs = _probe_inputs(n_x, q)
    probes = list(dict.fromkeys(inputs))
    built = dict(zip(probes, build(probes)))
    affine = _fit(q, inputs, [tuple(chain.from_iterable(chain.from_iterable(built[x])))
                              for x in inputs], affine=True) is not None
    origin = inputs[n_x]
    figures, walk = [], []
    for select, split in views:
        zero = select(built[origin])
        units = [select(built[x]) for x in inputs[:n_x]]
        stay = [affine and all(g[c] == col for g in units) for c, col in enumerate(zero)]
        if all(stay):
            gap = _rank_gap(zero, split, q)
            figures.append([gap * q ** n_x, gap, origin])
            continue
        fixed = [col for col, still in zip(zero[split:], stay[split:]) if still]
        secrets = zero[:split] + [tuple((v - o) % q for v, o in zip(g[c], zero[c]))
                                  for g in units for c in range(split)]
        if affine and _rank_gap(secrets + fixed, len(secrets), q) == 0:
            figures.append([0, 0, origin])
        else:
            walk.append((len(figures), select, split))
            figures.append([0, -1, None])      # any gap, 0 too, beats -1
    if walk:
        for x in product(range(q), repeat=n_x):
            parts = built.pop(x) if x in built else build([x])[0]
            for i, select, split in walk:
                gap = _rank_gap(select(parts), split, q)
                figures[i][0] += gap
                if gap > figures[i][1]:
                    figures[i][1:] = gap, x
    return figures


def audit_server_security(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Any set of at most I server stores must be independent of the library.

    The stores of T are G_W W + G_R R for the uniform library W and
    randomness R, so I(W; stores) = (rank G - rank G_R) log2 q exactly.
    G's columns are the production stores of the probe inputs.
    """
    space = _space(params, arr, mutations)
    _guard("server-security", _probes(_n_inputs(space)), _EVALUATE)
    per_table = _outcomes(space, _n_inputs(space))
    subsets = list(combinations(range(1, params.H + 1), params.I))
    _, stores = _probe_stores(space)
    zeds = [[st.symbols() for st in sts] for sts in stores[:_n_inputs(space)]]
    figures = []
    for T in subsets:
        cols = [tuple(chain.from_iterable(zed[h - 1] for h in T)) for zed in zeds]
        gap = _rank_gap(cols, space.n_w, params.q)
        figures.append((f"servers={list(T)}", gap * math.log2(params.q), {"servers": list(T)}))
    return _report("server-security", figures, per_table * len(subsets), len(subsets))


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

    The payload columns are ``_figures``' one view of G(Q), with the
    library columns as the secret: the sum of its gaps over the q^(K*N)
    query vectors gives the mean.  Most instances need no grid: the
    certificate answers only the K*N unit query vectors, zero and the
    checks, all of them from every probe store in one ``_server_columns``
    call, cut per (Q, probe); a walk answers one query vector per call.

    The work refused above ``CAP`` is counted over the query grid: the
    probe stores times the (blend, demand) grid points, plus the query
    probes.  That overstates the q^(K*N) query vectors the grid answers,
    and by far the few a certificate answers; the count stays, since it
    bounds the grid, until the guard counts a certificate's own work.
    """
    space = _space(params, arr, mutations)
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

    def columns(xs) -> list:
        """Per Q in xs, [G(Q)'s columns]: the payloads of every probe store to Q."""
        answers = iter(_server_columns(params, arr, list(chain.from_iterable(stores)),
                                       [_rows(qvals, K, N) for qvals in xs]))
        per_probe = [[next(answers) for _ in sts] for sts in stores]
        size = len(per_probe[0][0]) // len(xs)   # words of one answer
        return [[_columns(q, inputs, [tuple(chain.from_iterable(
            column[d * size:d * size + size] for column in probe)) for probe in per_probe],
            "server_signal")] for d in range(len(xs))]

    [(gap_sum, _, _)] = _figures(q, K * N, columns, [(lambda parts: parts[0], space.n_w)])
    mi_main = Fraction(gap_sum, q ** (K * N)) * math.log2(q)    # a float
    return _report("signal-security",
                   [("secret=library", mi_main, {"secret": "library"}),
                    ("secret=library+demands", mi_demands + mi_main,
                     {"secret": "library+demands"})], total, 2)


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
        I(D_rest; view | W = w) = (rank G(w) - rank G(w) without D_rest) log2 q,
    with G(w)'s columns the production outputs on unit vectors minus
    their value at zero.

    Each coalition is one ``_figures`` view over the library: its stores,
    its caches, every query and its own demands, the hidden demands as
    the secret.  Its figure is its largest gap, witnessed by the first
    library that reaches it.  Most coalitions need no library loop, and
    the stores and caches of a (library, probe) are built at most once,
    for all coalitions.  The work refused above ``CAP`` is still the
    libraries times the probes per library, which bounds the loop.
    """
    space = _space(params, arr, mutations)
    q, K, N = params.q, params.K, params.N
    # every coalition but the whole user set, which has nothing left to hide
    real = [tuple(c) for r in range(K) for c in combinations(range(1, K + 1), r)]
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

    def columns(wflats) -> list:
        """Per library in wflats, [store columns, user 1's cache columns, ..., user K's].

        The stores of every (library, probe) are built in one call, and
        each user's caches in one call.
        """
        libraries = [_library(space, wflat) for wflat in wflats]
        stores = _storages(params, arr, [(library, randomness) for library in libraries
                                         for randomness, _ps in probes])
        caches = [_placements(params, arr, [(library, randomness, ps[k - 1])
                                            for library in libraries
                                            for randomness, ps in probes], k)
                  for k in range(1, K + 1)]
        size = len(probes)
        return [[_columns(q, inputs, [tuple(chain.from_iterable(st.symbols() for st in sts))
                                      for sts in stores[t:t + size]],
                          "build_storage", over, affine=True)]
                + [_columns(q, inputs, [_cached(cache) for cache in mine[t:t + size]],
                            "place_user", over, affine=True) for mine in caches]
                for t in range(0, len(stores), size)]

    def view(S):
        """Coalition S's view, the hidden demand columns first."""
        hidden = [d0 + (k - 1) * N + i for k in range(1, K + 1) if k not in S
                  for i in range(N)]
        order = hidden + sorted(set(range(n)) - set(hidden))
        return (lambda parts: [parts[0][c] + queries[c] + _demands(inputs[c][d0:], S, N)
                               + tuple(chain.from_iterable(parts[k][c] for k in S))
                               for c in order]), len(hidden)

    figures = _figures(q, space.n_w, columns, [view(S) for S in real])
    return _report("demand-privacy", _coalition_figures(
        K, [(S, gap * math.log2(q), library) for S, (_, gap, library) in zip(real, figures)]),
        outcomes, len(real) * q ** space.n_w)


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
    space = _space(params, arr, mutations)
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
    figures = [(f"servers={list(T)}", exact_mi(tables[T]), {"servers": list(T)})
               for T in subsets]
    return _report("server-security", figures, per_table * len(subsets), len(subsets))


def enumerate_signal_security(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Oracle for `audit_signal_security`: tabulate every joint outcome.

    The second table holds the pair (library, demands) against the same
    observation.
    """
    space = _space(params, arr, mutations)
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
                            server_signal(params, arr, st, queries) for st in stores)
                    obs = (qvals, payloads)
                    key = (wflat, obs)
                    table[key] = table.get(key, 0) + 1
                    skey = ((wflat, dflat), obs)
                    strong[skey] = strong.get(skey, 0) + 1
    return _report("signal-security",
                   [("secret=library", exact_mi(table), {"secret": "library"}),
                    ("secret=library+demands", exact_mi(strong),
                     {"secret": "library+demands"})], total, 2)


def enumerate_demand_privacy(params: SystemParams, arr: Pda, mutations=()) -> AuditReport:
    """Oracle for `audit_demand_privacy`: tabulate every joint outcome,
    one count table per (coalition, library)."""
    space = _space(params, arr, mutations)
    q = params.q
    K, N = params.K, params.N
    # every coalition but the whole user set, which has nothing left to hide
    real = [tuple(c) for r in range(K) for c in combinations(range(1, K + 1), r)]
    outcomes = _guard("demand-privacy", _outcomes(
        space, _n_inputs(space) + space.n_p + space.n_d, len(real)))
    grid = _query_grid(space)
    libraries = list(product(range(q), repeat=space.n_w))
    # the stores depend only on the (library, randomness) outcome, so
    # they are built once and shared by every coalition
    worlds = []
    for wflat in libraries:
        library = _library(space, wflat)
        outcomes_u = []
        for uflat in _u_space(space):
            randomness = _randomness(space, uflat)
            stores = build_storage(params, arr, library, randomness)
            outcomes_u.append((randomness, tuple(st.symbols() for st in stores)))
        worlds.append((library, outcomes_u))
    figures = []
    for S in real:
        rest = [k for k in range(1, K + 1) if k not in S]
        # per (blend, demand) pair: the hidden demands, the coalition's own
        # demands and the query values, built once per coalition
        views = [(ps, [(_demands(dflat, rest, N), _demands(dflat, S, N), qvals)
                       for dflat, _queries, qvals in rows])
                 for ps, rows in grid]
        bits = []
        for library, outcomes_u in worlds:
            table: dict = {}
            for randomness, zed in outcomes_u:
                for ps, rows in views:
                    caches = tuple(_cached(place_user(params, arr, library, randomness,
                                                      k, ps[k - 1]))
                                   for k in S)
                    for secret, seen_demands, qvals in rows:
                        key = (secret, (caches, seen_demands, qvals, zed))
                        table[key] = table.get(key, 0) + 1
            bits.append(exact_mi(table))
        best = max(bits)
        figures.append((S, best, libraries[bits.index(best)]))
    return _report("demand-privacy", _coalition_figures(K, figures),
                   outcomes, len(real) * len(libraries))


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
