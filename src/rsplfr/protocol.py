"""The retrieval scheme end to end.

Roles and the objects they hold:

  * a coordinator splits each of the N library files into L subfiles of
    B/L symbols and each subfile into F packets of B/(L*F) symbols,
    then hides the library inside vector polynomials: file n becomes a
    polynomial whose first L coefficients are its subfiles and whose
    last I coefficients are fresh uniform noise;
  * each of the H servers stores only one evaluation of every file
    polynomial plus one evaluation of every key polynomial (whose first
    L coefficients are one-time keys, last I coefficients masks), so
    any I servers combined see pure noise;
  * each user caches packets according to its column of a placement
    delivery array, together with key-padded packet combinations of a
    random file blend p_k, and queries every server with d_k + p_k, a
    plain tuple of N residues;
  * each server answers with one multicast symbol stream per ordinary
    array symbol; across servers the streams form codewords of an MDS
    code of dimension I + L, so any J answers survive A corruptions,
    because L is chosen as J - I - 2A.

All containers hold canonical residues as plain ints; field context
comes from the parameter object.  This module is the one owner of every
symbol layout; ``sim`` and ``audit`` read them through it.  ``_dims``
gives (B/L, pkt), pkt = B/(L*F) being the packet length, and each
docstring gives its flat order: ``Randomness``, whose ``sizes`` are its
run sizes, in the order ``build_storage`` reads it; ``ServerStore`` and
a server's answer, the tuple ``server_signal`` returns, in the order the
decoder reads them, each word across any J servers one MDS codeword;
``UserCache`` one run per array row.  Stores and caches are built for
a list of (library, randomness) sources at once, each source checked in
order first: ``_storages`` evaluates every source's polynomials packed,
in the ``rscode._Slots`` of one integer per server, and ``_placements``
caches one user's packets from each source (with its blend vector);
``build_storage`` and ``place_user`` are their one-source cases, and an
audit builds all its probes' stores, or one user's caches, in one call.
Answers and cache sides are
built packed, in the ``rscode._Slots`` of one integer, with any
container value taken mod q: ``_server_columns`` chains each store's
answers to a list of query sets, for a replay's servers over its
demands or an audit's probe stores over its probe queries, and
``server_signal`` is its one-store, one-query-set case;
``_cache_sides`` gives one user's side of each demand, and
``cache_side`` is its one-demand case.

Deliveries and stored contents are decoded on one path,
``decode_group``, which takes a batch as a mapping from each of J
servers to what it sent, packs each server's words, and calls the core
``_decode_packed_group`` (as a sweep does on packed runs): one call of
``rscode._decode_packed`` computes only the L data rows of each word's
message, left packed.  Its stream side takes
``{h: column}``, server h's answers to a batch of deliveries chained in
delivery order, and gives one ``DecodedStreams``, slice r of stream s
of delivery d at word (d*S + s-1)*pkt + r; ``user_decode`` reads the
slots of a user's words of one delivery from its packed rows, at the
words ``cache_side`` listed once.  An adversarial server's column is
``adversary_column`` of its honest one, corrupted by one strategy call
with the server's one generator.  Its store side takes
``{h: [store per set]}`` and gives a ``DecodedLibraries`` sequence,
which builds each set's library or failure on access.  Each side's
``differing`` names, from the packed rows alone, the deliveries or sets
of its batch that are no copies of another batch's; rows are unpacked
only where a library is built.  ``decode_streams`` and ``recover_library`` are its
one-sided cases.  A word's decode never depends on the rest of its
batch.
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import chain, compress
from operator import mul
from pathlib import Path

from . import pda as pda_mod
from . import rscode
from .pda import Pda, STAR
from .rscode import EvalPoints


class ProtocolError(ValueError):
    pass


class DimensionMismatch(ProtocolError):
    pass


class MissingSignals(ProtocolError):
    pass


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SystemParams:
    """Instance sizes and thresholds; q and B may stay unset for analysis-only use.

    N files, K users, H servers; at most A adversarial servers, any I
    servers may collude without learning the library, any J answers
    suffice to decode.  Requires A <= I <= J <= H and I + 2A < J, which
    makes L = J - I - 2A a positive number of data coefficients.  With q
    set, server h is evaluated at point h, so q must exceed H.
    """

    N: int
    K: int
    H: int
    A: int
    I: int
    J: int
    q: int | None = None
    B: int | None = None
    seed: int = 0
    points: EvalPoints | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        if self.N < 2:
            raise ProtocolError(f"N must be >= 2, got {self.N}")
        if self.K < 1:
            raise ProtocolError(f"K must be >= 1, got {self.K}")
        if self.I < 1:
            raise ProtocolError(f"I must be >= 1, got {self.I}")
        if self.A < 0:
            raise ProtocolError(f"A must be >= 0, got {self.A}")
        if not self.A <= self.I <= self.J <= self.H:
            raise ProtocolError(
                f"need A <= I <= J <= H, got A={self.A}, I={self.I}, J={self.J}, H={self.H}")
        if not self.I + 2 * self.A < self.J:
            raise ProtocolError(
                f"need I + 2A < J, got I={self.I}, A={self.A}, J={self.J}")
        if self.q is not None:
            try:
                points = EvalPoints.consecutive(self.q, self.H)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            object.__setattr__(self, "points", points)
        if self.B is not None and self.B < 1:
            raise ProtocolError(f"B must be >= 1, got {self.B}")

    @property
    def L(self) -> int:
        return self.J - self.I - 2 * self.A


def _dims(params: SystemParams, pda: Pda) -> tuple[int, int]:
    """(subfile length, packet length); checks divisibility of B by L*F."""
    if params.q is None or params.B is None:
        raise ProtocolError("protocol operations need q and B")
    if pda.K != params.K:
        raise DimensionMismatch(f"array has {pda.K} columns, params.K={params.K}")
    L, F = params.L, pda.F
    if params.B % (L * F):
        raise DimensionMismatch(
            f"B={params.B} is not divisible by L*F={L}*{F}={L * F}")
    return params.B // L, params.B // (L * F)


# ---------- data at rest ----------


def draws(rng: random.Random, q: int, count: int) -> list[int]:
    """``count`` uniform residues mod q, the values ``rng.randrange(q)`` gives in turn.

    The same rejection loop over ``getrandbits`` that ``randrange`` runs,
    without its per-call argument checks.
    """
    bits, draw = q.bit_length(), rng.getrandbits
    out = []
    for _ in range(count):
        v = draw(bits)
        while v >= q:
            v = draw(bits)
        out.append(v)
    return out


@dataclass(frozen=True)
class Library:
    """N files of B symbols each."""

    files: tuple[tuple[int, ...], ...]

    @classmethod
    def random(cls, params: SystemParams, rng: random.Random) -> "Library":
        return cls(tuple(tuple(draws(rng, params.q, params.B)) for _ in range(params.N)))

    @classmethod
    def zeros(cls, params: SystemParams) -> "Library":
        return cls(tuple((0,) * params.B for _ in range(params.N)))


@dataclass(frozen=True)
class Randomness:
    """Coordinator randomness: file noise, one-time keys, key masks.

    Each field is one flat run of symbols, in the order ``build_storage``
    reads it, with pkt = B/(L*F):

    deltas[(n*I + i)*B/L + m]      : slice m of the noise of file n, degree slot L+i
    vees[(l*S + s-1)*pkt + r]      : slice r of the key of data coefficient l, stream s
    lambdas[(i*S + s-1)*pkt + r]   : slice r of the mask of noise coefficient i, stream s
    """

    deltas: tuple[int, ...]   # N * I * B/L
    vees: tuple[int, ...]     # L * S * pkt
    lambdas: tuple[int, ...]  # I * S * pkt

    @staticmethod
    def sizes(params: SystemParams, pda: Pda) -> tuple[int, int, int]:
        """The symbols of (deltas, vees, lambdas)."""
        subL, pkt = _dims(params, pda)
        I, S = params.I, pda.S
        return params.N * I * subL, params.L * S * pkt, I * S * pkt

    @classmethod
    def sample(cls, params: SystemParams, pda: Pda, rng: random.Random) -> "Randomness":
        """Uniform runs, drawn in field order: deltas, vees, lambdas."""
        return cls(*(tuple(draws(rng, params.q, size)) for size in cls.sizes(params, pda)))


# ---------- per-role containers ----------


@dataclass(frozen=True)
class ServerStore:
    """What one server holds: an evaluation of every file and key polynomial.

    ``coded_subfiles[n * B/L + m]`` is slice m of file n, and
    ``coded_keys[(s - 1) * pkt + r]`` is slice r of stream s.
    """

    h: int
    coded_subfiles: tuple[int, ...]  # N * B/L
    coded_keys: tuple[int, ...]      # S * B/(L*F)

    def symbols(self) -> tuple[int, ...]:
        """The whole store in decoder order: coded subfiles, then coded keys."""
        return self.coded_subfiles + self.coded_keys

    def symbol_count(self) -> int:
        return len(self.coded_subfiles) + len(self.coded_keys)


@dataclass(frozen=True)
class UserCache:
    """User k's cache: its blend vector, star-row packets, keyed packets.

    ``uncoded[j]``, for every star row j of the user's column, is packet
    j of every subfile: symbol r of subfile l of file n at
    (n*L + l)*pkt + r.  ``keys[j]``, for every ordinary row j, is the
    keyed blend packet: symbol r of data coefficient l at l*pkt + r.
    """

    k: int
    p: tuple[int, ...]
    uncoded: dict[int, tuple[int, ...]]  # N * L * pkt per star row
    keys: dict[int, tuple[int, ...]]     # L * pkt per ordinary row

    def symbol_count(self) -> int:
        """Cached symbols, excluding the N-symbol blend vector."""
        return (sum(map(len, self.uncoded.values()))
                + sum(map(len, self.keys.values())))


# ---------- coordinator and servers ----------


def build_storage(params: SystemParams, pda: Pda,
                  library: Library, randomness: Randomness) -> list[ServerStore]:
    """Every server's evaluation of every file and key polynomial.

    Slice m of file n has coefficients (subfile_1[m], ..., subfile_L[m],
    noise_1[m], ..., noise_I[m]), the noise read from ``deltas`` at
    (n*I + i)*B/L + m; slice r of stream s likewise with keys then masks,
    read from ``vees`` and ``lambdas`` at (l*S + s-1)*pkt + r and
    (i*S + s-1)*pkt + r.  Packet j of subfile l sits at slices
    j*pkt .. j*pkt+pkt-1.  Each randomness run must hold exactly the
    symbols its layout names.  The one-source case of ``_storages``.
    """
    return _storages(params, pda, [(library, randomness)])[0]


def _checked_sources(params: SystemParams, pda: Pda, sources) -> list:
    """``sources`` as a list of (library, randomness), each checked in turn.

    Each must hold N files of B symbols and randomness runs of the sizes
    ``Randomness.sizes`` names (``DimensionMismatch``).
    """
    N, B = params.N, params.B
    sizes = Randomness.sizes(params, pda)
    lengths = (B,) * N
    sources = list(sources)
    for library, randomness in sources:
        runs = randomness.deltas, randomness.vees, randomness.lambdas
        if tuple(map(len, library.files)) == lengths and tuple(map(len, runs)) == sizes:
            continue
        if len(library.files) != N:
            raise DimensionMismatch(f"library has {len(library.files)} files, expected {N}")
        for n, f in enumerate(library.files):
            if len(f) != B:
                raise DimensionMismatch(f"file {n + 1} has {len(f)} symbols, expected {B}")
        for name, run, size in zip(("deltas", "vees", "lambdas"), runs, sizes):
            if len(run) != size:
                raise DimensionMismatch(f"{name} must hold {size} symbols, got {len(run)}")
    return sources


def _storages(params: SystemParams, pda: Pda, sources) -> list[list[ServerStore]]:
    """``build_storage`` of each (library, randomness) in ``sources``, in order.

    A store is linear in the polynomials' coefficients, so every source's
    stores are computed at once in the slots of one integer, sized by
    ``rscode._Slots.for_sums`` for L + I products.  Coefficient i of
    every slice of every source is packed once, mod q by ``pack_mod``:
    slice w of source t, in the order of ``ServerStore.symbols``, in slot
    t*W + w, W being the symbols of one store.  Server h's stores are
    then the sum over i of a_h^i mod q times coefficient i's integer,
    reduced and unpacked once and cut per source.  The sources are
    checked in order before any is built.
    """
    subL, pkt = _dims(params, pda)
    N, I, L, S, q = params.N, params.I, params.L, pda.S, params.q
    sources = _checked_sources(params, pda, sources)
    files_at, keys_at = N * subL, S * pkt  # one store's coded subfiles and keys
    W, T = files_at + keys_at, len(sources)
    if not T:
        return []

    def coefficients(library, randomness) -> list:
        """Per coefficient i, its value at every slice of one source, in store order."""
        files, deltas = library.files, randomness.deltas
        return ([list(chain(chain.from_iterable(f[l * subL:l * subL + subL] for f in files),
                            randomness.vees[l * keys_at:l * keys_at + keys_at]))
                 for l in range(L)]
                + [list(chain(chain.from_iterable(deltas[(n * I + i) * subL:(n * I + i + 1) * subL]
                                                  for n in range(N)),
                              randomness.lambdas[i * keys_at:i * keys_at + keys_at]))
                   for i in range(I)])

    slots = rscode._Slots.for_sums(q, L + I)
    masks = slots.masks(W * T)
    per_source = [coefficients(library, randomness) for library, randomness in sources]
    coeffs = [slots.pack_mod(list(chain.from_iterable(mine[i] for mine in per_source)), masks)
              for i in range(L + I)]
    stores = [[] for _ in sources]
    for h, a in enumerate(params.points.alphas, start=1):
        values = slots.unpack(slots.reduce(
            sum(pow(a, i, q) * c for i, c in enumerate(coeffs)), masks), W * T)
        for t, mine in enumerate(stores):
            base = t * W
            mine.append(ServerStore(h, tuple(values[base:base + files_at]),
                                    tuple(values[base + files_at:base + W])))
    return stores


def place_user(params: SystemParams, pda: Pda, library: Library,
               randomness: Randomness, k: int, p_k) -> UserCache:
    """User k's cache, for its blend vector p_k taken mod q.

    The one-source case of ``_placements``.
    """
    return _placements(params, pda, [(library, randomness, p_k)], k)[0]


def _placements(params: SystemParams, pda: Pda, sources, k: int) -> list[UserCache]:
    """``place_user`` of user k for each (library, randomness, p_k) in ``sources``, in order.

    The libraries and randomness are checked in order as ``_storages``
    checks them, then k, then each blend vector, before any cache is
    built.  A star row j caches packet j of every subfile as it is
    stored; an ordinary row j with symbol e caches, for each data
    coefficient l, the key of stream e plus packet j of subfile l of the
    files blended by p_k, mod q.
    """
    subL, pkt = _dims(params, pda)
    N, L, S, q = params.N, params.L, pda.S, params.q
    sources = list(sources)
    _checked_sources(params, pda, [(library, randomness) for library, randomness, _ in sources])
    if not 1 <= k <= params.K:
        raise ProtocolError(f"user index {k} outside [1..{params.K}]")
    blends = []
    for _, _, p_k in sources:
        p = tuple(v % q for v in p_k)
        if len(p) != N:
            raise DimensionMismatch(f"blend vector must hold {N} symbols")
        blends.append(p)
    # per row, packet j of each subfile starts at l*B/L + j*pkt; a keyed
    # row's key of data coefficient l at (l*S + e-1)*pkt
    stars, keyed = [], []
    for j, e in enumerate(pda.column(k - 1)):
        starts = [l * subL + j * pkt for l in range(L)]
        if e is STAR:
            stars.append((j, starts))
        else:
            keyed.append((j, [(o, (l * S + e - 1) * pkt) for l, o in enumerate(starts)]))
    caches = []
    for (library, randomness, _), p in zip(sources, blends):
        files, vees = library.files, randomness.vees
        blend = [(pn, f) for pn, f in zip(p, files) if pn]
        keys = {}
        for j, offsets in keyed:
            packet = []
            for o, at in offsets:
                for r in range(pkt):
                    acc = vees[at + r]
                    for pn, f in blend:
                        acc += pn * f[o + r]
                    packet.append(acc % q)
            keys[j] = tuple(packet)
        uncoded = {j: tuple(chain.from_iterable(f[o:o + pkt] for f in files for o in starts))
                   for j, starts in stars}
        caches.append(UserCache(k=k, p=p, uncoded=uncoded, keys=keys))
    return caches


def make_query(params: SystemParams, d_k, p_k) -> tuple[int, ...]:
    """What user k sends to every server: its demand shifted by its blend."""
    q = params.q
    if q is None:
        raise ProtocolError("q is not set")
    if len(d_k) != params.N or len(p_k) != params.N:
        raise DimensionMismatch(f"demand and blend vectors must hold {params.N} symbols")
    return tuple((d + p) % q for d, p in zip(d_k, p_k))


def _checked_queries(params: SystemParams, queries) -> tuple:
    """The K queries as a tuple; each must hold N residues."""
    queries = tuple(queries)
    if len(queries) != params.K:
        raise DimensionMismatch(f"need {params.K} queries, got {len(queries)}")
    for k, query in enumerate(queries, start=1):
        if len(query) != params.N:
            raise DimensionMismatch(
                f"query of user {k} must hold {params.N} symbols, got {len(query)}")
    return queries


def server_signal(params: SystemParams, pda: Pda,
                  store: ServerStore, queries) -> tuple[int, ...]:
    """Server h's answer to the K queries: slice r of stream s at (s-1)*pkt + r.

    The one-store, one-query-set case of ``_server_columns``.
    """
    return tuple(_server_columns(params, pda, [store], [queries])[0])


def _spaced(slots: rscode._Slots, values, step: int) -> int:
    """``values`` mod q packed ``step`` slots apart, from slot 0."""
    padded = [0] * (len(values) * step - step + 1)
    padded[::step] = values
    return slots.pack_mod(padded, slots.masks(len(padded)))


def _cut(slots: rscode._Slots, packed: int, size: int, count: int) -> list[int]:
    """``count`` blocks of ``size`` slots each, cut from ``packed`` in order."""
    width = slots.size * size
    raw = packed.to_bytes(width * count, "little")
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, width * count, width)]


def _server_columns(params: SystemParams, pda: Pda, stores,
                    queries_list) -> list[list[int]]:
    """Each store's answers to every entry of ``queries_list``, chained in order, in store order.

    A store's column holds its answer to each entry in turn, one delivery
    each: word ``(d*S + s-1)*pkt + r`` is slice r of stream s of delivery
    d, which is the coded key plus, for each occurrence (j, v) of stream
    symbol s, query v's blend of the files' slice j*pkt + r, mod q.  An
    answer is linear in the queries and in the store, so the D deliveries
    of all H stores are computed at once in the slots of one integer,
    sized by ``rscode._Slots.for_sums`` for a key plus every occurrence's
    N products: word w of delivery d of the t-th store is slot
    (w*D + d)*H + t.  Query v's coefficient of file n is packed once,
    delivery d in slot d*H, and every coded subfile slice once, store t in
    slot t; word w is then one multiply-add per (occurrence, file) for
    every delivery and store, shifted to slot w*D*H.  Every pack is
    ``pack_mod``'s, so queries and stores are taken mod q.  The whole is
    reduced and unpacked once, and each store's values are put in
    delivery order.  The stores are checked before the queries.
    """
    subL, pkt = _dims(params, pda)
    N, K, q = params.N, params.K, params.q
    for st in stores:
        if len(st.coded_subfiles) != N * subL or len(st.coded_keys) != pda.S * pkt:
            raise DimensionMismatch(f"contents of server {st.h} have the wrong shape")
    queries_list = [_checked_queries(params, queries) for queries in queries_list]
    words, D, H = pda.S * pkt, len(queries_list), len(stores)
    if not (words and D and H):
        return [[] for _ in stores]
    occurrences = [pda.occurrences(s) for s in range(1, pda.S + 1)]
    slots = rscode._Slots.for_sums(q, 1 + N * max(map(len, occurrences)))
    block = D * H  # slots of one word
    # per user, its query coefficient of each file for every delivery
    packed = _cut(slots, _spaced(slots, [x for v in range(K) for x in chain.from_iterable(
        zip(*(queries[v] for queries in queries_list)))], H), block, K * N)
    coeffs = [packed[v * N:v * N + N] for v in range(K)]
    # slice m of every file, the subfile symbols n*B/L + m of every store
    symbols = _cut(slots, slots.pack_mod(list(chain.from_iterable(
        zip(*(st.coded_subfiles for st in stores)))), slots.masks(N * subL * H)), H, N * subL)
    slices = [symbols[m::subL] for m in range(subL)]
    # word w's key of every store, once per delivery
    masks = slots.masks(words * block)
    total = slots.pack_mod(list(chain.from_iterable(
        key * D for key in zip(*(st.coded_keys for st in stores)))), masks)
    for w in range(words):
        s, r = divmod(w, pkt)
        acc = 0
        for j, v in occurrences[s]:
            acc += sum(map(mul, coeffs[v], slices[j * pkt + r]))
        total += acc << 8 * slots.size * block * w
    values = slots.unpack(slots.reduce(total, masks), words * block)
    return [list(chain.from_iterable(zip(*(mine[w * D:w * D + D] for w in range(words)))))
            for mine in (values[t::H] for t in range(H))]


# ---------- adversaries ----------
#
# A strategy's ``corrupt(column, runs, q, rng)`` returns its replacement
# for a column of honest symbols that splits into ``runs`` equal runs,
# each keeping its size; a run is one answer or one store.  ``rng`` is a
# ``random.Random`` for a strategy whose class constant ``draws`` is
# True, and None for one that does not draw.  ``adversary_column`` makes
# one call per column; ``adversary_signal`` and ``adversary_content``
# are its one-run cases.


@dataclass(frozen=True)
class UniformRandom:
    """Replace every symbol with a fresh uniform draw."""

    seed: int = 0

    label = "uniform_random"
    draws = True

    def corrupt(self, column, runs, q, rng):
        # the module's draws: a method does not see its class's attributes
        return draws(rng, q, len(column))


@dataclass(frozen=True)
class ZeroPayload:
    """Send all zeros of the honest size."""

    label = "zero_payload"
    draws = False

    def corrupt(self, column, runs, q, rng):
        return [0] * len(column)


@dataclass(frozen=True)
class HonestPlusConstant:
    """Shift every honest symbol by a fixed constant."""

    constant: int = 1

    label = "honest_plus_constant"
    draws = False

    def corrupt(self, column, runs, q, rng):
        return [(x + self.constant) % q for x in column]


@dataclass(frozen=True)
class HonestPermutedSlices:
    """Send each run's honest symbols cyclically rotated by one slice."""

    label = "honest_permuted_slices"
    draws = False

    def corrupt(self, column, runs, q, rng):
        if not column:
            return []
        # the whole column rotated by one, then each run's last symbol
        # set to that run's first
        size = len(column) // runs
        out = list(column[1:]) + [column[0]]
        out[size - 1::size] = column[::size]
        return out


ALL_STRATEGIES = (UniformRandom(), ZeroPayload(), HonestPlusConstant(1),
                  HonestPermutedSlices())

STRATEGY_NAMES = {s.label: type(s) for s in ALL_STRATEGIES}


def strategy_key(strategy) -> str:
    """Stable text form, used for deterministic per-config seeding.

    The label, then the value of every dataclass field, in field order.
    """
    return ":".join([strategy.label]
                    + [str(getattr(strategy, f.name)) for f in fields(strategy)])


def adversary_column(params: SystemParams, strategy, column, runs: int, rng) -> list[int]:
    """A server's corrupted column, from its honest column of ``runs`` equal runs.

    One ``strategy.corrupt`` call, with ``rng``, corrupts the whole
    column.  On a server's chained answers the runs are its deliveries.
    """
    if runs < 1 or len(column) % runs:
        raise DimensionMismatch(f"a column of {len(column)} symbols is not "
                                f"{runs} equal runs")
    corrupted = strategy.corrupt(column, runs, params.q, rng)
    if len(corrupted) != len(column):
        raise ProtocolError("corruption must preserve the size")
    return corrupted


def adversary_signal(params: SystemParams, strategy, honest: tuple[int, ...],
                     rng: random.Random | None) -> tuple[int, ...]:
    """A corrupted answer, transformed from the server's own honest answer."""
    return tuple(adversary_column(params, strategy, honest, 1, rng))


def adversary_content(params: SystemParams, strategy, store: ServerStore,
                      rng: random.Random | None) -> ServerStore:
    """Corrupted stored contents of the honest shape, from the store alone."""
    n = len(store.coded_subfiles)
    flat = adversary_column(params, strategy, store.symbols(), 1, rng)
    return ServerStore(h=store.h, coded_subfiles=tuple(flat[:n]),
                       coded_keys=tuple(flat[n:]))


# ---------- decoding ----------


@dataclass(frozen=True, eq=False)
class _DecodedRun:
    """``count`` decoded words of a batch from word ``start`` on, kept packed.

    ``rows[l]`` holds data coefficient l of every word of the batch, word
    w in slot w of ``slots``, 0 at a failed word; ``failures`` maps each
    failing word of these to its ``DecodingFailure``.  They split into
    runs of ``words`` words each: deliveries or sets.
    """

    slots: rscode._Slots
    rows: list[int]
    start: int
    count: int
    failures: dict[int, rscode.DecodingFailure]
    words: int  # per run

    def _packed(self, start: int, count: int) -> list[int]:
        """Each data row's words start .. start+count-1 of the batch, packed from slot 0."""
        bits = 8 * self.slots.size
        mask = (1 << bits * count) - 1
        return [row >> bits * start & mask for row in self.rows]

    def _failure(self, words):
        """The failure of the first failing word among ``words``, ascending, or None."""
        if self.failures:
            for w in words:
                if w in self.failures:
                    return self.failures[w]
        return None

    def differing(self, other: "_DecodedRun", times: int) -> set[int]:
        """The runs of this batch that are not ``times`` copies of ``other``'s.

        Run i is in the set when it holds a failed word, or when some data
        row's slot there differs from ``other``'s run i mod its runs.
        Slots hold canonical residues, so each data row xor ``times``
        copies of ``other``'s, by ``_Slots.repeat``, is nonzero exactly in
        the differing slots.  ``other`` must hold no failure.
        """
        if other.failures or self.count != times * other.count:
            raise ValueError(f"no reference for {times} copies: {len(other.failures)} failed "
                             f"words, {other.count} words for {self.count}")
        bits, run, diff = 8 * self.slots.size, self.words, 0
        for mine, theirs in zip(self._packed(self.start, self.count),
                                other._packed(other.start, other.count)):
            diff |= mine ^ self.slots.repeat(theirs, other.count, times)
        out = {(w - self.start) // run for w in self.failures}
        while diff:
            i = self.slots.lowest(diff) // run
            out.add(i)
            diff = diff >> bits * run * (i + 1) << bits * run * (i + 1)  # runs 0..i dropped
        return out


@dataclass(frozen=True, eq=False)
class DecodedStreams(_DecodedRun):
    """A batch of deliveries' multicast streams, decoded once for all users.

    Word ``(d * S + s - 1) * pkt + r`` is slice r of stream s of delivery
    d, and each delivery holds ``words`` = S * pkt of them; with S = 0
    none, so any d >= 0 is in the batch.  Slot w of ``rows[l]`` is data
    coefficient l of word w: the keyed multicast symbol every user in the
    stream's occurrence set receives, or 0 where the word could not be
    decoded; ``failures`` maps each such word to its ``DecodingFailure``.
    ``user_decode`` reads a user's slots of one delivery from the rows.
    ``flagged[h]`` is the set of decoded words in which server h's symbol
    is off its codeword; servers never flagged are absent.  ``masks[h]``
    holds the full slots of server h's flagged words, and ``flagged`` is
    unpacked from them on first read.
    """

    masks: dict[int, int]

    @cached_property
    def flagged(self) -> dict[int, set[int]]:
        stream = (1 << 8 * self.slots.size * self.count) - 1
        return {h: set(compress(range(self.count), self.slots.unpack(f & stream, self.count)))
                for h, f in self.masks.items() if f & stream}


@dataclass(frozen=True, eq=False)
class DecodedLibraries(_DecodedRun, Sequence):
    """Per set of a batch of stored contents, its ``Library`` or failure, built on access.

    Set i is the ``words`` = N * B/L words from ``start + i*words`` on: file
    n's slices of each data row, file by file.  A failing set gives the
    ``DecodingFailure`` of its lowest failing slice.
    """

    files: int  # N

    def __len__(self) -> int:
        return self.count // self.words

    def __getitem__(self, i: int):
        sets = len(self)
        if not -sets <= i < sets:
            raise IndexError(f"set {i} outside the batch of {sets}")
        first = self.start + i % sets * self.words
        failure = self._failure(range(first, first + self.words))
        if failure is not None:
            return failure
        rows = [self.slots.unpack(row, self.words) for row in self._packed(first, self.words)]
        subL = self.words // self.files
        return Library(tuple(tuple(chain.from_iterable(row[o:o + subL] for row in rows))
                             for o in range(0, self.words, subL)))


def decode_group(params: SystemParams, pda: Pda | None, columns,
                 stores) -> tuple[DecodedStreams | None, DecodedLibraries | None]:
    """Decode a group's deliveries and stored contents from J servers, <= A corrupt, at once.

    ``columns`` maps each of J servers to its answers to a batch of
    deliveries chained in delivery order, as ``decode_streams`` takes
    them, and ``stores`` maps the same servers to their ``ServerStore``
    in every set, as ``recover_library`` takes them.  Stream words and
    coded subfiles are words of the same MDS code at the same points, so
    server h's stream words, then the coded subfiles of its sets in set
    order, are packed by one ``pack_mod``, and ``_decode_packed_group``
    decodes them all: an adversary that corrupts both parts is located
    once.  Returns ``(streams, libraries)``: the ``DecodedStreams`` of
    the stream words alone, with their failures and flags only, and the
    ``DecodedLibraries`` of the store words, which gives per set its
    ``Library`` or the ``DecodingFailure`` of its lowest failing slice.
    Both keep the decoded words packed, and each side's ``differing``
    compares it with another batch's without unpacking them.  Either
    side may be None, when it is neither checked nor decoded and its
    result is None; ``decode_streams`` and ``recover_library`` are those
    one-sided cases.  The stores are checked before the columns.
    """
    streamed, words, sets = _checked_group(params, pda, columns, stores, params.J)
    slots = rscode._Slots.for_sums(params.q, params.J)
    masks = slots.masks((streamed or 0) + (sets or 0) * params.N * (params.B // params.L))
    columns, stores = columns or {}, stores or {}
    return _decode_packed_group(params, {h: slots.pack_mod(
        [*columns.get(h, ()), *chain.from_iterable(st.coded_subfiles for st in stores.get(h, ()))],
        masks) for h in columns or stores}, streamed, words, sets)


def _checked_group(params: SystemParams, pda: Pda | None, columns, stores, servers: int):
    """``decode_group``'s checks of ``servers`` servers; (stream words, delivery words, sets)."""
    if columns is None and stores is None:
        raise ProtocolError("a group needs columns or stores")
    streamed = words = sets = None
    if stores is not None:
        if params.q is None or params.B is None:
            raise ProtocolError("protocol operations need q and B")
        L, N = params.L, params.N
        if params.B % L:
            raise DimensionMismatch(f"B={params.B} is not divisible by L={L}")
        size = N * (params.B // L)
        if len(stores) != servers:
            raise ProtocolError(f"need contents of {servers} servers, got {len(stores)}")
        for h, held in stores.items():
            if not (_is_int(h) and 1 <= h <= params.H):
                raise ProtocolError(f"server {h!r} outside [1..{params.H}]")
            for st in held:
                # a store whose h is the checked key object itself needs no more
                if st.h is not h and not (_is_int(st.h) and st.h == h):
                    raise ProtocolError(f"contents of server {st.h!r} in the sets of server {h}")
                if len(st.coded_subfiles) != size:
                    raise DimensionMismatch(f"contents of server {h} have the wrong shape")
        positions = sorted(stores)
        counts = {len(stores[h]) for h in positions}
        if len(counts) != 1:
            raise ProtocolError(f"servers {positions} must hold the same number of sets")
        sets = counts.pop()
    if columns is not None:
        words = pda.S * _dims(params, pda)[1]
        if len(columns) != servers:
            raise MissingSignals(f"need signals from {servers} servers, got {len(columns)}")
        for h in columns:
            if not (_is_int(h) and 1 <= h <= params.H):
                raise MissingSignals(f"signal origin {h!r} outside [1..{params.H}]")
        positions = sorted(columns)
        lengths = {len(col) for col in columns.values()}
        whole = all(n % words == 0 for n in lengths) if words else lengths == {0}
        if len(lengths) != 1 or not whole:
            raise MissingSignals(f"servers {positions} must answer the same whole deliveries")
        if stores is not None and set(stores) != set(columns):
            raise ProtocolError(f"columns of servers {positions} and contents of servers "
                                f"{sorted(stores)} are no group")
        streamed = lengths.pop()
    return streamed, words, sets


def _decode_packed_group(params: SystemParams, columns, streamed: int | None,
                         words: int | None, sets: int | None):
    """``decode_group`` on each server's words packed below q, in ``_Slots.for_sums(q, J)``.

    ``streamed`` stream words, ``words`` a delivery, then N * B/L per set
    of ``sets``; a side whose count is None is not decoded.
    """
    size, first = params.N * (params.B // params.L), streamed or 0
    positions = sorted(columns)
    slots, rows, flags, failed = rscode._decode_packed(
        params.points, positions, params.I + params.L, params.A,
        [columns[h] for h in positions], first + (sets or 0) * size, rows=params.L)
    streams = libraries = None
    if streamed is not None:
        streams = DecodedStreams(slots, rows, 0, first,
                                 {w: f for w, f in failed.items() if w < first}, words,
                                 {h: f for h, f in zip(positions, flags) if f})
    if sets is not None:
        libraries = DecodedLibraries(slots, rows, first, sets * size,
                                     {w: f for w, f in failed.items() if w >= first},
                                     size, params.N)
    return streams, libraries


def decode_streams(params: SystemParams, pda: Pda, columns) -> DecodedStreams:
    """Decode every word of a batch of deliveries from J servers' columns, <= A corrupt.

    ``columns`` maps each of J servers, an integer in [1..H], to its
    answers to a batch of deliveries chained in delivery order: word
    ``(d * S + s - 1) * pkt + r`` is slice r of stream s of delivery d.
    Every column must hold the same whole number of deliveries.  The
    stream side of ``decode_group``.
    """
    return decode_group(params, pda, columns, None)[0]


def recover_library(params: SystemParams, stores) -> list:
    """Rebuild the whole library from each set of a batch of J servers' contents, <= A corrupt.

    Slice by slice, the J evaluations of each file polynomial form an
    MDS codeword of dimension I + L whose first L coefficients are the
    subfile symbols.  ``stores`` maps each of J servers to its
    ``ServerStore`` in every set, in set order; every server must hold
    the same number of sets.  The store side of ``decode_group``.
    Returns a list holding, per set, its ``Library`` or the
    ``DecodingFailure`` of its lowest failing slice.
    """
    return list(decode_group(params, None, None, stores)[1])


@dataclass(frozen=True)
class CacheSide:
    """User k's part of decoding one demand that needs no delivery.

    ``reads`` pairs each word of a delivery that the user reads, one per
    slice of each stream symbol of its column, ascending, with the output
    symbol that the word's data coefficient 0 adds to; coefficient l adds
    to the one ``stride`` = B/L times l further on.  ``values[b]`` is, on
    a star row, output symbol b itself: the demanded blend of the cached
    packets.  On an ordinary row it is minus the keyed blend packet and
    minus every interfering blend packet, so adding the decoded stream
    symbol yields the output.
    """

    k: int
    reads: tuple[tuple[int, int], ...]
    stride: int
    values: tuple[int, ...]


def cache_side(params: SystemParams, pda: Pda, cache: UserCache,
               d_k, queries) -> CacheSide:
    """Check the queries the servers answered; build user k's cache side for d_k.

    For each stream symbol in its column, the user subtracts its keyed
    blend packet and, for every other occurrence of the symbol, the
    interfering blend packet it can rebuild from star-row cache entries;
    both depend only on the cache, the demand and the queries.  The
    one-demand case of ``_cache_sides``.
    """
    side, = _cache_sides(params, pda, cache, [d_k], [queries])
    if isinstance(side, ProtocolError):
        raise side
    return side


def _cache_sides(params: SystemParams, pda: Pda, cache: UserCache,
                 demands, queries_list) -> list:
    """User k's cache side for each of its demands against that demand's K queries, at once.

    Entry d is what ``cache_side`` builds for ``demands[d]`` and
    ``queries_list[d]``, or the ``ProtocolError`` it raises for them: a
    query set that is no K queries of N residues, a demand that is not N
    residues, or a query of user k that is not its demand + blend fails
    only that entry.  A side's values are linear in the demand and the
    queries, so those of the other D entries are computed at once in the
    slots of one integer, sized by ``rscode._Slots.for_sums`` for the
    longest sum of one output.  Row j's output (l, r), output symbol
    l*B/L + j*pkt + r, is slot (j*L*pkt + l*pkt + r)*D + d for entry d,
    the order in which a star row's run holds each file's symbols.  So
    each file's demand or query coefficients are packed over the entries,
    slot d, each star-row run is packed with its symbols D slots apart,
    mod q by ``pack_mod``, and one product of the two adds a file's part
    of a whole row for every entry.  An interfering packet is subtracted as its query's
    coefficients negated mod q times the packet.  The whole is reduced
    and unpacked once, then cut into each entry's values.
    """
    subL, pkt = _dims(params, pda)
    N, L, q = params.N, params.L, params.q
    k0 = cache.k - 1
    out, good = [], []
    for d_k, queries in zip(demands, queries_list):
        try:
            queries = _checked_queries(params, queries)
            if len(d_k) != N:
                raise DimensionMismatch(f"demand vector must hold {N} symbols")
            if tuple(queries[k0]) != tuple((d + p) % q for d, p in zip(d_k, cache.p)):
                raise ProtocolError(f"query of user {cache.k} does not match demand + blend")
        except ProtocolError as exc:
            out.append(exc)
        else:
            out.append(None)
            good.append((d_k, queries))
    if not good:
        return out

    col = pda.column(k0)
    # per ordinary row, the other occurrences of its symbol: (star row, user)
    others = {j: [(u, v) for u, v in pda.occurrences(e) if u != j]
              for j, e in enumerate(col) if e is not STAR}
    users = sorted({v for occ in others.values() for _, v in occ})
    slots = rscode._Slots.for_sums(q, max([N] + [1 + N * len(o) for o in others.values()]))
    D, step = len(good), L * pkt  # step: a row's outputs, a file's symbols in a star run
    # each file's coefficients over the entries, entry d in slot d: the
    # demand's, then each interfering query's negated, packed at once
    entries = [list(d_k) + [-x for v in users for x in queries[v]] for d_k, queries in good]
    coeffs = _cut(slots, slots.pack([x % q for row in zip(*entries) for x in row]), D,
                  N * (1 + len(users)))
    negated = {v: coeffs[N * t:N * t + N] for t, v in enumerate(users, start=1)}
    # each star row's run, one block per file, packed at once
    stars = [u for u, e in enumerate(col) if e is STAR]
    blocks = _cut(slots, _spaced(slots, [x for u in stars for x in cache.uncoded[u]], D),
                  step * D, N * len(stars))
    runs = {u: blocks[N * t:N * t + N] for t, u in enumerate(stars)}
    total, keyed = 0, []  # keyed: each row's negated keyed packet, 0 on a star row
    for j, e in enumerate(col):
        if e is STAR:
            acc = sum(map(mul, coeffs, runs[j]))  # the first N: the demand's
            keyed += [0] * step
        else:
            acc = 0
            for u, v in others[j]:
                acc += sum(map(mul, negated[v], runs[u]))
            keyed += [-x % q for x in cache.keys[j]]
        total += acc << 8 * slots.size * D * step * j
    total += _spaced(slots, keyed, D) * slots.pack([1] * D)
    by_row = slots.unpack(slots.reduce(total, slots.masks(params.B * D)), params.B * D)
    # output l*B/L + j*pkt + r is symbol o = j*step + l*pkt + r of the rows,
    # its D entries at slots o*D onward
    values = list(chain.from_iterable(by_row[o * D:o * D + D]
                                      for l in range(L) for j in range(pda.F)
                                      for o in range(j * step + l * pkt, (j * L + l + 1) * pkt)))
    # slice r of stream e, in row j: word (e-1)*pkt + r, output j*pkt + r of coefficient 0
    reads = tuple(((e - 1) * pkt + r, j * pkt + r)
                  for e, j in sorted((e, j) for j, e in enumerate(col) if e is not STAR)
                  for r in range(pkt))
    sides = iter([CacheSide(k=cache.k, reads=reads, stride=subL,
                            values=tuple(values[t::D]))
                  for t in range(D)])
    return [next(sides) if side is None else side for side in out]


def user_decode(params: SystemParams, side: CacheSide,
                streams: DecodedStreams, d: int) -> list[int]:
    """Recover the demanded blend of files: delivery d's decoded streams plus the cache side.

    Each word the side reads is one slot of every data row, cut from
    delivery d of the batch; ``cache_side`` checked the instance when it
    built the side.  A delivery outside the batch raises
    ``MissingSignals``, and a side that reads past the delivery's words
    ``DimensionMismatch``.  If a word the user reads failed, raises the
    failure of the first such word: the lowest failing stream of the
    user's column, at its first failing slice.
    """
    words = streams.words
    if d < 0 or (d + 1) * words > streams.count:
        raise MissingSignals(f"deliveries {d}..{d} lie outside the batch")
    if side.reads and side.reads[-1][0] >= words:
        raise DimensionMismatch(f"user {side.k} reads word {side.reads[-1][0]}, "
                                f"but a delivery holds {words}")
    base = d * words
    failure = streams._failure(base + w for w, _ in side.reads)
    if failure is not None:
        raise rscode.DecodingFailure(*failure.args) from failure

    bits = 8 * streams.slots.size
    slot = (1 << bits) - 1
    q = params.q
    out = list(side.values)
    for l, row in enumerate(streams._packed(base, words)):
        off = l * side.stride
        for w, b in side.reads:
            out[off + b] = (out[off + b] + (row >> bits * w & slot)) % q
    return out


# ---------- configuration ----------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int(value, what: str) -> int:
    if not _is_int(value):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(values, what: str) -> tuple[int, ...]:
    if not (isinstance(values, list) and all(_is_int(v) for v in values)):
        raise ConfigError(f"{what} must be a list of integers, got {values!r}")
    return tuple(values)


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of a config or pda file; unreadable input is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_config(path: str | Path) -> dict:
    """The JSON object in a config file; anything else is a ConfigError."""
    text = read_text(path, "config")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return doc


def params_from_json(doc: dict, base_dir: str | Path | None = None
                     ) -> tuple[SystemParams, Pda | None]:
    """Build (SystemParams, Pda) from a config mapping.

    Required integer fields: N, K, H, A, I, J.  Optional: q, B, seed.
    Optional "pda": a file path, {"man": {"k":.., "t":.., "seed":..}},
    or {"grid": "..."} with the text format inline.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    known = {"N", "K", "H", "A", "I", "J", "q", "B", "seed", "pda"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    kwargs = {}
    for name in ("N", "K", "H", "A", "I", "J", "q", "B", "seed"):
        if name in doc:
            kwargs[name] = _int(doc[name], f"config field {name!r}")
        elif name not in ("q", "B", "seed"):
            raise ConfigError(f"missing config field {name!r}")
    try:
        params = SystemParams(**kwargs)
    except (ProtocolError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    spec = doc.get("pda")
    if spec is None:
        return params, None
    try:
        arr = _pda_from_json(spec, base_dir)
    except pda_mod.PdaError as exc:
        raise ConfigError(f"invalid pda: {exc}") from exc
    if arr.K != params.K:
        raise ConfigError(f"pda has {arr.K} columns but params.K={params.K}")
    if params.q is not None and params.B is not None:
        try:
            _dims(params, arr)
        except DimensionMismatch as exc:
            raise ConfigError(str(exc)) from exc
    return params, arr


def _pda_from_json(spec, base_dir) -> Pda:
    if isinstance(spec, str):
        path = Path(spec)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return pda_mod.parse(read_text(path, "pda file"))
    if isinstance(spec, dict) and set(spec) == {"man"}:
        man = spec["man"]
        if not (isinstance(man, dict) and {"k", "t"} <= set(man) <= {"k", "t", "seed"}):
            raise ConfigError('pda "man" takes integer fields "k", "t" and optionally "seed"')
        seed = man.get("seed")
        return pda_mod.man_pda(_int(man["k"], 'pda "man" field "k"'),
                               _int(man["t"], 'pda "man" field "t"'),
                               None if seed is None else _int(seed, 'pda "man" field "seed"'))
    if isinstance(spec, dict) and set(spec) == {"grid"} and isinstance(spec["grid"], str):
        return pda_mod.parse(spec["grid"])
    raise ConfigError('config field "pda" must be a path, {"man": ...} or {"grid": "..."}')


# the fields of a scenario file; its "params" object is a parameter config
SCENARIO_FIELDS = frozenset({"params", "demands", "delivery", "adversaries",
                             "strategy", "library", "sweep"})


def load_config(path: str | Path) -> tuple[SystemParams, Pda | None]:
    """(SystemParams, Pda) of a config file, params at its top level or under "params".

    Next to an object "params", only the other scenario fields may appear.
    """
    doc = read_config(path)
    if isinstance(doc.get("params"), dict):
        for key in doc:
            if key not in SCENARIO_FIELDS:
                raise ConfigError(f"unknown scenario field {key!r}")
        doc = doc["params"]
    return params_from_json(doc, base_dir=Path(path).parent)


def with_seed(params: SystemParams, seed: int) -> SystemParams:
    return replace(params, seed=seed)
