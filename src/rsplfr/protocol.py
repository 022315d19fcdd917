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
container's docstring gives its flat order: ``Randomness``, whose
``sizes`` are its run sizes, in the order ``build_storage`` reads it;
``ServerStore`` and ``Signal`` in the order the decoder reads them, each
word across any J servers one MDS codeword; ``UserCache`` one run per
array row.

Deliveries are decoded on one path: ``stream_column`` chains one
server's answers to a batch of deliveries into a column, checking each
answer, and ``decode_streams`` decodes the columns of J servers into one
``DecodedStreams``, slice r of stream s of delivery d at word
(d*S + s-1)*pkt + r.  ``user_decode`` reads one delivery from it.
Stored contents are decoded the same way: ``recover_library`` decodes a
batch of J-store sets from the same servers in one call and returns
each set's library or failure.  A word's decode never depends on the
rest of its batch, so a batch may hold any deliveries or sets that
share their servers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from pathlib import Path

from . import pda as pda_mod
from . import rscode
from .ff import horner
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


@dataclass(frozen=True)
class Library:
    """N files of B symbols each."""

    files: tuple[tuple[int, ...], ...]

    @classmethod
    def random(cls, params: SystemParams, rng: random.Random) -> "Library":
        q, B = params.q, params.B
        return cls(tuple(tuple(rng.randrange(q) for _ in range(B))
                         for _ in range(params.N)))

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
        q = params.q
        return cls(*(tuple(rng.randrange(q) for _ in range(size))
                     for size in cls.sizes(params, pda)))


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


@dataclass(frozen=True)
class Signal:
    """One server's answer: one packet per stream.

    ``payload[(s - 1) * pkt + r]`` is slice r of stream s.  ``honest``
    is simulator bookkeeping only; decoders never read it.
    """

    h: int
    payload: tuple[int, ...]  # S * B/(L*F)
    honest: bool = True

    def payload_symbols(self) -> int:
        return len(self.payload)


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
    symbols its layout names.
    """
    subL, pkt = _dims(params, pda)
    N, I, L, S = params.N, params.I, params.L, pda.S
    if len(library.files) != N:
        raise DimensionMismatch(f"library has {len(library.files)} files, expected {N}")
    for n, f in enumerate(library.files):
        if len(f) != params.B:
            raise DimensionMismatch(f"file {n + 1} has {len(f)} symbols, expected {params.B}")
    deltas, vees, lambdas = runs = randomness.deltas, randomness.vees, randomness.lambdas
    for f, run, size in zip(fields(Randomness), runs, Randomness.sizes(params, pda)):
        if len(run) != size:
            raise DimensionMismatch(f"{f.name} must hold {size} symbols, got {len(run)}")
    file_coeffs = [[library.files[n][l * subL + m] for l in range(L)]
                   + [deltas[(n * I + i) * subL + m] for i in range(I)]
                   for n in range(N) for m in range(subL)]
    key_coeffs = [[vees[(l * S + s) * pkt + r] for l in range(L)]
                  + [lambdas[(i * S + s) * pkt + r] for i in range(I)]
                  for s in range(S) for r in range(pkt)]
    q = params.q
    return [ServerStore(h, tuple(horner(coeffs, a, q) for coeffs in file_coeffs),
                        tuple(horner(coeffs, a, q) for coeffs in key_coeffs))
            for h, a in enumerate(params.points.alphas, start=1)]


def place_user(params: SystemParams, pda: Pda, library: Library,
               randomness: Randomness, k: int, p_k) -> UserCache:
    subL, pkt = _dims(params, pda)
    N, L, S = params.N, params.L, pda.S
    q = params.q
    if not 1 <= k <= params.K:
        raise ProtocolError(f"user index {k} outside [1..{params.K}]")
    p = tuple(v % q for v in p_k)
    if len(p) != N:
        raise DimensionMismatch(f"blend vector must hold {N} symbols")
    k0 = k - 1
    uncoded = {}
    keys = {}
    for j in range(pda.F):
        e = pda.entries[j][k0]
        if e is STAR:
            uncoded[j] = tuple(chain.from_iterable(
                library.files[n][l * subL + j * pkt:l * subL + j * pkt + pkt]
                for n in range(N) for l in range(L)))
        else:
            packet = []
            for l in range(L):
                off = l * subL + j * pkt
                for r in range(pkt):
                    acc = randomness.vees[(l * S + e - 1) * pkt + r]
                    for n in range(N):
                        pn = p[n]
                        if pn:
                            acc += pn * library.files[n][off + r]
                    packet.append(acc % q)
            keys[j] = tuple(packet)
    return UserCache(k=k, p=p, uncoded=uncoded, keys=keys)


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
                  store: ServerStore, queries) -> Signal:
    subL, pkt = _dims(params, pda)
    N, q = params.N, params.q
    queries = _checked_queries(params, queries)
    payload = list(store.coded_keys)
    files = store.coded_subfiles
    for s in range(1, pda.S + 1):
        first = (s - 1) * pkt
        for (j, v) in pda.occurrences(s):
            qv = queries[v]
            base = j * pkt
            for r in range(pkt):
                t = payload[first + r]
                for n in range(N):
                    c = qv[n]
                    if c:
                        t += c * files[n * subL + base + r]
                payload[first + r] = t % q
    return Signal(h=store.h, payload=tuple(payload), honest=True)


# ---------- adversaries ----------
#
# A strategy's ``corrupt(flat, q, rng)`` returns its replacement for a
# flat run of honest symbols.  ``rng`` is a ``random.Random`` for a
# strategy whose class constant ``draws`` is True, and None for one that
# does not draw.


@dataclass(frozen=True)
class UniformRandom:
    """Replace every symbol with a fresh uniform draw."""

    seed: int = 0

    label = "uniform_random"
    draws = True

    def corrupt(self, flat, q, rng):
        return [rng.randrange(q) for _ in flat]


@dataclass(frozen=True)
class ZeroPayload:
    """Send all zeros of the honest size."""

    label = "zero_payload"
    draws = False

    def corrupt(self, flat, q, rng):
        return [0] * len(flat)


@dataclass(frozen=True)
class HonestPlusConstant:
    """Shift every honest symbol by a fixed constant."""

    constant: int = 1

    label = "honest_plus_constant"
    draws = False

    def corrupt(self, flat, q, rng):
        return [(x + self.constant) % q for x in flat]


@dataclass(frozen=True)
class HonestPermutedSlices:
    """Send the honest symbols cyclically rotated by one slice."""

    label = "honest_permuted_slices"
    draws = False

    def corrupt(self, flat, q, rng):
        if len(flat) < 2:
            return list(flat)
        return list(flat[1:]) + [flat[0]]


ALL_STRATEGIES = (UniformRandom(), ZeroPayload(), HonestPlusConstant(1),
                  HonestPermutedSlices())

STRATEGY_NAMES = {s.label: type(s) for s in ALL_STRATEGIES}


def strategy_key(strategy) -> str:
    """Stable text form, used for deterministic per-config seeding.

    The label, then the value of every dataclass field, in field order.
    """
    return ":".join([strategy.label]
                    + [str(getattr(strategy, f.name)) for f in fields(strategy)])


def _corrupt(params: SystemParams, strategy, flat: tuple,
             rng: random.Random | None) -> tuple:
    """Run the strategy over a flat run of symbols; the result keeps its size."""
    corrupted = strategy.corrupt(flat, params.q, rng)
    if len(corrupted) != len(flat):
        raise ProtocolError("corruption must preserve the size")
    return tuple(corrupted)


def adversary_signal(params: SystemParams, strategy, honest: Signal,
                     rng: random.Random | None) -> Signal:
    """A corrupted answer, transformed from the server's own honest answer."""
    payload = _corrupt(params, strategy, honest.payload, rng)
    return Signal(h=honest.h, payload=payload, honest=False)


def adversary_content(params: SystemParams, strategy, store: ServerStore,
                      rng: random.Random | None) -> ServerStore:
    """Corrupted stored contents of the honest shape, from the store alone."""
    n = len(store.coded_subfiles)
    flat = _corrupt(params, strategy, store.symbols(), rng)
    return ServerStore(h=store.h, coded_subfiles=flat[:n], coded_keys=flat[n:])


# ---------- decoding ----------


@dataclass(frozen=True)
class DecodedStreams:
    """A batch of deliveries' multicast streams, decoded once for all users.

    Word ``(d * S + s - 1) * pkt + r`` is slice r of stream s of delivery
    d, and each delivery holds ``words`` = S * pkt of them.  ``data[l][w]``
    is data coefficient l of word w: the keyed multicast symbol every user
    in the stream's occurrence set receives, or None where the word could
    not be decoded.  ``failures`` maps each such word to its
    ``DecodingFailure``.  ``flagged[h]`` is the set of decoded words in
    which server h's symbol is off its codeword; servers never flagged
    are absent.
    """

    words: int
    data: list[list[int | None]]
    failures: dict[int, rscode.DecodingFailure]
    flagged: dict[int, set[int]]

    def delivery(self, d: int, count: int = 1) -> list[list[int | None]]:
        """The data of deliveries d .. d+count-1: their run of words of every data coefficient."""
        return [col[d * self.words:(d + count) * self.words] for col in self.data]


def stream_column(params: SystemParams, pda: Pda, h: int, signals) -> list[int]:
    """Server h's answers to a run of deliveries, chained into one column.

    Word ``(d * S + s - 1) * pkt + r`` is slice r of stream s of delivery
    d.  Every signal must come from server h, an integer, and hold S * pkt
    symbols.
    """
    size = pda.S * _dims(params, pda)[1]
    column = []
    for sig in signals:
        if not (_is_int(sig.h) and sig.h == h):
            raise MissingSignals(f"signal from server {sig.h!r} in the column of server {h!r}")
        if len(sig.payload) != size:
            raise DimensionMismatch(f"payload of server {h} has the wrong shape")
        column.extend(sig.payload)
    return column


def decode_streams(params: SystemParams, pda: Pda, columns) -> DecodedStreams:
    """Decode every word of a batch of deliveries from J servers' columns, <= A corrupt.

    ``columns`` maps each of J servers to its ``stream_column``; every
    column must hold the same whole number of deliveries.  All words are
    decoded in one ``decode_columns`` call.
    """
    words = pda.S * _dims(params, pda)[1]
    if len(columns) != params.J:
        raise MissingSignals(f"need signals from {params.J} servers, got {len(columns)}")
    for h in columns:
        if not (_is_int(h) and 1 <= h <= params.H):
            raise MissingSignals(f"signal origin {h!r} outside [1..{params.H}]")
    positions = sorted(columns)
    lengths = {len(col) for col in columns.values()}
    whole = all(n % words == 0 for n in lengths) if words else lengths == {0}
    if len(lengths) != 1 or not whole:
        raise MissingSignals(f"servers {positions} must answer the same whole deliveries")
    messages, flags, failures = rscode.decode_columns(
        params.points, positions, params.I + params.L, params.A,
        [columns[h] for h in positions])
    return DecodedStreams(words, messages[:params.L], failures,
                          {h: flagged for h, flagged in zip(positions, flags) if flagged})


@dataclass(frozen=True)
class CacheSide:
    """User k's part of decoding one demand that needs no delivery.

    ``streams`` pairs each stream symbol of the user's column, ascending,
    with its row.  ``values[b]`` is, on a star row, output symbol b
    itself: the demanded blend of the cached packets.  On an ordinary
    row it is minus the keyed blend packet and minus every interfering
    blend packet, so adding the decoded stream symbol yields the output.
    """

    k: int
    streams: tuple[tuple[int, int], ...]
    values: tuple[int, ...]


def cache_side(params: SystemParams, pda: Pda, cache: UserCache,
               d_k, queries) -> CacheSide:
    """Check the queries the servers answered; build user k's cache side for d_k.

    For each stream symbol in its column, the user subtracts its keyed
    blend packet and, for every other occurrence of the symbol, the
    interfering blend packet it can rebuild from star-row cache entries;
    both depend only on the cache, the demand and the queries.
    """
    subL, pkt = _dims(params, pda)
    N, L, q = params.N, params.L, params.q
    queries = _checked_queries(params, queries)
    k0 = cache.k - 1
    expect = tuple((d + p) % q for d, p in zip(d_k, cache.p))
    if len(d_k) != N:
        raise DimensionMismatch(f"demand vector must hold {N} symbols")
    if tuple(queries[k0]) != expect:
        raise ProtocolError(f"query of user {cache.k} does not match demand + blend")

    d = tuple(v % q for v in d_k)
    col = pda.column(k0)
    values = [0] * params.B
    step = L * pkt  # from one file's symbol of a star-row run to the next file's
    for j, e in enumerate(col):
        if e is STAR:
            packets = cache.uncoded[j]
            for l in range(L):
                off = l * subL + j * pkt
                for r in range(pkt):
                    i = l * pkt + r
                    acc = 0
                    for n in range(N):
                        c = d[n]
                        if c:
                            acc += c * packets[n * step + i]
                    values[off + r] = acc % q
        else:
            keyed = cache.keys[j]
            others = [(queries[v], cache.uncoded[u])
                      for (u, v) in pda.occurrences(e) if (u, v) != (j, k0)]
            for l in range(L):
                off = l * subL + j * pkt
                for r in range(pkt):
                    i = l * pkt + r
                    val = -keyed[i]
                    for qv, packets in others:
                        for n in range(N):
                            c = qv[n]
                            if c:
                                val -= c * packets[n * step + i]
                    values[off + r] = val % q
    streams = tuple(sorted((e, j) for j, e in enumerate(col) if e is not STAR))
    return CacheSide(k=cache.k, streams=streams, values=tuple(values))


def user_decode(params: SystemParams, pda: Pda, side: CacheSide,
                streams: DecodedStreams, d: int) -> list[int]:
    """Recover the demanded blend of files: delivery d's decoded streams plus the cache side.

    If a stream in the user's column failed, raises the failure of the
    lowest such stream, at its first failing slice.
    """
    subL, pkt = _dims(params, pda)
    # each stream of the user's column, ascending: its row and its first word
    rows = [(j, d * streams.words + (s - 1) * pkt) for s, j in side.streams]
    failures = streams.failures
    if failures:
        for _, first in rows:
            for w in range(first, first + pkt):
                if w in failures:
                    raise rscode.DecodingFailure(*failures[w].args) from failures[w]

    q = params.q
    out = list(side.values)
    for j, first in rows:
        for l, col in enumerate(streams.data):
            off = l * subL + j * pkt
            for r in range(pkt):
                out[off + r] = (out[off + r] + col[first + r]) % q
    return out


def recover_library(params: SystemParams, store_sets) -> list:
    """Rebuild the whole library from each of a batch of J-store sets, <= A corrupt in each.

    Slice by slice, the J evaluations of each file polynomial form an
    MDS codeword of dimension I + L whose first L coefficients are the
    subfile symbols.  Every set whose contents pass the checks must come
    from the same J servers; all their slices are decoded in one
    ``decode_columns`` call.  Returns, per set, its ``Library``, or the
    ``DecodingFailure`` of its lowest failing slice, or the
    ``ProtocolError`` its contents raise.
    """
    if params.q is None or params.B is None:
        raise ProtocolError("protocol operations need q and B")
    L, I, N = params.L, params.I, params.N
    if params.B % L:
        raise DimensionMismatch(f"B={params.B} is not divisible by L={L}")
    subL = params.B // L
    size = N * subL
    results, sets = [], []
    for stores in store_sets:
        try:
            sets.append((len(results), _contents_by_server(params, stores, size)))
        except ProtocolError as exc:
            results.append(exc)
        else:
            results.append(None)
    if not sets:
        return results
    positions = sorted(sets[0][1])
    if any(sorted(by_h) != positions for _, by_h in sets):
        raise ProtocolError("store sets must come from the same servers")
    messages, _flags, failed = rscode.decode_columns(
        params.points, positions, I + L, params.A,
        [list(chain.from_iterable(by_h[h].coded_subfiles for _, by_h in sets))
         for h in positions])
    for w in sorted(failed, reverse=True):  # each set keeps its lowest failing slice
        results[sets[w // size][0]] = failed[w]
    for t, (i, _) in enumerate(sets):
        if results[i] is None:
            off = t * size
            results[i] = Library(tuple(
                tuple(chain.from_iterable(messages[l][off + n * subL:off + (n + 1) * subL]
                                          for l in range(L)))
                for n in range(N)))
    return results


def _contents_by_server(params: SystemParams, stores, size: int) -> dict:
    """One set's stores keyed by server; J distinct servers with ``size`` coded subfile symbols each."""
    by_h = {}
    for store in stores:
        if store.h in by_h:
            raise ProtocolError(f"duplicate contents for server {store.h}")
        by_h[store.h] = store
    if len(by_h) != params.J:
        raise ProtocolError(f"need contents of {params.J} servers, got {len(by_h)}")
    for h, st in by_h.items():
        if not (_is_int(h) and 1 <= h <= params.H):
            raise ProtocolError(f"server {h!r} outside [1..{params.H}]")
        if len(st.coded_subfiles) != size:
            raise DimensionMismatch(f"contents of server {h} have the wrong shape")
    return by_h


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
