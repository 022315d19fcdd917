"""Step-by-step references for what the package computes in batches."""

import random
from collections import Counter
from itertools import chain

from rsplfr import sim
from rsplfr.ff import horner
from rsplfr.pda import STAR
from rsplfr.protocol import (CacheSide, DimensionMismatch, MissingSignals, ProtocolError,
                             ServerStore, UserCache, _checked_queries, _checked_sources, _dims,
                             adversary_content, adversary_signal, decode_streams, make_query,
                             recover_library, strategy_key, user_decode)
from rsplfr.rscode import DecodingFailure, decode_columns


def build_storage(params, pda, library, randomness):
    """What ``protocol.build_storage`` stores, one polynomial evaluation at a time.

    The library and randomness are checked as ``build_storage`` checks
    them, with the same errors.  Slice m of file n has coefficients
    (subfile_1[m], ..., subfile_L[m], noise_1[m], ..., noise_I[m]), slice
    r of stream s (keys, then masks), each evaluated by Horner's rule at
    every server's point.
    """
    subL, pkt = _dims(params, pda)
    N, I, L, S = params.N, params.I, params.L, pda.S
    _checked_sources(params, pda, [(library, randomness)])
    deltas, vees, lambdas = randomness.deltas, randomness.vees, randomness.lambdas
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


def place_user(params, pda, library, randomness, k, p_k):
    """What ``protocol.place_user`` caches, one keyed symbol at a time.

    The library and randomness, then k, then p_k are checked as
    ``place_user`` checks them, with the same errors.
    """
    subL, pkt = _dims(params, pda)
    N, L, S = params.N, params.L, pda.S
    _checked_sources(params, pda, [(library, randomness)])
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


def fit(q, inputs, outputs, affine=False):
    """What ``audit._fit`` returns, one tuple value at a time.

    The columns f(e_i) - f(0), or None unless f(x) = f(0) + sum x_i
    (f(e_i) - f(0)) holds at every check input x, with f(0) = 0 unless
    `affine`.
    """
    n = len(inputs[0])
    offset = tuple(outputs[n]) if affine else (0,) * len(outputs[n])
    cols = [tuple((v - o) % q for v, o in zip(out, offset)) for out in outputs[:n]]
    for x, got in zip(inputs[n:], outputs[n:]):
        want = tuple((o + sum(xi * col[r] for xi, col in zip(x, cols))) % q
                     for r, o in enumerate(offset))
        if tuple(got) != want:
            return None
    return cols


def server_signal(params, pda, store, queries):
    """What ``protocol.server_signal`` answers, one slice at a time.

    The store, then the queries, are checked as ``server_signal`` checks
    them, with the same errors.  Slice r of stream s, at (s-1)*pkt + r,
    is the coded key plus, for each occurrence (j, v) of s, query v's
    blend of the coded subfile slices j*pkt + r, reduced mod q.
    """
    subL, pkt = _dims(params, pda)
    N, q = params.N, params.q
    if len(store.coded_subfiles) != N * subL or len(store.coded_keys) != pda.S * pkt:
        raise DimensionMismatch(f"contents of server {store.h} have the wrong shape")
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
                payload[first + r] = t
    return tuple(v % q for v in payload)


def cache_side(params, pda, cache, d_k, queries):
    """What ``protocol.cache_side`` builds, one output symbol at a time.

    The queries are checked as ``cache_side`` checks them, with the same
    errors.  On a star row, output symbol b is the demanded blend of the
    cached packets; on an ordinary row, minus the keyed blend packet and
    minus the interfering blend packet of every other occurrence of its
    stream symbol, each a sum over files reduced mod q.
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
    # slice r of stream e, in row j: word (e-1)*pkt + r, output j*pkt + r of coefficient 0
    reads = tuple(((e - 1) * pkt + r, j * pkt + r)
                  for e, j in sorted((e, j) for j, e in enumerate(col) if e is not STAR)
                  for r in range(pkt))
    return CacheSide(k=cache.k, reads=reads, stride=subL, values=tuple(values))


def streamed(streams):
    """Decoded streams as lists: words per delivery, each data row's slots, failure texts, flags."""
    rows = [streams.slots.unpack(row, streams.count)
            for row in streams._packed(streams.start, streams.count)]
    return (streams.words, rows, {w: str(f) for w, f in streams.failures.items()},
            streams.flagged)


def user_output(params, arr, side, columns, d):
    """What ``user_decode`` gives user ``side.k`` from delivery d of a batch, step by step.

    ``columns`` maps each of J servers to its answers to a batch of
    deliveries chained in delivery order, as ``decode_streams`` takes
    them.  Delivery d alone is cut from every column and decoded with
    ``decode_columns``, into lists with None at failed words.  Each
    stream symbol s of the user's column, in row j, ascending, then adds
    slice r of data coefficient l to output symbol l*B/L + j*pkt + r of
    the side's values.  A failed slice of such a stream raises its
    failure instead, the lowest stream's first; a delivery outside the
    batch raises ``MissingSignals``.
    """
    subL, pkt = params.B // params.L, params.B // (params.L * arr.F)
    size = arr.S * pkt  # words per delivery
    positions = sorted(columns)
    if d < 0 or (d + 1) * size > len(columns[positions[0]]):
        raise MissingSignals(f"deliveries {d}..{d} lie outside the batch")
    data, _, failures = decode_columns(
        params.points, positions, params.I + params.L, params.A,
        [columns[h][d * size:(d + 1) * size] for h in positions], rows=params.L)
    streams = sorted((e, j) for j, e in enumerate(arr.column(side.k - 1)) if e is not STAR)
    for s, _ in streams:
        for r in range(pkt):
            if (s - 1) * pkt + r in failures:
                raise DecodingFailure(*failures[(s - 1) * pkt + r].args)
    out = list(side.values)
    for s, j in streams:
        for l, col in enumerate(data):
            for r in range(pkt):
                b = l * subL + j * pkt + r
                out[b] = (out[b] + col[(s - 1) * pkt + r]) % params.q
    return out


def replay(sc):
    """What a sweep of ``sc`` reports, one configuration, delivery and user at a time.

    The library, randomness, caches, demands and configurations are the
    scenario's, sampled as ``sim`` samples them.  Each configuration then
    follows the scheme step by step.  Every one of its J servers answers
    each demand with this module's ``server_signal``.  An adversary
    among them has one generator for the configuration, keyed as ``sim``
    keys it, and corrupts its stored contents with ``adversary_content``
    (when recovery is checked), then each answer in demand order with
    ``adversary_signal``.  The stores are recovered with
    ``recover_library``, each delivery is decoded alone with
    ``decode_streams``, and every user decodes it with ``user_decode``
    from the side this module's ``cache_side`` builds, and is checked
    against the demanded blend of the raw files.  No configuration is
    grouped, nothing is compared with a reference decode, and no witness
    is dropped.

    Returns ``(witnesses, stage_counts)``, as the sweep's uncapped
    ``failures`` and its ``stage_counts``.
    """
    params, arr = sc.params, sc.pda
    state = sim._build_state(sc)
    files = state.library.files
    demands = sim._demand_list(sc)
    witnesses = []
    for c, (js, adversaries, strategy) in enumerate(sim._config_list(sc)):
        key = strategy_key(strategy)
        label = {"j_subset": js, "adversaries": adversaries, "strategy": key}
        rngs = {h: random.Random(f"{sc.seed}:adv:{c}:{h}:{key}") if strategy.draws else None
                for h in js if h in adversaries}
        if sc.check_recovery:
            stores = {h: [adversary_content(params, strategy, state.stores[h - 1], rngs[h])
                          if h in rngs else state.stores[h - 1]] for h in js}
            got = recover_library(params, stores)[0]
            if isinstance(got, DecodingFailure):
                witnesses.append(dict(label, stage="recover", error=str(got)))
            elif got.files != files:
                witnesses.append(dict(label, stage="recover", error="wrong library"))
        for di, demand in enumerate(demands):
            queries = [make_query(params, demand[k], state.ps[k]) for k in range(params.K)]
            answers = {}
            for h in js:
                honest = server_signal(params, arr, state.stores[h - 1], queries)
                answers[h] = (adversary_signal(params, strategy, honest, rngs[h])
                              if h in rngs else honest)
            streams = decode_streams(params, arr, answers)
            for k in range(params.K):
                truth = [sum(d * f[b] for d, f in zip(demand[k], files)) % params.q
                         for b in range(params.B)]
                try:
                    side = cache_side(params, arr, state.caches[k], demand[k], queries)
                    got = user_decode(params, side, streams, 0)
                except (ProtocolError, DecodingFailure) as exc:
                    error = str(exc)
                else:
                    error = None if got == truth else "wrong output"
                if error is not None:
                    witnesses.append(dict(label, stage="decode", demand_index=di, user=k + 1,
                                          error=error))
    return witnesses, tuple(sorted(Counter(w["stage"] for w in witnesses).items()))
