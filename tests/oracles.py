"""Step-by-step references for what the package computes in batches."""

import random
from collections import Counter

from rsplfr import sim
from rsplfr.pda import STAR
from rsplfr.protocol import (CacheSide, DimensionMismatch, MissingSignals, ProtocolError,
                             _checked_queries, _dims, adversary_content, adversary_signal,
                             decode_streams, make_query, recover_library, server_signal,
                             strategy_key, user_decode)
from rsplfr.rscode import DecodingFailure, decode_columns


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
    each demand with ``server_signal``.  An adversary among them has one
    generator for the configuration, keyed as ``sim`` keys it, and
    corrupts its stored contents with ``adversary_content`` (when
    recovery is checked), then each answer in demand order with
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
