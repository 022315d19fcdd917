"""Answers and cache sides, packed over stores and query sets.

``sim`` builds every server's column, its answers to each demand sample
chained in demand order, and every user's cache side of each demand, in
one packed call each; the signal audit answers its probe stores, which
repeat every server, for all its probe query vectors in one call.  On
any array, including one with no stream symbol, with packets longer than
one symbol, at residues one to three bytes wide, over one to seven query
sets and one to three stores per server, the columns and
``server_signal`` must equal the step-by-step answers in ``oracles``, and
the sides what ``oracles`` builds, or carry the same error.  Stores and
caches may hold values outside [0, q), which are taken mod q: negative
ones, ones in [q, 2q), byte-wide at q = 7, and ones of 280 or more.
"""

import random
from dataclasses import replace
from itertools import chain

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from rsplfr.pda import man_pda  # noqa: E402
from rsplfr.protocol import (Library, ProtocolError, Randomness,  # noqa: E402
                             _cache_sides, _server_columns, build_storage, make_query,
                             place_user, server_signal)
from test_random_pdas import INSTANCES, pdas  # noqa: E402


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or its ProtocolError's class and text."""
    try:
        return fn(*args)
    except ProtocolError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(pdas(), st.integers(1, 5).map(lambda K: man_pda(K, K))),  # all-star: S = 0
       st.sampled_from(INSTANCES), st.sampled_from([7, 257, 65537]),
       st.sampled_from([1, 2, 7]), st.integers(1, 3), st.integers(0, 2 ** 16),
       st.booleans(), st.integers(1, 3), st.sampled_from([(0,), (-1,), (1,), (40,),
                                                           (0, -1, 1, 40)]))
def test_packed_columns_and_sides_equal_the_scalar_forms(arr, base, q, D, pkt, seed, echo,
                                                         copies, lifts):
    params = replace(base, K=arr.K, B=base.L * arr.F * pkt, q=q)
    rng = random.Random(seed)

    def lifted(values):
        """Each value plus q times a drawn lift: 0 keeps it a residue."""
        return tuple(v + q * rng.choice(lifts) for v in values)

    # `copies` (library, randomness) outcomes, each storing on every
    # server, as the audit's probes do; the users cache from the first
    outcomes = [(Library.random(params, rng), Randomness.sample(params, arr, rng))
                for _ in range(copies)]
    stores = [replace(st_, coded_subfiles=lifted(st_.coded_subfiles),
                      coded_keys=lifted(st_.coded_keys))
              for library, randomness in outcomes
              for st_ in build_storage(params, arr, library, randomness)]
    library, randomness = outcomes[0]
    ps = [[rng.randrange(q) for _ in range(params.N)] for _ in range(params.K)]
    caches = [replace(cache, uncoded={j: lifted(run) for j, run in cache.uncoded.items()},
                      keys={j: lifted(run) for j, run in cache.keys.items()})
              for cache in (place_user(params, arr, library, randomness, k, ps[k - 1])
                            for k in range(1, params.K + 1))]
    demands = [[[rng.randrange(q) for _ in range(params.N)] for _ in range(params.K)]
               for _ in range(D)]
    queries_list = [[make_query(params, demand[k], ps[k]) for k in range(params.K)]
                    for demand in demands]
    if echo:  # one user's query of one demand is not its demand + blend
        d, k = rng.randrange(D), rng.randrange(params.K)
        query = queries_list[d][k]
        queries_list[d][k] = ((query[0] + 1) % q,) + query[1:]

    answers = [[oracles.server_signal(params, arr, st_, queries) for queries in queries_list]
               for st_ in stores]
    assert _server_columns(params, arr, stores, queries_list) == [
        list(chain.from_iterable(column)) for column in answers]
    assert [server_signal(params, arr, st_, queries_list[-1]) for st_ in stores] == [
        column[-1] for column in answers]
    for k, cache in enumerate(caches):
        sides = _cache_sides(params, arr, cache, [demand[k] for demand in demands],
                             queries_list)
        assert [side if not isinstance(side, ProtocolError) else (type(side), str(side))
                for side in sides] == [
            outcome(oracles.cache_side, params, arr, cache, demand[k], queries)
            for demand, queries in zip(demands, queries_list)]
