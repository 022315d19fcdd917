"""The storage, placement, query, delivery, and decode pipeline."""

import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import pytest

from oracles import streamed
from rsplfr.pda import STAR, man_pda, validate
from rsplfr.protocol import (ALL_STRATEGIES, ConfigError, DimensionMismatch,
                             HonestPermutedSlices, HonestPlusConstant, Library,
                             MissingSignals, ProtocolError, Randomness,
                             SystemParams, UniformRandom, ZeroPayload,
                             adversary_column, adversary_content, adversary_signal,
                             build_storage, cache_side, decode_group, decode_streams,
                             draws, make_query,
                             params_from_json, place_user, recover_library,
                             server_signal, strategy_key, user_decode,
                             with_seed)
from rsplfr.rscode import DecodingFailure

MICRO = SystemParams(N=2, K=1, H=2, A=0, I=1, J=2, q=3, B=1)
MICRO_PDA = validate([[1]])

TOY = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=6)
TOY_PDA = man_pda(3, 1)

ROBUST = SystemParams(N=2, K=2, H=5, A=1, I=1, J=4, q=11, B=2)
ROBUST_PDA = man_pda(2, 1)


def build_toy_state(seed=0, B=6):
    params = replace(TOY, B=B, seed=seed)
    rng = random.Random(seed)
    library = Library.random(params, rng)
    randomness = Randomness.sample(params, TOY_PDA, rng)
    stores = build_storage(params, TOY_PDA, library, randomness)
    ps = [[rng.randrange(params.q) for _ in range(params.N)]
          for _ in range(params.K)]
    caches = [place_user(params, TOY_PDA, library, randomness, k, ps[k - 1])
              for k in range(1, params.K + 1)]
    return params, library, randomness, stores, ps, caches


def answers(params, pda, stores, queries):
    """Each store's server's answer to the queries, keyed by the server."""
    return {st.h: server_signal(params, pda, st, queries) for st in stores}


def decode(params, pda, *deliveries):
    """Decode deliveries of the same servers, each a mapping from server to its answer."""
    return decode_streams(params, pda, {h: [v for sent in deliveries for v in sent[h]]
                                        for h in deliveries[0]})


def recover(params, stores):
    """One set's library from recover_library's batch, or its failure raised."""
    (got,) = recover_library(params, {st.h: [st] for st in stores})
    if isinstance(got, Exception):
        raise got
    return got


def flag_counts(streams, d):
    """Per server flagged in delivery d of a batch, its words flagged there."""
    words = range(d * streams.words, (d + 1) * streams.words)
    counts = {h: sum(w in flags for w in words) for h, flags in streams.flagged.items()}
    return {h: n for h, n in counts.items() if n}


def combine(library: Library, demand, q: int):
    B = len(library.files[0])
    return [sum(d * f[b] for d, f in zip(demand, library.files)) % q
            for b in range(B)]


# ---------- parameters ----------


def test_params_derive_payload_dimension():
    assert MICRO.L == 1
    assert TOY.L == 2
    assert SystemParams(N=2, K=1, H=20, A=2, I=3, J=17).L == 10


def test_params_default_evaluation_points():
    assert TOY.points.alphas == (1, 2, 3, 4, 5, 6)
    assert TOY.points.q == 7


def test_params_invalid_combinations_rejected():
    with pytest.raises(ProtocolError):
        SystemParams(N=1, K=1, H=2, A=0, I=1, J=2, q=3)
    with pytest.raises(ProtocolError):
        SystemParams(N=2, K=1, H=2, A=1, I=1, J=2, q=5)  # I + 2A >= J
    with pytest.raises(ProtocolError):
        SystemParams(N=2, K=1, H=2, A=2, I=1, J=2, q=5)  # A > I
    with pytest.raises(ProtocolError):
        SystemParams(N=2, K=1, H=3, A=0, I=1, J=2, q=3)  # q <= H


# ---------- storage ----------


@pytest.mark.parametrize("q", [2, 3, 7, 13, 256, 257, 65537, 2 ** 61 - 1])
@pytest.mark.parametrize("seed", [0, 1, 2, 31])
def test_draws_are_the_values_randrange_gives(q, seed):
    # seeded libraries, randomness, blends, demands and uniform-random
    # corruptions reproduce only while each draw is rng.randrange(q)
    a, b = random.Random(seed), random.Random(seed)
    assert draws(a, q, 200) == [b.randrange(q) for _ in range(200)]
    assert a.getstate() == b.getstate()
    assert draws(a, q, 0) == []


def test_storage_micro_golden_values():
    # one-symbol files (1,) and (2,); noise 1 and 2; key 1, mask 2; q=3.
    # server h stores file_n + noise_n * h and key + mask * h.
    library = Library(((1,), (2,)))
    randomness = Randomness(deltas=(1, 2), vees=(1,), lambdas=(2,))
    stores = build_storage(MICRO, MICRO_PDA, library, randomness)
    assert stores[0].coded_subfiles == (2, 1)
    assert stores[0].coded_keys == (0,)
    assert stores[1].coded_subfiles == (0, 0)
    assert stores[1].coded_keys == (2,)


@pytest.mark.parametrize("run", ["deltas", "vees", "lambdas"])
@pytest.mark.parametrize("change", [-1, 1])
def test_storage_rejects_a_randomness_run_of_the_wrong_length(run, change):
    params, library, randomness, _, _, _ = build_toy_state()
    size = len(getattr(randomness, run))
    symbols = getattr(randomness, run)[:size + change] + (0,) * change
    bad = replace(randomness, **{run: symbols})
    with pytest.raises(DimensionMismatch, match=f"{run} must hold {size} symbols"):
        build_storage(params, TOY_PDA, library, bad)


def test_placement_checks_its_sources_as_storage_does():
    params, library, randomness, _, ps, _ = build_toy_state()
    size = len(randomness.vees)
    cases = [(Library(library.files[:3]), randomness, "library has 3 files, expected 4"),
             (Library(tuple(f[:1] for f in library.files)), randomness,
              "file 1 has 1 symbols, expected 6"),
             (library, replace(randomness, vees=randomness.vees[:-1]),
              f"vees must hold {size} symbols, got {size - 1}")]
    for lib, rnd, text in cases:
        with pytest.raises(DimensionMismatch, match=f"^{text}$"):
            place_user(params, TOY_PDA, lib, rnd, 1, ps[0])
        with pytest.raises(DimensionMismatch, match=f"^{text}$"):
            build_storage(params, TOY_PDA, lib, rnd)


def test_server_signal_checks_both_runs_of_the_store():
    # N * B/L = 12 coded subfile symbols and S * pkt = 3 coded key symbols
    params, library, randomness, stores, ps, caches = build_toy_state()
    queries = [make_query(params, [1, 0, 0, 0], ps[k]) for k in range(3)]
    store = stores[0]
    for bad in (replace(store, coded_subfiles=store.coded_subfiles[:-1]),
                replace(store, coded_keys=store.coded_keys + (0,))):
        with pytest.raises(DimensionMismatch, match="^contents of server 1 have the wrong shape$"):
            server_signal(params, TOY_PDA, bad, queries)


def test_storage_symbol_count_uniform():
    _, _, _, stores, _, _ = build_toy_state()
    counts = {st.symbol_count() for st in stores}
    # (M,T,R) bookkeeping: T*B = N*B/L + S*B/(L*F) = 12 + 3
    assert counts == {15}


# ---------- placement ----------


def test_cache_shape_on_toy_instance():
    params, library, randomness, stores, ps, caches = build_toy_state()
    cache = caches[0]
    assert set(cache.uncoded) == {0}       # first row is the starred one
    assert set(cache.keys) == {1, 2}
    assert cache.symbol_count() == 12      # M*B = 2*6
    # B/L = 3 and pkt = 1: a star row's run holds packet 0 of subfile l
    # of file n, raw library symbols, at n*L + l
    assert cache.uncoded[0] == tuple(library.files[n][l * 3]
                                     for n in range(4) for l in range(2))
    # an ordinary row's run holds the keyed blend packet of data
    # coefficient l at l: key (l*S + e-1) plus the blend of packet j
    for j in (1, 2):
        e = TOY_PDA.entries[j][0]
        assert cache.keys[j] == tuple(
            (randomness.vees[l * TOY_PDA.S + e - 1]
             + sum(ps[0][n] * library.files[n][l * 3 + j] for n in range(4))) % 7
            for l in range(2))


def test_cache_with_zero_blend_stores_bare_keys():
    params = MICRO
    library = Library(((1,), (2,)))
    randomness = Randomness(deltas=(0, 0), vees=(2,), lambdas=(0,))
    cache = place_user(params, MICRO_PDA, library, randomness, 1, [0, 0])
    assert cache.keys == {0: (2,)}
    assert cache.uncoded == {}


def test_full_caching_column_stores_whole_library():
    params = SystemParams(N=2, K=2, H=5, A=1, I=1, J=4, q=11, B=4)
    arr = man_pda(2, 2)  # single all-star row
    library = Library.random(params, random.Random(1))
    randomness = Randomness.sample(params, arr, random.Random(2))
    cache = place_user(params, arr, library, randomness, 1, [0, 0])
    assert cache.symbol_count() == params.N * params.B
    assert cache.keys == {}


def test_cache_rejects_out_of_range_user():
    library = Library(((0,), (0,)))
    randomness = Randomness.sample(MICRO, MICRO_PDA, random.Random(0))
    with pytest.raises(ProtocolError):
        place_user(MICRO, MICRO_PDA, library, randomness, 2, [0, 0])


# ---------- queries and signals ----------


def test_query_is_demand_plus_blend():
    params = SystemParams(N=4, K=1, H=2, A=0, I=1, J=2, q=5)
    assert make_query(params, [1, 0, 0, 0], [2, 4, 1, 3]) == (3, 4, 1, 3)


def test_query_length_checked():
    with pytest.raises(DimensionMismatch):
        make_query(MICRO, [1], [0, 0])


def test_signal_payload_size_sets_the_load():
    params, library, randomness, stores, ps, caches = build_toy_state()
    demand = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    queries = [make_query(params, demand[k], ps[k]) for k in range(3)]
    sig = server_signal(params, TOY_PDA, stores[0], queries)
    assert type(sig) is tuple
    assert len(sig) == 3      # R*B = 0.5*6

def test_micro_signal_golden_value():
    library = Library(((1,), (2,)))
    randomness = Randomness(deltas=(1, 2), vees=(1,), lambdas=(2,))
    stores = build_storage(MICRO, MICRO_PDA, library, randomness)
    query = make_query(MICRO, [1, 2], [0, 0])
    sig = server_signal(MICRO, MICRO_PDA, stores[0], [query])
    # key eval + 1*(file1 eval) + 2*(file2 eval) at alpha=1: 0 + 2 + 2*1 = 4 = 1
    assert sig == (1,)


# ---------- end to end ----------


def test_every_user_decodes_its_blend_on_the_toy_instance():
    params, library, randomness, stores, ps, caches = build_toy_state(3)
    rng = random.Random(33)
    demands = [[rng.randrange(params.q) for _ in range(params.N)]
               for _ in range(params.K)]
    queries = [make_query(params, demands[k], ps[k]) for k in range(params.K)]
    streams = decode(params, TOY_PDA, answers(params, TOY_PDA, stores[:params.J], queries))
    for k in range(1, params.K + 1):
        side = cache_side(params, TOY_PDA, caches[k - 1], demands[k - 1], queries)
        got = user_decode(params, side, streams, 0)
        assert got == combine(library, demands[k - 1], params.q)


def test_decoding_is_linear_in_the_demand():
    params, library, randomness, stores, ps, caches = build_toy_state(4)
    q = params.q
    d1 = [1, 2, 3, 4]
    d2 = [6, 0, 5, 1]
    dsum = [(a + b) % q for a, b in zip(d1, d2)]
    outs = {}
    for tag, demand in (("d1", d1), ("d2", d2), ("sum", dsum)):
        demands = [demand] + [[0] * 4, [0] * 4]
        queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
        signals = answers(params, TOY_PDA, stores[:params.J], queries)
        side = cache_side(params, TOY_PDA, caches[0], demand, queries)
        outs[tag] = user_decode(params, side, decode(params, TOY_PDA, signals), 0)
    assert [(a + b) % q for a, b in zip(outs["d1"], outs["d2"])] == outs["sum"]


def test_any_j_subset_suffices():
    params, library, randomness, stores, ps, caches = build_toy_state(5)
    demand = [1, 1, 1, 1]
    demands = [demand, [0] * 4, [0] * 4]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    signals = answers(params, TOY_PDA, stores, queries)
    expected = combine(library, demand, params.q)
    side = cache_side(params, TOY_PDA, caches[0], demand, queries)
    for subset in combinations(signals, params.J):
        streams = decode(params, TOY_PDA, {h: signals[h] for h in subset})
        assert user_decode(params, side, streams, 0) == expected


def test_single_adversary_is_corrected():
    params, library, randomness, stores, ps, caches = build_toy_state(6)
    demand = [2, 0, 6, 1]
    demands = [demand, [1] * 4, [2] * 4]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    expected = combine(library, demand, params.q)
    side = cache_side(params, TOY_PDA, caches[0], demand, queries)
    for strategy in ALL_STRATEGIES:
        signals = answers(params, TOY_PDA, stores[:params.J], queries)
        signals[3] = adversary_signal(params, strategy, signals[3], random.Random(0))
        assert type(signals[3]) is tuple
        streams = decode(params, TOY_PDA, signals)
        assert user_decode(params, side, streams, 0) == expected


def test_partial_slice_corruption_is_corrected():
    # one adversary corrupts only some (stream, slice) cells of its
    # answer, every pattern of them; two slices per stream (B=12)
    params = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=12, seed=17)
    rng = random.Random(17)
    library = Library.random(params, rng)
    randomness = Randomness.sample(params, TOY_PDA, rng)
    stores = build_storage(params, TOY_PDA, library, randomness)
    ps = [[rng.randrange(7) for _ in range(4)] for _ in range(3)]
    caches = [place_user(params, TOY_PDA, library, randomness, k, ps[k - 1])
              for k in (1, 2, 3)]
    demands = [[rng.randrange(7) for _ in range(4)] for _ in range(3)]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    signals = answers(params, TOY_PDA, stores[1:], queries)
    expected = [combine(library, demands[k], 7) for k in range(3)]
    sides = [cache_side(params, TOY_PDA, caches[k], demands[k], queries)
             for k in range(3)]
    cells = [(s, r) for s in range(TOY_PDA.S) for r in range(2)]
    honest = signals[4]
    for mask in range(1, 1 << len(cells)):
        payload = list(honest)
        for bit, (s, r) in enumerate(cells):
            if mask >> bit & 1:
                payload[s * 2 + r] = (payload[s * 2 + r] + 1 + bit % 6) % 7
        streams = decode(params, TOY_PDA, {**signals, 4: tuple(payload)})
        assert not streams.failures
        for k in range(3):
            got = user_decode(params, sides[k], streams, 0)
            assert got == expected[k], (mask, k)


def test_a_failed_stream_fails_only_the_users_that_need_it():
    params, library, randomness, stores, ps, caches = build_toy_state(18)
    demands = [[1, 2, 3, 4], [0, 1, 0, 1], [5, 5, 0, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    signals = answers(params, TOY_PDA, stores[:5], queries)
    # two servers shift stream 1 only (its one slice): beyond the radius there
    for h in (1, 2):
        payload = signals[h]
        signals[h] = ((payload[0] + 1) % 7,) + payload[1:]
    streams = decode(params, TOY_PDA, signals)
    assert set(streams.failures) == {0}  # the one word of stream 1
    for k in range(1, 4):
        side = cache_side(params, TOY_PDA, caches[k - 1], demands[k - 1], queries)
        if 1 in TOY_PDA.column(k - 1):
            with pytest.raises(DecodingFailure):
                user_decode(params, side, streams, 0)
        else:
            assert user_decode(params, side, streams, 0) == \
                combine(library, demands[k - 1], params.q)


def test_a_stream_fails_with_its_first_failing_slice():
    # servers 1 and 2 push both slices of stream 1 beyond the radius, each
    # slice failing in its own way: the stream reports its first slice's
    params, library, randomness, stores, ps, caches = build_toy_state(17, B=12)
    demands = [[1, 2, 3, 4], [0, 1, 0, 1], [5, 5, 0, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    signals = answers(params, TOY_PDA, stores[:5], queries)

    def shifted(payload, deltas):
        return tuple((x + d) % 7 for x, d in zip(payload[:2], deltas)) + payload[2:]

    both = {**signals, 1: shifted(signals[1], (1, 1)), 2: shifted(signals[2], (1, 2))}
    second = {**signals, 1: shifted(signals[1], (0, 1)), 2: shifted(signals[2], (0, 2))}
    decoded = decode(params, TOY_PDA, both, second)
    # stream 1 is words 0 and 1 of delivery 0 and words 6 and 7 of delivery 1
    assert set(decoded.failures) == {0, 1, 7}
    first = "error locator of length 1 has 0 of 1 roots among the present positions"
    assert str(decoded.failures[0]) == first
    assert str(decoded.failures[1]) == str(decoded.failures[7]) == (
        "error locator of length 2 exceeds the radius 1")
    for k in (1, 2):  # the users whose columns hold stream 1
        side = cache_side(params, TOY_PDA, caches[k - 1], demands[k - 1], queries)
        for d, text in ((0, first), (1, "error locator of length 2 exceeds the radius 1")):
            with pytest.raises(DecodingFailure, match=f"^{text}$"):
                user_decode(params, side, decoded, d)


def test_decode_needs_exactly_j_distinct_origins():
    params, library, randomness, stores, ps, caches = build_toy_state(7)
    demand = [1, 0, 0, 0]
    demands = [demand, [0] * 4, [0] * 4]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    signals = answers(params, TOY_PDA, stores, queries)
    with pytest.raises(MissingSignals, match="need signals from 5 servers, got 4"):
        decode(params, TOY_PDA, {h: signals[h] for h in range(1, 5)})
    with pytest.raises(MissingSignals, match="need signals from 5 servers, got 6"):
        decode(params, TOY_PDA, signals)
    columns = {h: list(signals[h]) for h in range(1, 6)}
    columns[9] = columns.pop(5)
    with pytest.raises(MissingSignals, match=r"signal origin 9 outside \[1..6\]"):
        decode_streams(params, TOY_PDA, columns)


@pytest.mark.parametrize("origin", ["1", True, 1.0])
def test_decode_refuses_an_origin_that_is_no_integer(origin):
    params, library, randomness, stores, ps, caches = build_toy_state(7)
    queries = [make_query(params, [1, 0, 0, 0], ps[k]) for k in range(3)]
    columns = {h: list(answer)
               for h, answer in answers(params, TOY_PDA, stores[:5], queries).items()}
    columns[origin] = columns.pop(1)
    with pytest.raises(MissingSignals, match=f"signal origin {origin!r} outside"):
        decode_streams(params, TOY_PDA, columns)


def test_decode_checks_every_signal_shape():
    params, library, randomness, stores, ps, caches = build_toy_state(7)
    demands = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    signals = answers(params, TOY_PDA, stores[:5], queries)
    uneven = r"^servers \[1, 2, 3, 4, 5\] must answer the same whole deliveries$"
    # server 5's answer one symbol short, in the second delivery
    with pytest.raises(MissingSignals, match=uneven):
        decode(params, TOY_PDA, signals, {**signals, 5: signals[5][:-1]})
    # and one symbol long
    with pytest.raises(MissingSignals, match=uneven):
        decode(params, TOY_PDA, {**signals, 5: signals[5] + (0,)})
    # every answer one symbol long: equal columns, but no whole delivery
    with pytest.raises(MissingSignals, match=uneven):
        decode(params, TOY_PDA, {h: answer + (0,) for h, answer in signals.items()})


def test_deliveries_must_come_from_the_same_servers():
    params, library, randomness, stores, ps, caches = build_toy_state(7)
    demands = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    # in column form: every server's column holds the same whole deliveries
    columns = {h: list(answer) * 2
               for h, answer in answers(params, TOY_PDA, stores[:5], queries).items()}
    both = decode_streams(params, TOY_PDA, columns)
    once = decode_streams(params, TOY_PDA, {h: column[:3] for h, column in columns.items()})
    assert both.differing(once, 2) == set()
    assert streamed(decode_streams(params, TOY_PDA, dict(reversed(columns.items())))) == \
        streamed(both)
    uneven = [{**columns, 5: columns[5][:3]}, {**columns, 1: columns[1] * 2},
              {**columns, 2: [0]}, {h: column[:5] for h, column in columns.items()}]
    for bad in uneven:
        with pytest.raises(MissingSignals, match=r"servers \[1, 2, 3, 4, 5\] must answer "
                                                 "the same whole deliveries"):
            decode_streams(params, TOY_PDA, bad)
    empty = decode_streams(params, TOY_PDA, {h: [] for h in range(2, 7)})
    assert streamed(empty) == (3, [[], []], {}, {})


def test_a_delivery_outside_the_batch_is_refused():
    # a one-delivery batch: a negative index must not read from the end,
    # and one past the end must not read nothing
    params, library, randomness, stores, ps, caches = build_toy_state(7)
    demands = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    streams = decode(params, TOY_PDA, answers(params, TOY_PDA, stores[:5], queries))
    side = cache_side(params, TOY_PDA, caches[0], demands[0], queries)
    assert user_decode(params, side, streams, 0) == combine(library, demands[0], 7)
    for d in (-1, 1, 5):
        with pytest.raises(MissingSignals, match=f"^deliveries {d}..{d} lie outside the batch$"):
            user_decode(params, side, streams, d)


@pytest.mark.parametrize("user", [1, 2, 3])
def test_a_side_that_reads_past_the_delivery_is_refused(user):
    # a side built for TOY_PDA (3 streams) against a batch of man_pda(3, 2),
    # whose deliveries hold one stream: it must not read the empty slots
    params, library, randomness, stores, ps, caches = build_toy_state(7)
    demands = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    side = cache_side(params, TOY_PDA, caches[user - 1], demands[user - 1], queries)
    arr = man_pda(3, 2)
    assert arr.S == 1
    other = build_storage(params, arr, library, Randomness.sample(params, arr, random.Random(7)))
    streams = decode(params, arr, answers(params, arr, other[:5], queries))
    last = side.reads[-1][0]
    assert last >= streams.words == 1
    with pytest.raises(DimensionMismatch,
                       match=f"^user {user} reads word {last}, but a delivery holds 1$"):
        user_decode(params, side, streams, 0)
    with pytest.raises(MissingSignals, match="^deliveries 1..1 lie outside the batch$"):
        user_decode(params, side, streams, 1)


def test_an_all_star_batch_refuses_only_negative_deliveries():
    # S = 0: a delivery holds no words, so any d >= 0 reads the empty run
    arr = man_pda(3, 3)
    assert arr.S == 0
    params = TOY
    rng = random.Random(3)
    library = Library.random(params, rng)
    randomness = Randomness.sample(params, arr, rng)
    stores = build_storage(params, arr, library, randomness)
    cache = place_user(params, arr, library, randomness, 1, [2, 0, 1, 0])
    demands = [[1, 2, 0, 0], [0] * 4, [0] * 4]
    queries = [make_query(params, demands[0], cache.p)] + [make_query(params, [0] * 4, [0] * 4)] * 2
    streams = decode(params, arr, answers(params, arr, stores[:5], queries))
    assert streams.words == 0
    side = cache_side(params, arr, cache, demands[0], queries)
    for d in (0, 1, 3, 4):
        assert user_decode(params, side, streams, d) == combine(library, demands[0], 7)
    with pytest.raises(MissingSignals, match=r"^deliveries -1..-1 lie outside the batch$"):
        user_decode(params, side, streams, -1)


def test_flags_name_the_servers_that_changed_their_symbols():
    # one adversary in the delivery, two slices per stream (B=12), three
    # demands decoded in one call: per delivery, each server is flagged in
    # exactly the (stream, slice) words where it sent another symbol
    params, library, randomness, stores, ps, caches = build_toy_state(19, B=12)
    rng = random.Random(19)
    for strategy in ALL_STRATEGIES:
        for bad in range(2, 7):
            deliveries, expected = [], []
            for trial in range(3):
                demands = [[rng.randrange(7) for _ in range(4)] for _ in range(3)]
                queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
                signals = answers(params, TOY_PDA, stores[1:], queries)
                honest = signals[bad]
                signals[bad] = adversary_signal(params, strategy, honest,
                                                random.Random(trial))
                changed = sum(x != y for x, y in zip(signals[bad], honest))
                deliveries.append(signals)
                expected.append({bad: changed} if changed else {})
            decoded = decode(params, TOY_PDA, *deliveries)
            assert [flag_counts(decoded, d) for d in range(3)] == expected, (strategy, bad)
            assert not decoded.failures
            assert any(expected), (strategy, bad)


def test_decode_checks_the_query_echo():
    params, library, randomness, stores, ps, caches = build_toy_state(8)
    demand = [1, 0, 0, 0]
    demands = [demand, [0] * 4, [0] * 4]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    signals = answers(params, TOY_PDA, stores[:5], queries)
    wrong = [make_query(params, [0, 1, 0, 0], ps[0])] + queries[1:]
    with pytest.raises(ProtocolError):
        cache_side(params, TOY_PDA, caches[0], demand, wrong)
    side = cache_side(params, TOY_PDA, caches[0], demand, queries)
    streams = decode(params, TOY_PDA, signals)
    assert user_decode(params, side, streams, 0) == \
        combine(library, demand, params.q)


@pytest.mark.parametrize("user", [1, 2, 3])
def test_a_short_query_is_a_dimension_mismatch(user):
    # any user's query one residue short, not only the caller's own
    params, library, randomness, stores, ps, caches = build_toy_state(8)
    demands = [[1, 2, 3, 4], [0, 1, 0, 1], [5, 5, 0, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    queries[user - 1] = queries[user - 1][:3]
    message = f"^query of user {user} must hold 4 symbols, got 3$"
    with pytest.raises(DimensionMismatch, match=message):
        server_signal(params, TOY_PDA, stores[0], queries)
    other = user % 3  # a user whose own query is whole
    with pytest.raises(DimensionMismatch, match=message):
        cache_side(params, TOY_PDA, caches[other], demands[other], queries)


def test_list_and_tuple_queries_give_the_same_side():
    params, library, randomness, stores, ps, caches = build_toy_state(8)
    demands = [[1, 2, 3, 4], [0, 1, 0, 1], [5, 5, 0, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    listed = [list(qr) for qr in queries]
    assert server_signal(params, TOY_PDA, stores[0], listed) == \
        server_signal(params, TOY_PDA, stores[0], queries)
    for k in range(3):
        assert cache_side(params, TOY_PDA, caches[k], demands[k], listed) == \
            cache_side(params, TOY_PDA, caches[k], demands[k], queries)


def test_zero_library_decodes_to_zero():
    params = with_seed(TOY, 11)
    library = Library.zeros(params)
    randomness = Randomness.sample(params, TOY_PDA, random.Random(11))
    stores = build_storage(params, TOY_PDA, library, randomness)
    ps = [[1, 2, 3, 4], [0, 0, 0, 0], [6, 6, 6, 6]]
    caches = [place_user(params, TOY_PDA, library, randomness, k, ps[k - 1])
              for k in (1, 2, 3)]
    demand = [5, 4, 3, 2]
    demands = [demand, [0] * 4, [0] * 4]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    streams = decode(params, TOY_PDA, answers(params, TOY_PDA, stores[:params.J], queries))
    side = cache_side(params, TOY_PDA, caches[0], demand, queries)
    assert user_decode(params, side, streams, 0) == [0] * params.B


def test_criterion_6_instance_at_every_error_pattern():
    # the criterion-6 instance carries one symbol per server, so each
    # error pattern is one delivery.  Per J-subset, one decode_streams
    # batch takes every single error (within the budget: every user exact,
    # the adversary flagged) and every weight-2 pattern (beyond it: each
    # user outcome counted); recovery corrects every single-symbol error
    params = with_seed(ROBUST, 21)
    q = params.q
    rng = random.Random(21)
    library = Library.random(params, rng)
    randomness = Randomness.sample(params, ROBUST_PDA, rng)
    stores = build_storage(params, ROBUST_PDA, library, randomness)
    ps = [[rng.randrange(q) for _ in range(2)] for _ in range(2)]
    caches = [place_user(params, ROBUST_PDA, library, randomness, k, ps[k - 1])
              for k in (1, 2)]
    demands = [[rng.randrange(q) for _ in range(2)] for _ in range(2)]
    queries = [make_query(params, demands[k], ps[k]) for k in range(2)]
    sides = [cache_side(params, ROBUST_PDA, caches[k], demands[k], queries)
             for k in range(2)]
    expected = [combine(library, demands[k], q) for k in range(2)]
    honest = answers(params, ROBUST_PDA, stores, queries)
    assert {len(answer) for answer in honest.values()} == {1}

    def delivery(js, errors):
        return {h: ((honest[h][0] + errors[h]) % q,) if h in errors else honest[h]
                for h in js}

    within, beyond = 0, Counter()
    for js in combinations(range(1, 6), 4):
        single = [{h: v} for h in js for v in range(1, q)]
        double = [{h1: v1, h2: v2} for h1, h2 in combinations(js, 2)
                  for v1 in range(1, q) for v2 in range(1, q)]
        decoded = decode(params, ROBUST_PDA, *[delivery(js, errs) for errs in single + double])
        for d, errs in enumerate(single):
            assert flag_counts(decoded, d) == dict.fromkeys(errs, 1), errs
            for k in range(2):
                assert user_decode(params, sides[k], decoded, d) == expected[k]
            within += 1
        for d in range(len(single), len(single) + len(double)):
            for k in range(2):
                try:
                    got = user_decode(params, sides[k], decoded, d)
                except DecodingFailure:
                    beyond["detected"] += 1
                else:
                    beyond["right" if got == expected[k] else "miscorrected"] += 1
        for i, h in enumerate(js):
            for n, m in product(range(2), range(2)):
                for v in range(1, q):
                    contents = [stores[g - 1] for g in js]
                    files = list(contents[i].coded_subfiles)
                    files[n * 2 + m] = (files[n * 2 + m] + v) % q  # slice m of file n
                    contents[i] = replace(contents[i], coded_subfiles=tuple(files))
                    assert recover(params, contents).files == library.files
    assert within == 200
    # a miscorrection adds a codeword of weight 3, so f = d + c x with
    # d != 0 (c x vanishes at no point): no beyond-budget output is right
    assert (beyond["detected"], beyond["miscorrected"], beyond["right"]) == (4800, 1200, 0)


# ---------- whole-library recovery ----------


def test_recover_library_from_any_j_contents():
    params, library, randomness, stores, ps, caches = build_toy_state(9)
    from itertools import combinations
    for subset in combinations(range(6), params.J):
        got = recover(params, [stores[i] for i in subset])
        assert got.files == library.files


def test_recover_library_with_one_corrupted_content():
    params, library, randomness, stores, ps, caches = build_toy_state(10)
    for strategy in ALL_STRATEGIES:
        contents = stores[:params.J]
        contents[1] = adversary_content(params, strategy, stores[1], random.Random(0))
        assert recover(params, contents).files == library.files


def test_two_corruptions_exceed_the_budget_detectably():
    # weight-2 per-slice corruption, code distance 3: no codeword within
    # radius 1, so every slice must refuse rather than miscorrect
    params = with_seed(ROBUST, 12)
    library = Library.random(params, random.Random(12))
    randomness = Randomness.sample(params, ROBUST_PDA, random.Random(13))
    stores = build_storage(params, ROBUST_PDA, library, randomness)
    contents = stores[:params.J]
    bump = HonestPlusConstant(1)
    contents[0] = adversary_content(params, bump, stores[0], random.Random(0))
    contents[1] = adversary_content(params, bump, stores[1], random.Random(0))
    with pytest.raises(DecodingFailure):
        recover(params, contents)


def test_recover_batch_judges_each_set_alone():
    # one decode for every set; each gets its library or its own failure
    # text, and a batch whose servers disagree is refused whole
    params, library, randomness, stores, ps, caches = build_toy_state(16)
    J = params.J
    bump = HonestPlusConstant(1)
    one = [adversary_content(params, bump, stores[0], None)] + stores[1:J]
    two = one[:1] + [adversary_content(params, bump, stores[1], None)] + stores[2:J]
    sets = [stores[:J], two, one, two]
    got = recover_library(params, {h: [s[h - 1] for s in sets] for h in range(1, J + 1)})
    assert [type(g) for g in got] == [Library, DecodingFailure, Library, DecodingFailure]
    assert got[0].files == got[2].files == library.files
    with pytest.raises(DecodingFailure) as alone:
        recover(params, two)
    assert str(got[1]) == str(got[3]) == str(alone.value)
    assert recover_library(params, {h: [] for h in range(1, J + 1)}) == []
    uneven = {h: [stores[h - 1]] * (2 if h == 1 else 1) for h in range(1, J + 1)}
    with pytest.raises(ProtocolError, match=r"^servers \[1, 2, 3, 4, 5\] must hold the "
                                            "same number of sets$"):
        recover_library(params, uneven)
    for h, st, origin in ((2, stores[5], 6), (1, replace(stores[0], h=True), True)):
        misfiled = {g: [stores[g - 1]] for g in range(1, J + 1)}
        misfiled[h] = [st]
        with pytest.raises(ProtocolError,
                           match=f"^contents of server {origin} in the sets of server {h}$"):
            recover_library(params, misfiled)


def test_recover_rejects_wrong_count_and_duplicates():
    params, library, randomness, stores, ps, caches = build_toy_state(14)
    with pytest.raises(ProtocolError):
        recover(params, stores[:4])
    with pytest.raises(ProtocolError):
        recover(params, stores[:4] + [stores[3]])


def test_recover_checks_the_server_keys():
    params, library, randomness, stores, ps, caches = build_toy_state(14)
    with pytest.raises(ProtocolError, match="server 9 outside"):
        recover(params, stores[:4] + [replace(stores[4], h=9)])
    with pytest.raises(ProtocolError, match="server '5' outside"):
        recover(params, stores[:4] + [replace(stores[4], h="5")])


@pytest.mark.parametrize("extra", [1, -1])
def test_recover_checks_the_content_size(extra):
    # N * B/L = 12 coded subfile symbols per server; one more or one fewer
    params, library, randomness, stores, ps, caches = build_toy_state(14)
    subfiles = stores[4].coded_subfiles
    assert len(subfiles) == params.N * params.B // params.L
    resized = subfiles + (0,) if extra > 0 else subfiles[:-1]
    with pytest.raises(DimensionMismatch, match="^contents of server 5 have the wrong shape$"):
        recover(params, stores[:4] + [replace(stores[4], coded_subfiles=resized)])


def test_a_group_is_checked_stores_first_and_as_one():
    # decode_group makes the checks of both one-sided fronts, the stores'
    # first, and refuses sides that do not come from the same servers
    params, library, randomness, stores, ps, caches = build_toy_state(14)
    queries = [make_query(params, [1, 0, 0, 0], ps[k]) for k in range(3)]
    columns = {h: list(answer)
               for h, answer in answers(params, TOY_PDA, stores[:5], queries).items()}
    contents = {st.h: [st] for st in stores[:5]}
    streams, libraries = decode_group(params, TOY_PDA, columns, contents)
    assert [got.files for got in libraries] == [library.files]
    assert streamed(streams) == streamed(decode_streams(params, TOY_PDA, columns))
    assert decode_group(params, TOY_PDA, columns, None)[1] is None
    assert decode_group(params, None, None, contents)[0] is None
    with pytest.raises(ProtocolError, match="^a group needs columns or stores$"):
        decode_group(params, TOY_PDA, None, None)
    # a bad store and a bad column: the store's error
    short = {**columns, 5: columns[5][:-1]}
    misfiled = {h: contents[h] for h in range(1, 5)}
    misfiled[9] = contents[5]
    with pytest.raises(ProtocolError, match=r"^server 9 outside \[1..6\]$"):
        decode_group(params, TOY_PDA, short, misfiled)
    with pytest.raises(MissingSignals, match="must answer the same whole deliveries"):
        decode_group(params, TOY_PDA, short, contents)
    with pytest.raises(ProtocolError, match=r"^columns of servers \[1, 2, 3, 4, 5\] and "
                                            r"contents of servers \[2, 3, 4, 5, 6\] "
                                            "are no group$"):
        decode_group(params, TOY_PDA, columns, {st.h: [st] for st in stores[1:]})


# ---------- adversary plumbing ----------


def test_strategies_transform_the_flat_payload():
    params, library, randomness, stores, ps, caches = build_toy_state(15)
    demands = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    queries = [make_query(params, demands[k], ps[k]) for k in range(3)]
    honest = server_signal(params, TOY_PDA, stores[0], queries)
    flat = list(honest)

    zeroed = adversary_signal(params, ZeroPayload(), honest, random.Random(0))
    assert zeroed == (0,) * len(flat)

    bumped = adversary_signal(params, HonestPlusConstant(2), honest, random.Random(0))
    assert list(bumped) == [(x + 2) % 7 for x in flat]

    rotated = adversary_signal(params, HonestPermutedSlices(), honest, random.Random(0))
    assert list(rotated) == flat[1:] + [flat[0]]

    noisy1 = adversary_signal(params, UniformRandom(), honest, random.Random(0))
    noisy2 = adversary_signal(params, UniformRandom(), honest, random.Random(0))
    assert noisy1 == noisy2  # same seeded stream, same draw


def test_a_column_is_corrupted_as_its_deliveries_are():
    # a column of three deliveries, corrupted with one generator, is the
    # three answers corrupted in order with that generator, chained
    params, library, randomness, stores, ps, caches = build_toy_state(15)
    signals = [server_signal(params, TOY_PDA, stores[1],
                             [make_query(params, [d, 1, 0, d], ps[k]) for k in range(3)])
               for d in range(3)]
    column = [v for sig in signals for v in sig]
    for strategy in ALL_STRATEGIES:
        def rng():
            return random.Random(0) if strategy.draws else None

        shared = rng()
        expected = [adversary_signal(params, strategy, sig, shared) for sig in signals]
        assert adversary_column(params, strategy, column, 3, rng()) == [
            v for sig in expected for v in sig]
        # an all-star array's deliveries are empty: any number of runs holds them
        assert adversary_column(params, strategy, [], 3, rng()) == []
    for runs in (0, 2):
        with pytest.raises(DimensionMismatch,
                           match=f"^a column of 9 symbols is not {runs} equal runs$"):
            adversary_column(params, ZeroPayload(), column, runs, None)


def corrupt_run_by_run(strategy, column, runs, q, rng):
    """The oracle: each run corrupted on its own, in order, with one shared generator."""
    size = len(column) // runs
    out = []
    for d in range(runs):
        run = list(column[d * size:(d + 1) * size])
        if isinstance(strategy, UniformRandom):
            out += [rng.randrange(q) for _ in run]
        elif isinstance(strategy, ZeroPayload):
            out += [0] * len(run)
        elif isinstance(strategy, HonestPlusConstant):
            out += [(x + strategy.constant) % q for x in run]
        else:
            assert isinstance(strategy, HonestPermutedSlices)
            out += run[1:] + run[:1]
    return out


def test_a_column_is_corrupted_as_the_oracle_corrupts_its_runs():
    # one strategy call per column must give what corrupting each run on
    # its own gives, and leave the generator where that leaves it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        q = draw(st.sampled_from([3, 7, 13, 257, 65537]))
        strategy = draw(st.one_of(
            st.builds(UniformRandom, st.integers(0, 3)), st.just(ZeroPayload()),
            st.builds(HonestPlusConstant, st.integers(-2 * q, 2 * q)),
            st.just(HonestPermutedSlices())))
        runs = draw(st.integers(1, 6))
        size = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 12)))
        column = draw(st.lists(st.integers(0, q - 1), min_size=runs * size,
                               max_size=runs * size))
        return q, strategy, runs, column, draw(st.integers(0, 2 ** 32))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        q, strategy, runs, column, seed = case
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = adversary_column(replace(MICRO, q=q), strategy, column, runs,
                               got_rng if strategy.draws else None)
        assert got == corrupt_run_by_run(strategy, column, runs, q, want_rng)
        assert got_rng.getstate() == want_rng.getstate()

    check()


def test_adversary_content_preserves_shape():
    params, library, randomness, stores, ps, caches = build_toy_state(16)
    for strategy in ALL_STRATEGIES:
        fake = adversary_content(params, strategy, stores[3], random.Random(0))
        assert fake.h == stores[3].h
        assert len(fake.coded_subfiles) == len(stores[3].coded_subfiles)
        assert len(fake.coded_keys) == len(stores[3].coded_keys)


@pytest.mark.parametrize("extra", [1, -1])
def test_corruption_must_preserve_the_size(extra):
    # a strategy that sends one symbol more, or one fewer, than it got
    class Resized:
        label = "resized"

        def corrupt(self, column, runs, q, rng):
            return list(column) + [0] if extra > 0 else list(column[:-1])

    params, library, randomness, stores, ps, caches = build_toy_state(16)
    queries = [make_query(params, [1, 0, 0, 0], ps[k]) for k in range(3)]
    honest = server_signal(params, TOY_PDA, stores[3], queries)
    with pytest.raises(ProtocolError, match="^corruption must preserve the size$"):
        adversary_signal(params, Resized(), honest, random.Random(0))
    with pytest.raises(ProtocolError, match="^corruption must preserve the size$"):
        adversary_content(params, Resized(), stores[3], random.Random(0))


def test_strategy_keys_are_stable_and_distinct():
    # the keys seed every adversary's random stream: they must never change
    assert [strategy_key(s) for s in ALL_STRATEGIES] == [
        "uniform_random:0", "zero_payload", "honest_plus_constant:1",
        "honest_permuted_slices"]
    assert strategy_key(UniformRandom(5)) == "uniform_random:5"
    assert strategy_key(HonestPlusConstant(3)) == "honest_plus_constant:3"


# ---------- dimension errors and config ----------


def test_b_must_split_into_packets():
    params = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=5)
    library = Library.random(params, random.Random(0))
    with pytest.raises(DimensionMismatch):
        Randomness.sample(params, TOY_PDA, random.Random(0))
    params_ok = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=12)
    Randomness.sample(params_ok, TOY_PDA, random.Random(0))


def test_params_from_json_round_trip(tmp_path):
    doc = {"N": 4, "K": 3, "H": 6, "A": 1, "I": 1, "J": 5, "q": 7, "B": 6,
           "pda": {"man": {"k": 3, "t": 1}}}
    params, arr = params_from_json(doc)
    assert params == TOY
    assert arr.entries == TOY_PDA.entries

    grid_doc = dict(doc, pda={"grid": "* 1 2\n1 * 3\n2 3 *\n"})
    _, arr2 = params_from_json(grid_doc)
    assert arr2.entries == TOY_PDA.entries

    path = tmp_path / "toy.pda"
    path.write_text("* 1 2\n1 * 3\n2 3 *\n")
    _, arr3 = params_from_json(dict(doc, pda=path.name), base_dir=tmp_path)
    assert arr3.entries == TOY_PDA.entries


def test_params_from_json_rejects_unknown_and_missing_fields():
    with pytest.raises(ConfigError) as info:
        params_from_json({"N": 2, "K": 1, "H": 2, "A": 0, "I": 1, "J": 2,
                          "extra": 1})
    assert "extra" in str(info.value)
    with pytest.raises(ConfigError) as info:
        params_from_json({"N": 2, "K": 1, "H": 2, "A": 0, "I": 1})
    assert "J" in str(info.value)
    with pytest.raises(ConfigError):
        params_from_json({"N": 2, "K": 1, "H": 2, "A": 0, "I": 1, "J": True})


def test_params_from_json_checks_pda_width():
    doc = {"N": 2, "K": 2, "H": 5, "A": 1, "I": 1, "J": 4, "q": 11,
           "pda": {"man": {"k": 3, "t": 1}}}
    with pytest.raises(ConfigError):
        params_from_json(doc)
