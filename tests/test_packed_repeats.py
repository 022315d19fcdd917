"""Decoded batches read packed as their lists read them.

A sweep asks each decoded batch which of its deliveries, and which of its
sets, are no copies of the honest reference's: ``differing`` answers from
the packed rows.  That replaces comparing each delivery's data with the
reference delivery's and each set's library with the reference library.
So on any batch, within the radius or past it, ``differing`` must name
exactly the runs where those comparisons fail, failed words included, and
must refuse a reference that has a failure.  Likewise each user reads its
slots of one delivery from the packed rows, and must get what decoding
that delivery alone and adding its list values gives, or the same error.
"""

import dataclasses
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import user_output  # noqa: E402
from rsplfr.pda import man_pda  # noqa: E402
from rsplfr.protocol import (ALL_STRATEGIES, Library, MissingSignals,  # noqa: E402
                             ProtocolError, Randomness, SystemParams, adversary_column,
                             adversary_content, build_storage, cache_side, decode_group,
                             place_user, server_signal, user_decode)
from rsplfr.rscode import DecodingFailure  # noqa: E402

TOY = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=6)


@st.composite
def judged(draw, q, arr):
    """A reference batch of one member and a group batch of 1-4 members.

    Each member draws its own J servers and 0-2 adversaries among them
    (A = 1), with any strategy, in its deliveries and in its stored
    contents.  Each batch is decoded with its stored contents or without.
    In an all-zero library and randomness every honest word is 0, as a
    failed word's slots are, so only the failures tell those words apart.
    Returns ``(D, times, reference, group, world)``: ``world`` holds the
    params, library, randomness, the D deliveries' queries and the group's
    columns.
    """
    params = dataclasses.replace(TOY, q=q)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        library = Library.random(params, rng)
        randomness = Randomness.sample(params, arr, rng)
    else:
        library = Library.zeros(params)
        randomness = Randomness(*((0,) * n for n in Randomness.sizes(params, arr)))
    stores = build_storage(params, arr, library, randomness)
    D = draw(st.integers(1, 2))
    queries = [[tuple(rng.randrange(q) for _ in range(params.N)) for _ in range(params.K)]
               for _ in range(D)]
    honest = {st_.h: [v for qs in queries for v in server_signal(params, arr, st_, qs)]
              for st_ in stores}

    def batch(members, with_stores):
        js = sorted(draw(st.sets(st.integers(1, params.H), min_size=params.J,
                                 max_size=params.J)))
        columns, contents = {h: [] for h in js}, {h: [] for h in js}
        for _ in range(members):
            bad = draw(st.sets(st.sampled_from(js), max_size=2))
            strategy = draw(st.sampled_from(ALL_STRATEGIES))
            gen = random.Random(rng.getrandbits(32))
            for h in js:
                if h in bad:
                    contents[h].append(adversary_content(params, strategy, stores[h - 1], gen))
                    columns[h] += adversary_column(params, strategy, honest[h], D, gen)
                else:
                    contents[h].append(stores[h - 1])
                    columns[h] += honest[h]
        return columns, decode_group(params, arr, columns, contents if with_stores else None)

    times = draw(st.integers(1, 4))
    reference = batch(1, draw(st.booleans()))[1]
    columns, group = batch(times, draw(st.booleans()))
    return D, times, reference, group, (params, library, randomness, queries, columns)


def delivery(streams, d):
    """Delivery d's data as lists: each data row's words, None where a word failed."""
    slots, first, words = streams.slots, d * streams.words, streams.words
    return [[None if first + w in streams.failures else v
             for w, v in enumerate(slots.unpack(slots.window(row, first, words), words))]
            for row in streams.rows]


def outcome(decode, *args):
    """What ``decode(*args)`` returns, or the class and text of what it raises."""
    try:
        return decode(*args)
    except (ProtocolError, DecodingFailure) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("arr", [man_pda(3, 1), man_pda(3, 3)], ids=["S=3", "all-star"])
@pytest.mark.parametrize("q", [7, 13, 257, 65537])
def test_repeats_agrees_with_the_list_comparisons(q, arr):
    @settings(max_examples=40, deadline=None)
    @given(judged(q, arr))
    def check(case):
        D, times, (ref_streams, ref_libraries), (streams, libraries), _ = case
        if ref_streams.failures:
            with pytest.raises(ValueError):
                streams.differing(ref_streams, times)
        else:
            assert streams.differing(ref_streams, times) == {
                d for d in range(times * D)
                if delivery(streams, d) != delivery(ref_streams, d % D)}
        if libraries is None or ref_libraries is None:
            return
        if ref_libraries.failures:
            with pytest.raises(ValueError):
                libraries.differing(ref_libraries, times)
        else:
            assert libraries.differing(ref_libraries, times) == {
                u for u, got in enumerate(libraries)
                if isinstance(got, DecodingFailure) or got.files != ref_libraries[0].files}

    check()


@pytest.mark.parametrize("arr", [man_pda(3, 1), man_pda(3, 3)], ids=["S=3", "all-star"])
@pytest.mark.parametrize("q", [7, 13, 257, 65537])
def test_users_read_what_a_list_reference_decodes(q, arr):
    # every user of every delivery of the group batch, against decoding
    # that delivery alone and adding its list values; a user's blend
    # vector is chosen so that the drawn query is its demand + blend
    @settings(max_examples=40, deadline=None)
    @given(judged(q, arr), st.randoms(use_true_random=False))
    def check(case, rng):
        D, times, _, (streams, _), (params, library, randomness, queries, columns) = case
        sides = []
        for qs in queries:
            sides.append([])
            for k, query in enumerate(qs, start=1):
                demand = [rng.randrange(q) for _ in range(params.N)]
                cache = place_user(params, arr, library, randomness, k,
                                   [(x - v) % q for x, v in zip(query, demand)])
                sides[-1].append(cache_side(params, arr, cache, demand, qs))
        for d in range(times * D):
            for side in sides[d % D]:
                assert outcome(user_decode, params, side, streams, d) == \
                    outcome(user_output, params, arr, side, columns, d)
        for side in sides[0]:
            for d in (-1, times * D):
                got = outcome(user_decode, params, side, streams, d)
                assert got == outcome(user_output, params, arr, side, columns, d)
                # an all-star delivery holds no words: any d >= 0 is in the batch
                if d < 0 or arr.S:
                    assert got == (MissingSignals,
                                   f"deliveries {d}..{d} lie outside the batch")

    check()
