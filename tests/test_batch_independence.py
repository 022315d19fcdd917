"""A word's decode does not depend on the other words of its batch.

A word leaves with a located word only if its syndromes meet that
locator's recurrence, that is, only if a codeword lies within distance
e, and a failing word's text comes from its own error locator, so decoding the concatenation of batches must give each
word what decoding its own batch gives it.  The same holds one level up:
``recover_library`` gives each set of stored contents what it gives
that set alone, and ``decode_group``, which decodes a group's stream
words and stored contents in one batch, gives each side what
``decode_streams`` and ``recover_library`` give it.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import streamed  # noqa: E402
from rsplfr.pda import man_pda  # noqa: E402
from rsplfr.protocol import (ALL_STRATEGIES, Library, Randomness, SystemParams,  # noqa: E402
                             adversary_column, adversary_content, build_storage,
                             decode_group, decode_streams, recover_library, server_signal)
from rsplfr.rscode import EvalPoints, decode_columns, encode  # noqa: E402


def outcomes(points, positions, k, e, words):
    """Each word's (message, flags) or failure text, from one decode_columns call."""
    columns = [[values[i] for values in words] for i in range(len(positions))]
    messages, flags, failures = decode_columns(points, positions, k, e, columns)
    return [str(failures[w]) if w in failures else
            ([m[w] for m in messages], {h for h, f in zip(positions, flags) if w in f})
            for w in range(len(words))]


@st.composite
def batches(draw):
    """A code, a few error supports up to two past the radius, and words on them in parts."""
    q = draw(st.sampled_from([7, 11, 13]))
    k = draw(st.integers(1, 3))
    H = draw(st.integers(k + 1, min(q - 1, 8)))
    positions = tuple(sorted(draw(st.sets(st.integers(1, H), min_size=k + 1))))
    e = draw(st.integers(0, (len(positions) - k) // 2))
    supports = draw(st.lists(st.sets(st.sampled_from(positions), max_size=e + 2),
                             min_size=1, max_size=4))
    points = EvalPoints.consecutive(q, H)
    symbol = st.integers(0, q - 1)

    def word():
        support = draw(st.sampled_from(supports))
        clean = encode(draw(st.lists(symbol, min_size=k, max_size=k)), points).positions
        return [(clean[h] + (draw(st.integers(1, q - 1)) if h in support else 0)) % q
                for h in positions]

    parts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    return points, positions, k, e, [[word() for _ in range(n)] for n in parts]


@settings(max_examples=150, deadline=None)
@given(batches())
def test_decoding_does_not_depend_on_the_batch(batch):
    points, positions, k, e, parts = batch
    whole = outcomes(points, positions, k, e, [w for part in parts for w in part])
    assert whole == [got for part in parts for got in outcomes(points, positions, k, e, part)]


TOY = SystemParams(N=4, K=3, H=6, A=1, I=1, J=5, q=7, B=6)
TOY_PDA = man_pda(3, 1)


@st.composite
def store_batches(draw):
    """J servers' contents in 1-4 sets, 0-3 of the servers corrupted in each, any strategy."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    library = Library.random(TOY, rng)
    stores = build_storage(TOY, TOY_PDA, library, Randomness.sample(TOY, TOY_PDA, rng))
    js = sorted(draw(st.sets(st.integers(1, TOY.H), min_size=TOY.J, max_size=TOY.J)))
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        bad = draw(st.sets(st.sampled_from(js), max_size=3))
        strategy = draw(st.sampled_from(ALL_STRATEGIES))
        sets.append({h: adversary_content(TOY, strategy, stores[h - 1], random.Random(h))
                     if h in bad else stores[h - 1] for h in js})
    return js, sets


def judged(got):
    """A recovered library as itself, a failure as its text."""
    return got if isinstance(got, Library) else str(got)


@settings(max_examples=100, deadline=None)
@given(store_batches())
def test_recovery_does_not_depend_on_the_batch(batch):
    js, sets = batch
    whole = recover_library(TOY, {h: [s[h] for s in sets] for h in js})
    assert [judged(got) for got in whole] == [
        judged(recover_library(TOY, {h: [s[h]] for h in js})[0]) for s in sets]


@st.composite
def groups(draw):
    """A group of J servers: 1-3 members' deliveries and 0-3 sets of stored contents.

    The same 0-3 of the J servers are adversarial in every member and set,
    each with any strategy, so the group is honest, within the radius
    (A = 1) or past it.  The array is man_pda(3, 1) or the all-star
    man_pda(3, 3), whose deliveries hold no words.
    """
    arr = draw(st.sampled_from([TOY_PDA, man_pda(3, 3)]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    library = Library.random(TOY, rng)
    stores = build_storage(TOY, arr, library, Randomness.sample(TOY, arr, rng))
    js = sorted(draw(st.sets(st.integers(1, TOY.H), min_size=TOY.J, max_size=TOY.J)))
    bad = draw(st.sets(st.sampled_from(js), max_size=3))
    D = draw(st.integers(1, 2))
    queries = [[tuple(rng.randrange(TOY.q) for _ in range(TOY.N)) for _ in range(TOY.K)]
               for _ in range(D)]
    honest = {h: [v for qs in queries for v in server_signal(TOY, arr, stores[h - 1], qs)]
              for h in js}
    columns = {h: [] for h in js}
    for _ in range(draw(st.integers(1, 3))):
        strategy = draw(st.sampled_from(ALL_STRATEGIES))
        for h in js:
            columns[h] += adversary_column(
                TOY, strategy, honest[h], D,
                random.Random(rng.getrandbits(32))) if h in bad else honest[h]
    contents = {h: [] for h in js}
    for _ in range(draw(st.integers(0, 3))):
        strategy = draw(st.sampled_from(ALL_STRATEGIES))
        for h in js:
            contents[h].append(adversary_content(TOY, strategy, stores[h - 1],
                                                 random.Random(rng.getrandbits(32)))
                               if h in bad else stores[h - 1])
    return arr, columns, contents


def streamed(streams):
    """Decoded streams as their words, each data row's slots, failure texts and flags."""
    slots, start, count = streams.slots, streams.start, streams.count
    rows = [slots.unpack(slots.window(row, start, count), count) for row in streams.rows]
    return (streams.words, rows, {w: str(f) for w, f in streams.failures.items()},
            streams.flagged)


@settings(max_examples=150, deadline=None)
@given(groups())
def test_a_group_decodes_as_its_two_sides_do(group):
    arr, columns, stores = group
    streams, libraries = decode_group(TOY, arr, columns, stores)
    assert streamed(streams) == streamed(decode_streams(TOY, arr, columns))
    assert [judged(got) for got in libraries] == [
        judged(got) for got in recover_library(TOY, stores)]
    # flags name stream words only, never a word of the stored contents
    stream_words = len(next(iter(columns.values())))
    assert all(w < stream_words for flagged in streams.flagged.values() for w in flagged)
