"""Groups decoded from packed servers decode as their list columns do.

``protocol._PackedServers`` packs each server's honest deliveries and
coded subfiles once, and decodes a batch of ``copies`` members from
them, an honest server's runs repeated per member and a corrupted
server's (column, contents) of each member checked and packed for that
batch.  Its ``decode`` must give what ``decode_group`` gives on the list
columns: the same packed rows, flag masks and failures, and the same
``differing`` sets against the honest reference, within the budget and
past it, on drawn arrays.  Its rows, unpacked, are those of
``rscode.decode_columns``, which packs each list column on its own.  At
q = 257 a column holding a 256 takes the ``to_bytes`` pack path, and at
q = 65537 every slot is 9 bytes wide.
"""

import random
from dataclasses import replace
from itertools import compress

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rsplfr.protocol import (ALL_STRATEGIES, Library, ProtocolError,  # noqa: E402
                             Randomness, _PackedServers, _server_columns, adversary_column,
                             adversary_content, build_storage, decode_group)
from rsplfr.rscode import decode_columns  # noqa: E402
from test_random_pdas import INSTANCES, pdas  # noqa: E402
from test_protocol import TOY, TOY_PDA  # noqa: E402


def judged(run):
    """What a decoded side holds: its layout, packed rows, failure texts and flag masks."""
    if run is None:
        return None
    return (run.start, run.count, run.words, run.rows,
            {w: str(f) for w, f in run.failures.items()}, getattr(run, "masks", None))


def unpacked(streams, libraries, js):
    """A batch's data rows, None at a failed word, its flagged words per server and failures."""
    slots, count = streams.slots, streams.count + (libraries.count if libraries else 0)
    failures = {**streams.failures, **(libraries.failures if libraries else {})}
    rows = [[None if w in failures else v for w, v in enumerate(slots.unpack(row, count))]
            for row in streams.rows]
    flags = [set(compress(range(count), slots.unpack(streams.masks.get(h, 0), count)))
             for h in js]
    return rows, flags, {w: str(f) for w, f in failures.items()}


def honest_instance(params, arr, rng, D):
    """Stores of every server and their honest columns over D drawn query sets."""
    stores = build_storage(params, arr, Library.random(params, rng),
                           Randomness.sample(params, arr, rng))
    queries_list = [[tuple(rng.randrange(params.q) for _ in range(params.N))
                     for _ in range(params.K)] for _ in range(D)]
    return stores, dict(zip(range(1, params.H + 1),
                            _server_columns(params, arr, stores, queries_list)))


@pytest.mark.parametrize("sizes", [(0, 1), (2,)], ids=["within", "beyond"])
def test_a_group_of_packed_runs_decodes_as_its_list_columns(sizes):
    # A = 1 in both instances, so two adversaries are past the radius
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(pdas(), st.sampled_from(INSTANCES), st.sampled_from([7, 257, 65537]),
           st.sampled_from([1, 3, 4]), st.sampled_from(sizes), st.booleans(),
           st.randoms(use_true_random=False))
    def check(arr, base, q, copies, adversaries, with_stores, rng):
        params = replace(base, K=arr.K, B=base.L * arr.F, q=q)
        D = 2
        stores, honest = honest_instance(params, arr, rng, D)
        js = sorted(rng.sample(range(1, params.H + 1), params.J))
        bad = rng.sample(js, adversaries)
        columns = {h: honest[h] * copies for h in js}
        contents = {h: [stores[h - 1]] * copies for h in js}
        corrupted = {h: [] for h in bad}
        for h in bad:
            columns[h], contents[h] = [], []
            for _ in range(copies):
                strategy, gen = rng.choice(ALL_STRATEGIES), random.Random(rng.getrandbits(32))
                content = [adversary_content(params, strategy, stores[h - 1], gen)]
                column = adversary_column(params, strategy, honest[h], D, gen)
                corrupted[h].append((column, content if with_stores else []))
                contents[h] += content
                columns[h] += column

        servers = _PackedServers(params, arr, honest, {st_.h: [st_] for st_ in stores}
                                 if with_stores else None, params.H)
        got = servers.decode(js, copies, corrupted)
        want = decode_group(params, arr, columns, contents if with_stores else None)
        assert [judged(run) for run in got] == [judged(run) for run in want]
        # the same words, packed column by column by the list decoder
        lists = [columns[h] + ([v for st_ in contents[h] for v in st_.coded_subfiles]
                               if with_stores else []) for h in js]
        rows, flags, failures = decode_columns(params.points, js, params.I + params.L,
                                               params.A, lists, rows=params.L)
        assert unpacked(*got, js) == (rows, flags, {w: str(f) for w, f in failures.items()})

        # against the honest reference of one member, decoded both ways
        ref_got = servers.decode(js)
        ref_want = decode_group(params, arr, {h: honest[h] for h in js},
                                {h: [stores[h - 1]] for h in js} if with_stores else None)
        for side in range(1 + with_stores):
            assert got[side].differing(ref_got[side], copies) == \
                want[side].differing(ref_want[side], copies)

    check()


def test_a_corrupted_member_is_checked_as_its_servers_own():
    # each member's column must answer the given deliveries, and its
    # contents hold the given sets of the server's own shape
    rng = random.Random(3)
    stores, honest = honest_instance(TOY, TOY_PDA, rng, 2)
    servers = _PackedServers(TOY, TOY_PDA, honest, {st.h: [st] for st in stores}, TOY.H)
    js, store = [1, 2, 3, 4, 5], stores[0]
    words = len(honest[1])
    for member, text in (
            ((honest[1][:words // 2], [store]), f"{words // 2} stream words and 1 sets, not "),
            ((honest[1][:-1], [store]), f"{words - 1} stream words"),
            ((honest[1], []), "0 sets"),
            ((honest[1], [store, store]), "2 sets"),
            ((honest[1], [stores[1]]), "contents of server 2 in the sets of server 1"),
            ((honest[1], [replace(store, coded_subfiles=store.coded_subfiles[1:])]),
             "wrong shape")):
        with pytest.raises(ProtocolError, match=text):
            servers.decode(js, 2, {1: [(honest[1], [store]), member]})
    streams, libraries = servers.decode(js, 2, {1: [(honest[1], [store])] * 2})
    assert not streams.failures and [lib.files for lib in libraries] == \
        [lib.files for lib in decode_group(TOY, TOY_PDA, {h: honest[h] for h in js},
                                           {h: [stores[h - 1]] for h in js})[1]] * 2
