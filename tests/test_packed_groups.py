"""Groups built from packed runs decode as their list columns do.

A sweep packs each server's honest deliveries and coded subfiles once
per replay.  In a group of ``copies`` members an honest server's column
is its packed deliveries repeated ``copies`` times by
``_Slots.repeat``, then its packed coded subfiles repeated alike; only
an adversarial server's corrupted column and contents are packed for
the group.  ``_decode_packed_group`` on that batch must give what
``decode_group`` gives on the list columns: the same packed rows, flag
masks and failures, and the same ``differing`` sets against the honest
reference, within the budget and past it, on drawn arrays.  At q = 257
a column holding a 256 takes the ``to_bytes`` pack path, and at
q = 65537 every slot is 9 bytes wide.
"""

import random
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rsplfr.protocol import (ALL_STRATEGIES, Library, Randomness,  # noqa: E402
                             _decode_packed_group, _server_columns, adversary_column,
                             adversary_content, build_storage, decode_group)
from rsplfr.rscode import _Slots  # noqa: E402
from test_random_pdas import INSTANCES, pdas  # noqa: E402


def judged(run):
    """What a decoded side holds: its layout, packed rows, failure texts and flag masks."""
    if run is None:
        return None
    return (run.start, run.count, run.words, run.rows,
            {w: str(f) for w, f in run.failures.items()}, getattr(run, "masks", None))


@pytest.mark.parametrize("sizes", [(0, 1), (2,)], ids=["within", "beyond"])
def test_a_group_of_packed_runs_decodes_as_its_list_columns(sizes):
    # A = 1 in both instances, so two adversaries are past the radius
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(pdas(), st.sampled_from(INSTANCES), st.sampled_from([7, 257, 65537]),
           st.sampled_from([1, 3, 4]), st.sampled_from(sizes), st.booleans(),
           st.randoms(use_true_random=False))
    def check(arr, base, q, copies, adversaries, with_stores, rng):
        params = replace(base, K=arr.K, B=base.L * arr.F, q=q)
        stores = build_storage(params, arr, Library.random(params, rng),
                               Randomness.sample(params, arr, rng))
        D = 2
        queries_list = [[tuple(rng.randrange(q) for _ in range(params.N))
                         for _ in range(params.K)] for _ in range(D)]
        honest = dict(zip(range(1, params.H + 1),
                          _server_columns(params, arr, stores, queries_list)))
        js = sorted(rng.sample(range(1, params.H + 1), params.J))
        bad = rng.sample(js, adversaries)
        columns = {h: honest[h] * copies for h in js}
        contents = {h: [stores[h - 1]] * copies for h in js}
        for h in bad:
            columns[h], contents[h] = [], []
            for _ in range(copies):
                strategy, gen = rng.choice(ALL_STRATEGIES), random.Random(rng.getrandbits(32))
                contents[h].append(adversary_content(params, strategy, stores[h - 1], gen))
                columns[h] += adversary_column(params, strategy, honest[h], D, gen)

        # each honest run packed once, then repeated per member
        slots = _Slots.for_sums(q, params.J)
        words = arr.S * params.B // (params.L * arr.F)  # per delivery
        streamed, stored = D * words, params.N * params.B // params.L if with_stores else 0
        runs = {h: (slots.pack_mod(honest[h], slots.masks(streamed)),
                    slots.pack_mod(stores[h - 1].coded_subfiles, slots.masks(stored))
                    if stored else 0) for h in js}

        def repeated(h, times):
            column, store = runs[h]
            return (slots.repeat(column, streamed, times)
                    | slots.repeat(store, stored, times) << 8 * slots.size * times * streamed)

        masks = slots.masks(copies * (streamed + stored))
        batch = {h: repeated(h, copies) for h in js}
        for h in bad:
            batch[h] = slots.pack_mod(columns[h] + [v for st_ in contents[h] if stored
                                                    for v in st_.coded_subfiles], masks)
        sets = copies if with_stores else None
        got = _decode_packed_group(params, batch, copies * streamed, words, sets)
        want = decode_group(params, arr, columns, contents if with_stores else None)
        assert [judged(run) for run in got] == [judged(run) for run in want]

        # against the honest reference of one member, decoded both ways
        ref_got = _decode_packed_group(params, {h: repeated(h, 1) for h in js}, streamed,
                                       words, 1 if with_stores else None)
        ref_want = decode_group(params, arr, {h: honest[h] for h in js},
                                {h: [stores[h - 1]] for h in js} if with_stores else None)
        for side in range(1 + with_stores):
            assert got[side].differing(ref_got[side], copies) == \
                want[side].differing(ref_want[side], copies)

    check()
