"""Stores and caches, built for a list of (library, randomness) sources at once.

The audits build every probe's stores in one ``_storages`` call and each
user's caches in one ``_placements`` call; ``build_storage`` and
``place_user`` are their one-source cases.  On any array, including one
with no stream symbol, with packets longer than one symbol, at residues
one to three bytes wide, over zero to four sources whose values may lie
outside [0, q), each source's stores and caches must equal the
step-by-step ones in ``oracles``.  A list with one malformed source must
raise what the one-source call raises for it, class and text.
"""

import random
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from rsplfr.pda import man_pda  # noqa: E402
from rsplfr.protocol import (Library, ProtocolError, Randomness,  # noqa: E402
                             _placements, _storages, build_storage, place_user)
from test_random_pdas import INSTANCES, pdas  # noqa: E402

# one malformation of a source: a file too few, a symbol too many in the
# last file, each randomness run one symbol short, a blend vector one
# symbol too long, a user outside the array
DEFECTS = ("files", "file", "deltas", "vees", "lambdas", "blend", "user")


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or its ProtocolError's class and text."""
    try:
        return fn(*args)
    except ProtocolError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.one_of(pdas(), st.integers(1, 4).map(lambda K: man_pda(K, K))),  # all-star: S = 0
       st.sampled_from(INSTANCES), st.sampled_from([7, 257, 65537]), st.integers(1, 3),
       st.integers(0, 4), st.integers(0, 2 ** 16),
       st.sampled_from([(0,), (-1,), (1,), (40,), (0, -1, 1, 40)]),
       st.sampled_from(DEFECTS))
def test_batched_stores_and_caches_equal_the_scalar_forms(arr, base, q, pkt, count, seed,
                                                          lifts, defect):
    params = replace(base, K=arr.K, B=base.L * arr.F * pkt, q=q)
    rng = random.Random(seed)

    def lifted(values):
        """Each value plus q times a drawn lift: 0 keeps it a residue."""
        return tuple(v + q * rng.choice(lifts) for v in values)

    sources = []
    for _ in range(count):
        library = Library.random(params, rng)
        randomness = Randomness.sample(params, arr, rng)
        sources.append((Library(tuple(map(lifted, library.files))),
                        Randomness(*map(lifted, (randomness.deltas, randomness.vees,
                                                 randomness.lambdas))),
                        lifted([rng.randrange(q) for _ in range(params.N)])))
    pairs = [(library, randomness) for library, randomness, _ in sources]

    assert _storages(params, arr, pairs) == [
        oracles.build_storage(params, arr, library, randomness) for library, randomness in pairs]
    for k in range(1, params.K + 1):
        assert _placements(params, arr, sources, k) == [
            oracles.place_user(params, arr, library, randomness, k, p)
            for library, randomness, p in sources]

    if not sources:
        return
    # one source malformed: the list raises what the one-source call
    # raises for it, or, where the defect is not the builder's, builds
    t = rng.randrange(count)
    library, randomness, p = sources[t]
    k = rng.randrange(1, params.K + 1)
    if defect == "files":
        library = Library(library.files[1:])
    elif defect == "file":
        library = Library(library.files[:-1] + (library.files[-1] + (0,),))
    elif defect in ("deltas", "vees", "lambdas"):  # vees and lambdas are empty where S = 0
        randomness = replace(randomness, **{defect: getattr(randomness, defect)[1:]})
    elif defect == "blend":
        p = p + (0,)
    else:
        k = params.K + 1
    bad = list(sources)
    bad[t] = library, randomness, p
    raises = defect in ("files", "file", "deltas") or (defect in ("vees", "lambdas")
                                                       and arr.S > 0)

    one = outcome(build_storage, params, arr, library, randomness)
    assert isinstance(one, tuple) == raises
    assert outcome(oracles.build_storage, params, arr, library, randomness) == one
    assert outcome(_storages, params, arr, [(lib, rnd) for lib, rnd, _ in bad]) == (
        one if raises else [oracles.build_storage(params, arr, lib, rnd) for lib, rnd, _ in bad])

    one = outcome(place_user, params, arr, library, randomness, k, p)
    raises = raises or defect in ("blend", "user")
    assert isinstance(one, tuple) == raises
    assert outcome(oracles.place_user, params, arr, library, randomness, k, p) == one
    assert outcome(_placements, params, arr, bad, k) == (
        one if raises else [oracles.place_user(params, arr, lib, rnd, k, p_)
                            for lib, rnd, p_ in bad])
