"""Staging corrupted columns for the decoder changes no draw and no decode.

``UniformRandom.corrupt`` draws by the rejection loop of
``Random.randrange`` over ``getrandbits``, so each symbol must be the
draw ``randrange(q)`` would give, and the generator must be left where
``randrange`` leaves it.  ``decode_columns`` packs each column first and
reduces mod q only a column whose packed word fails the range check, so
any column must decode as the same column reduced mod q does.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rsplfr.protocol import UniformRandom  # noqa: E402
from rsplfr.rscode import EvalPoints, _Slots, decode_columns, encode  # noqa: E402

# primes with one- to nine-byte slots, and 2^32 + 15, past every 32-bit draw
PRIMES = [2, 3, 7, 13, 257, 65537, 2 ** 32 + 15]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 2 ** 64), st.integers(0, 40))
def test_uniform_corruption_draws_what_randrange_draws(q, seed, n):
    flat = [0] * n
    expected = random.Random(seed)
    want = [expected.randrange(q) for _ in flat]
    rng = random.Random(seed)
    assert UniformRandom().corrupt(flat, q, rng) == want
    assert rng.getstate() == expected.getstate()


@st.composite
def columns(draw):
    """A code, a few codewords with errors, and columns with values outside [0, q)."""
    q = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, min(3, q - 1)))
    H = draw(st.integers(k, min(q - 1, 7)))
    positions = tuple(sorted(draw(st.sets(st.integers(1, H), min_size=k))))
    e = draw(st.integers(0, (len(positions) - k) // 2))
    points = EvalPoints.consecutive(q, H)
    slot = 1 << 8 * _Slots.for_sums(q, k + 1).size
    b = 1 << (q - 1).bit_length()
    W = draw(st.integers(0, 6))
    words = []
    for _ in range(W):
        clean = encode(draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k)),
                       points).positions
        support = draw(st.sets(st.sampled_from(positions), max_size=e + 1))
        words.append([(clean[h] + (draw(st.integers(1, q - 1)) if h in support else 0)) % q
                      for h in positions])
    # each value outside [0, q) stands for the residue it is added to
    shift = st.one_of(st.integers(-3, -1), st.integers(1, 3),
                      st.sampled_from([b // q + 1, slot // q - 1, slot // q, slot // q + 1,
                                       2 ** 70 // q]))
    cols = []
    for i in range(len(positions)):
        col = [values[i] for values in words]
        if draw(st.booleans()):  # a column with values outside [0, q)
            col = [v + q * draw(st.one_of(st.just(0), shift)) for v in col]
        cols.append(col)
    return points, positions, k, e, cols


@settings(max_examples=300, deadline=None)
@given(columns())
def test_a_column_decodes_as_its_residues_do(case):
    points, positions, k, e, cols = case
    q = points.q
    slots = _Slots.for_sums(q, k + 1)
    for col in cols:
        if all(0 <= v < 1 << 8 * slots.size for v in col):  # packs as it is
            assert slots.canonical(slots.pack(col), len(col)) == all(v < q for v in col)
    reduced = [[v % q for v in col] for col in cols]
    assert outcome(points, positions, k, e, cols) == outcome(points, positions, k, e, reduced)


def outcome(points, positions, k, e, cols):
    """decode_columns' messages and flags, and its failures as their texts."""
    messages, flags, failures = decode_columns(points, positions, k, e, cols)
    return messages, flags, {w: str(exc) for w, exc in failures.items()}
