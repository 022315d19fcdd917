"""Staging corrupted columns for the decoder changes no draw and no decode.

``UniformRandom.corrupt(column, runs, q, rng)`` draws by the rejection
loop of ``Random.randrange`` over ``getrandbits``, so each symbol must
be the draw ``randrange(q)`` would give, and the generator must be left
where ``randrange`` leaves it.  ``_Slots.pack`` copies a column whose
values all fit a byte into byte 0 of each slot at once, and packs any
other column value by value, so both must give the same integer, on
any host: word w is slot w, little-endian.
``window``, ``at``, ``cut`` and ``spaced`` move and cut those slots as
list slicing moves and cuts the values.
``decode_columns`` packs each column first and reduces mod q only a
column whose packed word fails the range check, so any column must
decode as the same column reduced mod q does.
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
    assert UniformRandom().corrupt(flat, 1, q, rng) == want
    assert rng.getstate() == expected.getstate()


# every slot width the decoder's sums reach: one byte at q = 2 up to
# seventeen at 2^32 + 15
SLOTS = sorted({_Slots.for_sums(q, terms) for q in PRIMES for terms in range(1, 13)},
               key=lambda slots: (slots.size, slots.q))


def packed(values, size):
    """Value i in slot i, lowest byte first."""
    return sum(v << 8 * size * i for i, v in enumerate(values))


def test_the_slots_reach_every_pack_path():
    assert {s.size for s in SLOTS} == {1, 2, 3, 4, 5, 8, 9, 17}


def test_the_layout_is_little_endian_on_any_host():
    # mid_sweep's sums, q = 13 over J = 10 terms, need 3-byte slots
    slots = _Slots.for_sums(13, 10)
    assert slots.size == 3
    assert slots.pack([1, 2, 255]) == 1 | 2 << 24 | 255 << 48
    assert slots.pack([1, 2, 256]) == 1 | 2 << 24 | 256 << 48
    assert slots.unpack(1 | 2 << 24 | 12 << 48, 3) == [1, 2, 12]
    assert slots.pack([]) == 0 and slots.unpack(0, 0) == []
    assert slots.word(2) == 0xFFFFFF << 48
    assert slots.lowest(slots.word(1) | slots.word(2)) == 1
    assert slots.window(1 | 2 << 24 | 12 << 48, 1, 2) == 2 | 12 << 24
    assert slots.at(2 | 12 << 24, 1) == 2 << 24 | 12 << 48
    assert slots.cut(1 | 2 << 24 | 12 << 48, 1, 3) == [1, 2, 12]
    assert slots.spaced([1, 14, -1], 2) == 1 | 1 << 48 | 12 << 96


@pytest.mark.parametrize("q, planes", [(13, 1), (257, 2), (65537, 3), (2 ** 31 + 11, 4)])
def test_residues_round_trip_through_their_byte_planes(q, planes):
    assert ((q - 1).bit_length() + 7) // 8 == planes
    rng = random.Random(q)
    values = [0, 1, q - 1, q - 2] + [rng.randrange(q) for _ in range(200)]
    # the edges of each further byte plane a residue reaches
    values += [v for b in range(1, planes) for v in range((1 << 8 * b) - 1, (1 << 8 * b) + 2)
               if v < q]
    for terms in (1, 4, 7):
        slots = _Slots.for_sums(q, terms)
        assert slots.unpack(slots.pack(values), len(values)) == values


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=20), st.data())
def test_a_column_packs_one_value_per_slot(values, data):
    for slots in SLOTS:
        top = 1 << 8 * slots.size
        for column in (values, tuple(values)):
            assert slots.pack(column) == packed(values, slots.size)
        # one value past a byte: the whole column by the value-by-value path
        at = data.draw(st.integers(0, len(values)))
        wide = data.draw(st.integers(256, max(256, top - 1)))
        column = values[:at] + [wide] + values[at:]
        if wide < top:
            for seq in (column, tuple(column)):  # read again from its start
                assert slots.pack(seq) == packed(column, slots.size)
        else:  # a one-byte slot holds no such value
            with pytest.raises(OverflowError):
                slots.pack(column)
        column[at] = data.draw(st.integers(-top, -1))
        with pytest.raises(OverflowError):
            slots.pack(column)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_layout_operations_slice_the_slots(data):
    # window, at and cut against list slicing of the unpacked residues,
    # spaced against the list it spaces, at every slot width
    for slots in SLOTS:
        q = slots.q
        values = data.draw(st.lists(st.integers(0, q - 1), max_size=12)) + [q - 1]
        n, packed = len(values), slots.pack(values)
        start = data.draw(st.integers(0, n))
        count = data.draw(st.integers(0, n - start))
        window = slots.window(packed, start, count)
        assert slots.unpack(window, count) == values[start:start + count]
        w = data.draw(st.integers(0, 4))
        moved = slots.unpack(slots.at(window, w), w + count)
        assert moved == [0] * w + values[start:start + count]
        span = data.draw(st.integers(1, 4))
        blocks = data.draw(st.integers(0, n // span))
        cut = slots.cut(slots.window(packed, 0, span * blocks), span, blocks)
        assert [slots.unpack(block, span) for block in cut] == [
            values[i:i + span] for i in range(0, span * blocks, span)]
        wide = data.draw(st.lists(st.integers(-3 * q, 3 * q) | st.integers(-2 ** 70, 2 ** 70),
                                  max_size=6))
        step = data.draw(st.integers(1, 3))
        spaced = [0] * max(0, len(wide) * step - step + 1)
        spaced[::step] = [v % q for v in wide]
        assert slots.unpack(slots.spaced(wide, step), len(spaced)) == spaced


@st.composite
def columns(draw):
    """A code, a few codewords with errors, and columns with values outside [0, q)."""
    q = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, min(3, q - 1)))
    H = draw(st.integers(k, min(q - 1, 7)))
    positions = tuple(sorted(draw(st.sets(st.integers(1, H), min_size=k))))
    e = draw(st.integers(0, (len(positions) - k) // 2))
    points = EvalPoints.consecutive(q, H)
    slot = 1 << 8 * _Slots.for_sums(q, len(positions)).size
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
    slots = _Slots.for_sums(q, len(positions))
    for col in cols:
        if all(0 <= v < 1 << 8 * slots.size for v in col):  # packs as it is
            assert slots.canonical(slots.pack(col), slots.masks(len(col))) == all(
                v < q for v in col)
    reduced = [[v % q for v in col] for col in cols]
    assert outcome(points, positions, k, e, cols) == outcome(points, positions, k, e, reduced)


def outcome(points, positions, k, e, cols):
    """decode_columns' messages and flags, and its failures as their texts."""
    messages, flags, failures = decode_columns(points, positions, k, e, cols)
    return messages, flags, {w: str(exc) for w, exc in failures.items()}
