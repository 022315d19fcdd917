"""Errors-and-erasures decoding over a prime field.

The production decoder locates errors from the syndromes by
Berlekamp-Massey; the oracle enumerates every error support.  They must
agree on success (same message and flags) and on failure (both refuse).
Every word of a ``decode_columns`` batch must equal the oracle and the
one-word ``decode``, failure text included.
"""

import random
from itertools import combinations

import pytest

from rsplfr.ff import NotPrimeError
import rsplfr.rscode
from rsplfr.rscode import (AmbiguousCandidate, Codeword, DecodingFailure,
                           EvalPoints, NoCandidate, brute_force_decode, decode,
                           decode_columns, encode)


def corrupt(cw: Codeword, position: int, delta: int, q: int) -> Codeword:
    values = dict(cw.positions)
    values[position] = (values[position] + delta) % q
    return Codeword(cw.dimension, values)


def keep(cw: Codeword, positions) -> Codeword:
    return Codeword(cw.dimension, {h: cw.positions[h] for h in positions})


def test_encode_linear_polynomial():
    points = EvalPoints(5, (1, 2, 3))
    cw = encode([1, 1], points)  # 1 + x
    assert cw.positions == {1: 2, 2: 3, 3: 4}
    assert cw.dimension == 2


def test_decode_clean_word_no_radius():
    points = EvalPoints.consecutive(7, 5)
    cw = encode([3, 1, 4], points)
    msg, flags = decode(cw, points, 0)
    assert msg == [3, 1, 4]
    assert flags == set()


def test_decode_single_corruption_and_flags_it():
    points = EvalPoints.consecutive(7, 5)
    cw = corrupt(encode([3, 1], points), 2, 1, 7)
    msg, flags = decode(cw, points, 1)
    assert msg == [3, 1]
    assert flags == {2}


def test_decode_with_erasures_and_one_error():
    points = EvalPoints.consecutive(11, 8)
    original = [5, 0, 7]
    cw = keep(encode(original, points), (1, 3, 4, 6, 8))  # J=5, k=3, e=1
    cw = corrupt(cw, 6, 9, 11)
    msg, flags = decode(cw, points, 1)
    assert msg == original
    assert flags == {6}


def test_exhaustive_single_errors_small_field():
    # every message, every corrupted position, every nonzero error value
    points = EvalPoints.consecutive(5, 4)
    for a in range(5):
        for b in range(5):
            clean = encode([a, b], points)
            for pos in range(1, 5):
                for delta in range(1, 5):
                    received = corrupt(clean, pos, delta, 5)
                    msg, flags = decode(received, points, 1)
                    assert msg == [a, b]
                    assert flags == {pos}


def test_beyond_radius_is_detected_not_miscorrected():
    # constant codewords have distance 4 here, so a weight-2 corruption
    # leaves no codeword within radius 1
    points = EvalPoints.consecutive(5, 4)
    received = corrupt(corrupt(encode([2], points), 1, 1, 5), 2, 1, 5)
    with pytest.raises(DecodingFailure):
        decode(received, points, 1)
    with pytest.raises(NoCandidate):
        brute_force_decode(received, points, 1)


def test_zeroing_every_position_lands_on_the_zero_codeword():
    # wiping a whole nonzero codeword is indistinguishable from sending
    # the zero message; the decoder must return that, not the original
    points = EvalPoints.consecutive(7, 6)
    cw = encode([2, 5], points)
    wiped = Codeword(cw.dimension, {h: 0 for h in cw.positions})
    changed = sum(1 for h in cw.positions if cw.positions[h] != 0)
    assert changed > 1  # corruption far beyond the radius
    msg, flags = decode(wiped, points, 1)
    assert msg == [0, 0]
    assert msg != [2, 5]
    assert flags == set()


def test_radius_zero_rejects_corruption_when_redundant():
    points = EvalPoints.consecutive(7, 4)
    received = corrupt(encode([1, 2, 3], points), 3, 2, 7)
    with pytest.raises(DecodingFailure):
        decode(received, points, 0)


def test_corruption_without_redundancy_is_undetectable():
    # J == k: every word interpolates exactly, so the damage passes through
    points = EvalPoints.consecutive(7, 3)
    received = corrupt(encode([1, 2, 3], points), 3, 2, 7)
    msg, flags = decode(received, points, 0)
    assert flags == set()
    assert msg != [1, 2, 3]


def test_oracle_ambiguity_outside_decoder_contract():
    # one symbol, two positions, radius one: either position may be the error
    points = EvalPoints(5, (1, 2))
    received = Codeword(1, {1: 2, 2: 3})
    with pytest.raises(AmbiguousCandidate):
        brute_force_decode(received, points, 1)
    with pytest.raises(ValueError):
        decode(received, points, 1)  # J - k < 2e is refused up front


def test_too_few_positions_rejected():
    points = EvalPoints.consecutive(7, 6)
    cw = keep(encode([1, 2, 3], points), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        decode(cw, points, 1)  # 4 - 3 < 2


def test_bad_inputs_rejected():
    with pytest.raises(NotPrimeError):
        EvalPoints(6, (1, 2))
    with pytest.raises(ValueError):
        EvalPoints(5, (1, 1))
    with pytest.raises(ValueError):
        EvalPoints(5, (0, 1))
    with pytest.raises(ValueError):
        EvalPoints.consecutive(5, 5)
    points = EvalPoints.consecutive(5, 4)
    with pytest.raises(ValueError):
        encode([], points)
    with pytest.raises(ValueError):
        encode([1] * 5, points)
    with pytest.raises(ValueError):
        decode(Codeword(2, {9: 1}), points, 0)
    with pytest.raises(ValueError):
        decode(Codeword(2, {1: 1, 2: 2}), points, -1)


def random_instance(rng: random.Random):
    q = rng.choice([11, 13])
    k = rng.randint(1, 4)
    H = rng.randint(k, 8)
    points = EvalPoints.consecutive(q, H)
    msg = [rng.randrange(q) for _ in range(k)]
    present = rng.sample(range(1, H + 1), rng.randint(k, H))
    J = len(present)
    e_max = (J - k) // 2
    e = rng.randint(0, e_max)
    cw = keep(encode(msg, points), present)
    n_err = rng.randint(0, e) if e else 0
    bad = rng.sample(present, n_err)
    for h in bad:
        cw = corrupt(cw, h, rng.randint(1, q - 1), q)
    return points, cw, e, msg


def test_randomized_agreement_with_oracle():
    rng = random.Random(20260819)
    for _ in range(300):
        points, cw, e, msg = random_instance(rng)
        got_msg, got_flags = decode(cw, points, e)
        oracle_msg, oracle_flags = brute_force_decode(cw, points, e)
        assert got_msg == oracle_msg == msg
        assert got_flags == oracle_flags


def test_randomized_overload_agreement_with_oracle():
    # push past the radius as well; then both must fail, or both must
    # succeed on the same nearer codeword
    rng = random.Random(97)
    for _ in range(300):
        points, cw, e, _msg = random_instance(rng)
        extra = random.Random(rng.random())
        for h in list(cw.positions)[: extra.randint(0, len(cw.positions))]:
            if extra.random() < 0.4:
                cw = corrupt(cw, h, extra.randint(1, points.q - 1), points.q)
        try:
            got = decode(cw, points, e)
        except DecodingFailure:
            got = None
        try:
            expected = brute_force_decode(cw, points, e)
        except DecodingFailure:
            expected = None
        assert (got is None) == (expected is None)
        if got is not None:
            assert got[0] == expected[0]
            assert got[1] == expected[1]


# ---------- one batch of words at the same positions ----------


def outcome(fn):
    try:
        return fn()
    except DecodingFailure:
        return "failure"


def word(points, positions, msg, errors):
    """msg encoded at positions, plus errors: {position: delta}."""
    clean = encode(msg, points).positions
    return [(clean[h] + errors.get(h, 0)) % points.q for h in positions]


def as_columns(words, J):
    return [[values[i] for values in words] for i in range(J)]


def batch(points, positions, k, e, words):
    """Each word of one decode_columns call: (message, flags) or its failure text."""
    messages, flags, failures = decode_columns(points, positions, k, e,
                                               as_columns(words, len(positions)))
    return [str(failures[w]) if w in failures else
            ([m[w] for m in messages], {h for h, f in zip(positions, flags) if w in f})
            for w in range(len(words))]


def batch_agrees(points, positions, k, e, words, cut=None):
    """Every word of a decode_columns batch equals decode and the oracle.

    decode must give the same message, flags and failure text, and the
    oracle the same message and flags, or refuse too.  With ``cut``, the
    two parts of the batch must each agree as well.
    """
    expected = []
    for values in words:
        cw = Codeword(k, dict(zip(positions, values)))
        try:
            one = decode(cw, points, e)
        except DecodingFailure as exc:
            one = str(exc)
        oracle = outcome(lambda: brute_force_decode(cw, points, e))
        assert ("failure" if isinstance(one, str) else one) == oracle, values
        expected.append(one)
    assert batch(points, positions, k, e, words) == expected
    if cut is not None:
        assert batch(points, positions, k, e, words[:cut]) == expected[:cut]
        assert batch(points, positions, k, e, words[cut:]) == expected[cut:]
    return expected


def locator_runs(monkeypatch, fn):
    """fn's result and how often it ran the error locator."""
    calls = []
    locate = rsplfr.rscode._locate
    monkeypatch.setattr(rsplfr.rscode, "_locate", lambda *a: calls.append(a) or locate(*a))
    try:
        return fn(), len(calls)
    finally:
        monkeypatch.undo()


def test_batch_partial_slice_pattern_matches_decode(monkeypatch):
    # errors on server 1 in some words, on server 6 in others, none in
    # the rest: each located support is swept over every word left
    points = EvalPoints.consecutive(13, 8)
    positions = (1, 2, 3, 5, 6, 7, 8)  # J = 7, k = 3, radius 2
    rng = random.Random(5)
    patterns = [{}, {1: 4}, {1: 7}, {}, {1: 1}, {6: 3}, {6: 12}, {}, {6: 2},
                {1: 5}, {1: 2, 6: 9}, {6: 1}, {}]
    words = [word(points, positions, [rng.randrange(13) for _ in range(3)], errs)
             for errs in patterns]
    batch_agrees(points, positions, 3, 2, words)
    batch_agrees(points, positions, 3, 2, words, cut=6)
    # one locator run per distinct support: {1}, {6}, {1, 6}
    _, runs = locator_runs(monkeypatch, lambda: batch(points, positions, 3, 2, words))
    assert runs == 3
    # with the two-error word the lowest pending one, its support {1, 6}
    # explains every word left: one locator run, and each single-error
    # word is still flagged only where it is wrong
    two = patterns.index({1: 2, 6: 9})
    order = [two] + [w for w in range(len(words)) if w != two]
    ordered = [words[w] for w in order]
    expected = batch_agrees(points, positions, 3, 2, ordered)
    assert [flags for _, flags in expected] == [set(patterns[w]) for w in order]
    _, runs = locator_runs(monkeypatch, lambda: batch(points, positions, 3, 2, ordered))
    assert runs == 1


def test_a_word_outside_its_located_group_is_refused(monkeypatch):
    # a locator whose recurrence the located word's syndromes do not meet,
    # one naming position 6 for a word wrong at 2, refuses that word with
    # the guard's text and moves on: each refusal or group removes a word
    points = EvalPoints.consecutive(13, 8)
    positions = (1, 2, 3, 5, 6, 7, 8)
    rng = random.Random(7)
    patterns = [{}, {2: 4}, {6: 3}, {}, {2: 1}, {6: 5}]
    words = [word(points, positions, [rng.randrange(13) for _ in range(3)], errs)
             for errs in patterns]
    columns = as_columns(words, 7)
    messages, flags, failures = decode_columns(points, positions, 3, 2, columns)
    assert failures == {}
    locate, calls = rsplfr.rscode._locate, []

    def misplaced(dual, s, max_errors, q):
        calls.append(s)
        assert len(calls) <= len(words)
        if s == calls[0]:
            return [1, -points.alphas[6 - 1] % q], [positions.index(6)]
        return locate(dual, s, max_errors, q)

    monkeypatch.setattr(rsplfr.rscode, "_locate", misplaced)
    got, got_flags, refused = decode_columns(points, positions, 3, 2, columns)
    assert {w: str(exc) for w, exc in refused.items()} == {
        1: "word fails the parity checks outside the located errors"}
    assert len(calls) == 3
    for w in (0, 2, 3, 4, 5):
        assert [m[w] for m in got] == [m[w] for m in messages]
        assert [w in f for f in got_flags] == [w in f for f in flags]
    assert all(m[1] is None for m in got) and not any(1 in f for f in got_flags)


def test_batch_beyond_radius_and_radius_zero_match_decode():
    points = EvalPoints.consecutive(11, 6)
    positions = (1, 2, 3, 4, 5, 6)
    msg = [3, 9]
    beyond = [{}, {2: 1}, {2: 1, 4: 1, 5: 3}, {2: 5}, {1: 1, 2: 1, 3: 1},
              {h: 1 for h in positions}, {2: 4}]
    words = [word(points, positions, msg, errs) for errs in beyond]
    batch_agrees(points, positions, 2, 2, words)
    words = [word(points, positions, msg, errs) for errs in ({}, {3: 2}, {})]
    batch_agrees(points, positions, 2, 0, words)
    # no redundancy: every word interpolates
    batch_agrees(points, (2, 4), 2, 0, [[1, 5], [0, 0]])


def test_batch_randomized_sequences_match_decode():
    rng = random.Random(424242)
    for _ in range(150):
        q = rng.choice([7, 11, 13])
        k = rng.randint(1, 4)
        H = rng.randint(k, min(q - 1, 9))
        points = EvalPoints.consecutive(q, H)
        positions = tuple(sorted(rng.sample(range(1, H + 1), rng.randint(k, H))))
        e = rng.randint(0, (len(positions) - k) // 2)
        bad = rng.sample(positions, min(len(positions), e + 1))
        words = []
        for _ in range(8):
            support = [h for h in bad if rng.random() < 0.5]
            errs = {h: rng.randint(1, q - 1) for h in support}
            msg = [rng.randrange(q) for _ in range(k)]
            words.append(word(points, positions, msg, errs))
        batch_agrees(points, positions, k, e, words)
        batch_agrees(points, positions, k, e, words, cut=rng.randint(0, 8))


def test_columns_beyond_radius_match_decode():
    # words with no codeword within the radius fail with decode's text,
    # and the words after them still decode
    points = EvalPoints.consecutive(11, 6)
    positions = (1, 2, 3, 4, 5, 6)
    rng = random.Random(3)
    patterns = [{}, {2: 1}, {2: 1, 4: 1, 5: 3}, {2: 5}, {1: 1, 2: 1, 3: 1}, {3: 4},
                {h: 1 for h in positions}, {2: 4}, {3: 1}, {}]
    words = [word(points, positions, [rng.randrange(11) for _ in range(2)], errs)
             for errs in patterns]
    expected = batch_agrees(points, positions, 2, 2, words)
    failed = [w for w, got in enumerate(expected) if isinstance(got, str)]
    assert failed
    messages, flags, failures = decode_columns(points, positions, 2, 2,
                                               as_columns(words, 6))
    assert sorted(failures) == failed
    assert all(messages[m][w] is None for m in range(2) for w in failures)
    assert not any(w in f for f in flags for w in failures)
    # the lowest failing word, the one a caller that needs every word
    # reports, carries decode's text
    assert str(failures[min(failures)]) == expected[failed[0]]


def test_large_field_uses_wide_slots():
    # a slot must hold J(q - 1)^2 = 7(q - 1)^2 >= 2^64: more than any
    # array type, so the slots are packed and read byte by byte
    q = 2 ** 31 + 11
    points = EvalPoints.consecutive(q, 7)
    positions = (1, 2, 3, 4, 5, 6, 7)
    rng = random.Random(61)
    patterns = [{}, {3: 5}, {3: q - 1, 6: 2}, {1: 1, 2: 1, 4: 1}, {}]
    msgs = [[rng.randrange(q) for _ in range(3)] for _ in patterns]
    words = [word(points, positions, m, errs) for m, errs in zip(msgs, patterns)]
    batch_agrees(points, positions, 3, 2, words)
    messages, flags, failures = decode_columns(points, positions, 3, 2,
                                               as_columns(words, 7))
    assert set(failures) == {3}
    for w in (0, 1, 2, 4):
        assert [m[w] for m in messages] == msgs[w]
        assert {h for h, f in zip(positions, flags) if w in f} == set(patterns[w])


def test_batch_decoder_checks_its_shape():
    points = EvalPoints.consecutive(7, 5)
    one = [[1], [2], [3]]
    with pytest.raises(ValueError):
        decode_columns(points, (1, 2, 3), 2, 1, one)  # 3 - 2 < 2
    with pytest.raises(ValueError):
        decode_columns(points, (1, 2, 9), 1, 0, one)
    with pytest.raises(ValueError, match="ascending"):
        decode_columns(points, (1, 1, 2), 1, 0, one)
    with pytest.raises(ValueError, match="ascending"):
        decode_columns(points, (2, 1, 3), 1, 0, one)
    with pytest.raises(ValueError):
        decode_columns(points, (1, 2, 3), 2, 0, [[1], [2]])
    with pytest.raises(ValueError):
        decode_columns(points, (1, 2, 3), 2, 0, [[1, 4], [2, 5]])
    with pytest.raises(ValueError):
        decode_columns(points, (1, 2, 3), 2, 0, [[1], [2], [3, 4]])
    # an empty batch decodes to nothing
    assert decode_columns(points, (1, 2, 3), 2, 0, [[], [], []]) == (
        [[], []], [set(), set(), set()], {})


def test_batch_decoder_reads_only_the_rows_asked_for():
    # the first rows of the message, the flags and the failures are those
    # of the whole decode
    q, positions = 13, (1, 2, 3, 4, 5, 6, 7)
    points = EvalPoints.consecutive(q, 7)
    rng = random.Random(5)
    words = [word(points, positions, [rng.randrange(q) for _ in range(3)], errs)
             for errs in ({}, {2: 4}, {1: 1, 7: 3}, {1: 1, 2: 1, 3: 1})]
    columns = as_columns(words, 7)
    messages, flags, failures = decode_columns(points, positions, 3, 2, columns)
    assert set(failures) == {3}
    for rows in range(4):
        got = decode_columns(points, positions, 3, 2, columns, rows=rows)
        assert got[0] == messages[:rows]
        assert got[1] == flags
        assert {w: str(exc) for w, exc in got[2].items()} == {3: str(failures[3])}
    for rows in (-1, 4):
        with pytest.raises(ValueError, match=f"^cannot read {rows} of 3 message rows$"):
            decode_columns(points, positions, 3, 2, columns, rows=rows)


def test_criterion_6_code_edges_match_the_oracle():
    # the criterion-6 stream code: N=2, K=2, H=5, A=1, I=1, J=4, q=11, so
    # dimension I + L = 2 and radius 1 at every delivery.  Decoding is
    # linear, so one message stands for all; every single error, and
    # every weight-2 pattern beyond the radius, on every J-subset, each
    # J-subset's patterns in one batch
    q, k, e = 11, 2, 1
    points = EvalPoints.consecutive(q, 5)
    msg = [3, 7]
    for positions in combinations(range(1, 6), 4):
        patterns = [{h: v} for h in positions for v in range(1, q)]
        patterns += [{h1: v1, h2: v2} for h1, h2 in combinations(positions, 2)
                     for v1 in range(1, q) for v2 in range(1, q)]
        words = [word(points, positions, msg, errs) for errs in patterns]
        expected = batch_agrees(points, positions, k, e, words)
        for errs, got in zip(patterns, expected):
            if len(errs) == 1:
                assert got == (msg, set(errs))


def test_slot_reduction_is_exact():
    # every slot value a decode can form, v <= terms * (q-1)^2, reduces to
    # v % q in one multiply and shift of the packed integer
    primes = [p for p in range(2, 40) if all(p % d for d in range(2, p))]
    for q in primes:
        for terms in range(1, 13):
            slots = rsplfr.rscode._Slots.for_sums(q, terms)
            values = range(terms * (q - 1) ** 2 + 1)
            residues = slots.reduce(slots.pack(values), slots.masks(len(values)))
            assert slots.unpack(residues, len(values)) == [v % q for v in values], (q, terms)
    # 16-byte slots, packed by to_bytes and read back by 4 byte planes:
    # the edges, and the multiples of q with their neighbours
    q = 2 ** 31 + 11
    for terms in range(1, 13):
        slots = rsplfr.rscode._Slots.for_sums(q, terms)
        assert slots.size == 16
        top = terms * (q - 1) ** 2
        values = sorted({v for m in (1, 2, 3, top // q - 1, top // q)
                         for v in (m * q - 1, m * q, m * q + 1) if 0 <= v <= top} | {0, top})
        residues = slots.reduce(slots.pack(values), slots.masks(len(values)))
        assert slots.unpack(residues, len(values)) == [v % q for v in values], terms
