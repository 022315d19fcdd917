"""Polynomial-evaluation MDS codes with errors-and-erasures decoding.

A message of k field symbols is read as the coefficients of a degree
< k polynomial and encoded by evaluating it at H fixed, distinct,
nonzero points (one per server).  Absent positions are erasures; a
decoder working from J present positions can correct up to e wrong
symbols whenever J - k >= 2e, because any two codewords disagree on at
least J - k + 1 of the J positions.

The present positions, at points x_1..x_J, carry a generalized RS code
whose dual is one too: with v_j = 1 / prod_{m != j} (x_j - x_m), every
codeword c meets the J - k parity checks sum_j v_j x_j^i c_j = 0 for
i < J - k, since sum_j v_j f(x_j) is the x^(J-1) coefficient of the
polynomial through the values of f, zero when deg f < J - 1.  So a word
y = c + err has the syndromes S_i = sum_{j in E} (v_j err_j) x_j^i,
power sums over the error support E, and they satisfy the key equation:
the locator prod_{j in E} (1 - x_j z) generates them as a linear
recurrence of length |E|.  Berlekamp-Massey finds the shortest such
recurrence; when |E| <= e, 2|E| <= J - k makes it unique, so it is the
locator and its roots 1/x_j name E exactly (Roth, *Introduction to
Coding Theory*, ch. 6).

``decode_columns`` decodes a batch of words received at one fixed set
of positions, as every slice of every multicast stream of every
delivery from the same J servers is.  The syndromes are its only
parity check: they all vanish exactly at a codeword, and a locator of
length l <= e with l roots E among the present positions generates
exactly the syndromes of the words within E of a codeword, since its
recurrence's solutions are spanned by the l sequences x_j^i, j in E.
That codeword is the only one within distance e, as 2e < J - k + 1.
A plan for a set S of skipped positions interpolates the message from
the first k points outside S and flags the words wrong at S.

The words are packed one per little-endian slot into one integer per
position, so each parity or plan row, and its reduction mod q (see
``_Slots``), is a few big-integer operations for the whole batch.  A
column is packed as it comes, by one byte copy when every value fits a
byte, and its packed integer range-checked at once; only a column with
a value below 0 or at least q is reduced mod q and packed again.  The
masks over the batch's slots are computed once per call.  A set of
words is a mask of their whole slots, so a row that is zero for every
word of a set is one test for zero.  The J - k syndrome rows are
computed once; the words with a nonzero syndrome are pending, and the
plan with S empty decodes the rest.  While words are pending, the
lowest of them gets its locator from its syndromes, each read from its
packed row by one shift and mask.  A locator longer than e, or with
another number of roots among the present positions than its length,
cannot be the locator of an error pattern within the radius, so the
word is refused.  Otherwise every pending word whose packed syndromes
meet the locator's recurrence, sum_t c_t S_(i-t) = 0 for i from l up,
leaves with it, decoded by the plan skipping the roots, since errors
come per server and recur; the located word must be among them, or it
is refused too.  Each plan's message and flag rows are masked to the
words it explains, so each row is computed for the whole batch at
once; a caller that keeps only the first message rows, as the protocol
keeps the L data coefficients and drops the I noise ones, gets only
those computed.  The private core ``_decode_packed`` leaves the rows
packed, a failed word 0 in each, which the protocol compares whole;
``decode_columns`` is its list view, with None at a failed word.
The result is the unique codeword within distance e, or
``DecodingFailure`` when there is none, exactly as the oracle finds.
It depends on the word alone, never on the rest of the batch: a word
leaves with a located word only if it lies within distance e of a
codeword, and a refused word's text comes from its own locator.
``decode`` is the one-word case.

``brute_force_decode`` is the independent oracle: try every error
support up to the radius, interpolate, and keep candidates consistent
with all remaining positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, reduce
from itertools import combinations, compress
from math import prod
from operator import mul, or_
from typing import NamedTuple

from .ff import PrimeField, horner


class DecodingFailure(Exception):
    """No codeword within the requested error radius explains the input."""


class NoCandidate(DecodingFailure):
    pass


class AmbiguousCandidate(DecodingFailure):
    pass


@dataclass(frozen=True)
class EvalPoints:
    """The per-server evaluation points: distinct nonzero residues mod q.

    The one place where points are validated: q must be prime and every
    point a distinct residue in [1, q-1].
    """

    q: int
    alphas: tuple[int, ...]
    field: PrimeField = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "field", PrimeField(self.q))  # validates primality
        object.__setattr__(self, "alphas", tuple(self.alphas))
        if not self.alphas:
            raise ValueError("need at least one evaluation point")
        for a in self.alphas:
            if not 0 < a < self.q:
                raise ValueError(f"evaluation point {a} outside [1, {self.q - 1}]")
        if len(set(self.alphas)) != len(self.alphas):
            raise ValueError("evaluation points must be distinct")

    @classmethod
    def consecutive(cls, q: int, H: int) -> "EvalPoints":
        """Points 1..H; needs H < q."""
        return cls(q, tuple(range(1, H + 1)))


@dataclass
class Codeword:
    """Symbols by 1-based position; absent positions are erasures."""

    dimension: int
    positions: dict[int, int]


def encode(message, points: EvalPoints) -> Codeword:
    k = len(message)
    if k < 1:
        raise ValueError("empty message")
    if k > len(points.alphas):
        raise ValueError(f"message length {k} exceeds {len(points.alphas)} positions")
    q = points.q
    vals = {h: horner(message, a, q) for h, a in enumerate(points.alphas, start=1)}
    return Codeword(dimension=k, positions=vals)


def _check_shape(k: int, positions, points: EvalPoints, max_errors: int):
    if k < 1:
        raise ValueError("dimension must be positive")
    if max_errors < 0:
        raise ValueError("max_errors must be >= 0")
    H = len(points.alphas)
    for h in positions:
        if not 1 <= h <= H:
            raise ValueError(f"position {h} outside [1..{H}]")


def _interpolate(pairs, field: PrimeField):
    """Lagrange coefficients (low to high) through len(pairs) points."""
    q = field.q
    k = len(pairs)
    coeffs = [0] * k
    for i in range(k):
        xi, yi = pairs[i]
        num = [1]
        den = 1
        for m2 in range(k):
            if m2 == i:
                continue
            xm = pairs[m2][0]
            # num *= (x - xm)
            nxt = [0] * (len(num) + 1)
            for d, cv in enumerate(num):
                nxt[d] = (nxt[d] - cv * xm) % q
                nxt[d + 1] = (nxt[d + 1] + cv) % q
            num = nxt
            den = den * (xi - xm) % q
        c = yi * field.inv(den) % q
        for d, cv in enumerate(num):
            coeffs[d] = (coeffs[d] + c * cv) % q
    return coeffs


@dataclass(frozen=True)
class _Plan:
    """Interpolation and flag rows for one (points, positions, k, skipped).

    Indices refer to the word's values, in position order.  ``base`` is
    the first k values not skipped, and ``basis[m]`` gives message
    coefficient m from them.  Each entry ``(j, row)`` of ``skipped``
    holds k coefficients that predict skipped value j from the base
    values, then -1: dotted with the base values and value j, the row is
    zero exactly where value j is the prediction: it flags the words
    wrong there.
    """

    base: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    skipped: tuple[tuple[int, tuple[int, ...]], ...]


@lru_cache(maxsize=1024)
def _plan(points: EvalPoints, positions: tuple[int, ...], k: int,
          skip: tuple[int, ...]) -> _Plan:
    q, field = points.q, points.field
    xs = [points.alphas[h - 1] for h in positions]
    base = tuple([i for i, h in enumerate(positions) if h not in skip][:k])
    # column i of the inverse Vandermonde matrix is the Lagrange basis
    # polynomial that is 1 at base point i and 0 at the others
    lagrange = [_interpolate([(xs[j], int(j == i)) for j in base], field) for i in base]
    basis = tuple(tuple(lagrange[i][m] for i in range(k)) for m in range(k))
    return _Plan(base=base, basis=basis,
                 skipped=tuple((j, tuple(horner(ell, xs[j], q) for ell in lagrange) + (q - 1,))
                               for j, h in enumerate(positions) if h in skip))


@dataclass(frozen=True)
class _Dual:
    """Parity rows and inverse points for one (points, positions, k).

    The J - k rows are the decoder's only parity check: row i dotted with
    a word gives its syndrome S_i, all zero exactly when the word is a
    codeword.  The locator vanishes at ``inverse[j]`` when value j of the
    word is in error.
    """

    rows: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]


@lru_cache(maxsize=1024)
def _dual(points: EvalPoints, positions: tuple[int, ...], k: int) -> _Dual:
    q, field = points.q, points.field
    xs = [points.alphas[h - 1] for h in positions]
    row = [field.inv(prod(x - xm for xm in xs if xm != x)) for x in xs]
    rows = []
    for _ in range(len(xs) - k):
        rows.append(tuple(row))
        row = [v * x % q for v, x in zip(row, xs)]
    return _Dual(rows=tuple(rows), inverse=tuple(field.inv(x) for x in xs))


def _locate(dual: _Dual, s: list[int], max_errors: int, q: int):
    """The error locator of the syndromes s, by Berlekamp-Massey, and its roots.

    Returns ``(locator, roots)``: the coefficients, lowest first, of the
    shortest recurrence that generates s, and the indices of the values
    at whose inverse points it vanishes.  Raises ``DecodingFailure`` when
    that recurrence is longer than the radius or does not have as many
    roots as its length.
    """
    n = len(s)
    c, b = [1] + [0] * n, [1] + [0] * n  # current and last-changed connection
    length, shift, last = 0, 1, 1
    for i in range(n):
        d = (s[i] + sum(c[t] * s[i - t] for t in range(1, length + 1))) % q
        if d == 0:
            shift += 1
            continue
        coef = d * pow(last, -1, q) % q
        prev = c[:]
        for t in range(n + 1 - shift):
            c[t + shift] = (c[t + shift] - coef * b[t]) % q
        if 2 * length <= i:
            length, b, last, shift = i + 1 - length, prev, d, 1
        else:
            shift += 1
    if length > max_errors:
        raise DecodingFailure(
            f"error locator of length {length} exceeds the radius {max_errors}")
    locator = c[:length + 1]
    roots = [j for j, z in enumerate(dual.inverse) if horner(locator, z, q) == 0]
    if len(roots) != length:
        raise DecodingFailure(
            f"error locator of length {length} has {len(roots)} of {length} roots "
            "among the present positions")
    return locator, roots


class _Masks(NamedTuple):
    """The masks over the slots of one batch, b being the bit length of q - 1.

    ``ones`` holds 1 in each slot, ``quotients`` the bits each slot's
    quotient occupies, ``high`` the bits from b up and ``offset`` 2^b - q
    in each slot.
    """

    ones: int
    quotients: int
    high: int
    offset: int


@dataclass(frozen=True)
class _Slots:
    """Residues packed one per word into the fixed-width slots of one integer.

    On any host, word w is bytes w*size up to (w+1)*size, lowest first.
    A slot holds any sum v of ``terms`` products of residues, so a linear
    combination of packed columns is a few big-integer products and sums
    with no carry between words: one pass of arithmetic for a batch.
    The sums are reduced mod q the same way, by exact division by the
    invariant q (Granlund & Montgomery, *Division by Invariant Integers
    using Multiplication*, PLDI 1994): with magic = ceil(2^shift / q) and
    e = magic*q - 2^shift, v*magic / 2^shift exceeds v/q by
    v*e / (q*2^shift), less than 1/q while v*e < 2^shift, so its floor is
    floor(v/q) for every v <= terms*(q-1)^2.  A slot is exactly as many
    bytes as v*magic needs, so one multiply, shift and mask of a packed
    integer gives every slot's quotient, and v - q*quotient its residue.
    """

    q: int
    size: int  # bytes per slot
    magic: int
    shift: int

    @classmethod
    @lru_cache(maxsize=64)
    def for_sums(cls, q: int, terms: int) -> "_Slots":
        top = terms * (q - 1) ** 2
        # the least shift with top*e < 2^shift; e < q makes
        # top.bit_length() + (q - 1).bit_length() always qualify
        shift = 0
        while top * (-(1 << shift) % q) >= 1 << shift:
            shift += 1
        magic = -(-(1 << shift) // q)
        return cls(q, max(1, ((top * magic).bit_length() + 7) // 8), magic, shift)

    def pack(self, values) -> int:
        """The sequence ``values``, one per slot; OverflowError if one is below 0 or too wide.

        Values that all fit a byte are copied in at once, into byte 0 of
        each slot.
        """
        try:
            low = bytearray(values)
        except ValueError:  # a value outside [0, 256): each value by to_bytes
            return int.from_bytes(b"".join(v.to_bytes(self.size, "little") for v in values),
                                  "little")
        raw = bytearray(self.size * len(low))
        raw[::self.size] = low
        return int.from_bytes(raw, "little")

    def pack_mod(self, values, masks: _Masks) -> int:
        """The sequence ``values`` mod q, one per slot; ``masks`` covers at least its slots.

        Packed as it is and checked once by ``canonical``; reduced and packed
        again only if a value is below 0, too wide for its slot or not below q.
        """
        try:
            packed = self.pack(values)
        except OverflowError:  # a value below 0 or too wide for its slot
            pass
        else:
            if self.canonical(packed, masks):
                return packed
        return self.pack([v % self.q for v in values])

    def unpack(self, residues: int, count: int) -> list[int]:
        """The ``count`` slots of ``residues``, each below q, by byte planes."""
        raw = residues.to_bytes(count * self.size, "little")
        out = list(raw[::self.size])
        for b in range(1, ((self.q - 1).bit_length() + 7) // 8):  # each further byte of q - 1
            out = [v | u << 8 * b for v, u in zip(out, raw[b::self.size])]
        return out

    def masks(self, count: int) -> _Masks:
        """The masks of a batch of ``count`` slots; a decode computes them once."""
        bits = 8 * self.size
        ones = ((1 << bits * count) - 1) // ((1 << bits) - 1)
        b = (self.q - 1).bit_length()
        return _Masks(ones, ones * ((1 << bits - self.shift) - 1),
                      ones * ((1 << bits) - (1 << b)), ones * ((1 << b) - self.q))

    def canonical(self, packed: int, masks: _Masks) -> bool:
        """Whether every slot of ``packed`` is below q.

        A slot below 2^b has no bit from b up, and is then below q exactly
        when adding 2^b - q, which cannot leave the slot, carries into no
        bit from b up.
        """
        return not (packed & masks.high or (packed + masks.offset) & masks.high)

    def reduce(self, total: int, masks: _Masks) -> int:
        """Every slot of ``total`` mod q."""
        return total - self.q * ((total * self.magic >> self.shift) & masks.quotients)

    def nonzero(self, residues: int, masks: _Masks) -> int:
        """The full slots where ``residues``, each below 2^b, is nonzero; the rest empty.

        Adding 2^b - 1 to a value below 2^b carries into bit b exactly
        when the value is nonzero.  Residues below q OR-ed together stay
        below 2^b.
        """
        b, ones = (self.q - 1).bit_length(), masks.ones
        return ((residues + ones * ((1 << b) - 1)) >> b & ones) * ((1 << 8 * self.size) - 1)

    def word(self, w: int) -> int:
        """The full slot of word w."""
        return ((1 << 8 * self.size) - 1) << (8 * self.size * w)

    def read(self, packed: int, w: int) -> int:
        """Slot w of ``packed``."""
        return packed >> 8 * self.size * w & (1 << 8 * self.size) - 1

    def lowest(self, words: int) -> int:
        """The lowest word among the full slots of ``words``."""
        return ((words & -words).bit_length() - 1) // (8 * self.size)


def _decode_packed(points: EvalPoints, positions, dimension: int, max_errors: int,
                   columns, rows: int | None = None):
    """The body of ``decode_columns``, its results left packed.

    Returns ``(slots, messages, flags, failures)``: the slot layout; per
    message row read, one integer holding coefficient m of word w in
    slot w, 0 at a failed word; per position, the full slots of the words
    whose value there differs from their codeword; and each failing word's
    ``DecodingFailure``.
    """
    positions = tuple(positions)
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError("positions must be strictly ascending")
    _check_shape(dimension, positions, points, max_errors)
    J, k, q = len(positions), dimension, points.q
    if J - k < 2 * max_errors:
        raise ValueError(
            f"{J} present positions cannot carry dimension {k} with {max_errors} errors")
    if rows is None:
        rows = k
    elif not 0 <= rows <= k:
        raise ValueError(f"cannot read {rows} of {k} message rows")
    y = list(columns)
    if len(y) != J:
        raise ValueError(f"need {J} columns, got {len(y)}")
    W = len(y[0])
    if any(len(col) != W for col in y):
        raise ValueError("columns must hold one value per word")
    slots = _Slots.for_sums(q, J)  # a syndrome row is the longest sum
    masks = slots.masks(W)
    packed = [slots.pack_mod(col, masks) for col in y]

    def residues(row, cols):
        """Row dotted with the packed columns, mod q, in every slot."""
        return slots.reduce(sum(map(mul, row, cols)), masks)

    dual = _dual(points, positions, k)
    syndromes = [residues(row, packed) for row in dual.rows]
    pending = slots.nonzero(reduce(or_, syndromes, 0), masks)
    every = (1 << 8 * slots.size * W) - 1
    groups = [(_plan(points, positions, k, ()), every ^ pending)]
    failures = {}
    while pending:
        w = slots.lowest(pending)
        word = slots.word(w)
        try:
            locator, roots = _locate(dual, [slots.read(s, w) for s in syndromes],
                                     max_errors, q)
            # the words whose syndromes the locator generates, as full slots
            passing, ell, rev = pending, len(locator) - 1, locator[::-1]
            for i in range(ell, len(syndromes)):
                off = residues(rev, syndromes[i - ell:i + 1]) & passing
                if off:
                    passing ^= slots.nonzero(off, masks)
            if not passing & word:
                raise DecodingFailure(
                    "word fails the parity checks outside the located errors")
        except DecodingFailure as exc:
            failures[w] = exc
            pending ^= word
        else:
            groups.append((_plan(points, positions, k, tuple(positions[j] for j in roots)),
                           passing))
            pending ^= passing
    messages, flags = [0] * rows, [0] * J
    for plan, words in groups:
        if not words:
            continue
        base = [packed[i] for i in plan.base]
        for m, row in enumerate(plan.basis[:rows]):
            messages[m] |= residues(row, base) & words
        for j, row in plan.skipped:
            flags[j] |= residues(row, base + [packed[j]]) & words
    return slots, messages, [slots.nonzero(f, masks) if f else 0 for f in flags], failures


def decode_columns(points: EvalPoints, positions, dimension: int, max_errors: int,
                   columns, rows: int | None = None):
    """Decode a batch of words received at ``positions``; ``columns[i][w]`` is word w there.

    ``positions`` must ascend strictly.  Returns ``(messages, flags,
    failures)``: ``messages[m][w]`` is message coefficient m of word w
    (None if it failed), for the first ``rows`` coefficients (all k by
    default), ``flags[i]`` the set of words whose value at position i
    differs from their codeword, and ``failures`` maps each failing word
    to its ``DecodingFailure``.  Each word's result depends on that word
    alone, not on the rest of the batch.  The list view of
    ``_decode_packed``.
    """
    columns = list(columns)
    slots, messages, flags, failures = _decode_packed(points, positions, dimension,
                                                      max_errors, columns, rows)
    W = len(columns[0])
    messages = [slots.unpack(m, W) for m in messages]
    for w in failures:
        for out in messages:
            out[w] = None
    return (messages, [set(compress(range(W), slots.unpack(f, W))) if f else set()
                       for f in flags], failures)


def decode(received: Codeword, points: EvalPoints, max_errors: int):
    """Message and flagged positions from >= k + 2*max_errors present symbols.

    The one-word case of ``decode_columns``.  Raises ``DecodingFailure``
    when no codeword lies within the radius.
    """
    positions = sorted(received.positions)
    messages, flags, failures = decode_columns(
        points, positions, received.dimension, max_errors,
        [[received.positions[h]] for h in positions])
    if failures:
        raise failures[0]
    return [m[0] for m in messages], {h for h, f in zip(positions, flags) if f}


def brute_force_decode(received: Codeword, points: EvalPoints, max_errors: int):
    """Oracle decoder: enumerate every error support up to the radius.

    Interpolates from the surviving positions, keeps candidates that
    agree with every position outside the support, and demands a unique
    surviving message.  Exponential; for desk-scale cross-checks only.
    """
    k = received.dimension
    items = sorted(received.positions.items())
    _check_shape(k, (h for h, _ in items), points, max_errors)
    J = len(items)
    if J < k:
        raise ValueError(f"{J} present positions cannot determine dimension {k}")
    q = points.q
    field = points.field
    pairs = [(points.alphas[h - 1], y % q) for h, y in items]
    candidates: dict[tuple, set[int]] = {}
    for esize in range(max_errors + 1):
        for support in combinations(range(J), esize):
            sup = set(support)
            keep = [i for i in range(J) if i not in sup]
            if len(keep) < k:
                continue
            msg = _interpolate([pairs[i] for i in keep[:k]], field)
            msg = (msg + [0] * k)[:k]
            if all(horner(msg, pairs[i][0], q) == pairs[i][1] for i in keep):
                key = tuple(msg)
                if key not in candidates:
                    flags = {items[i][0] for i in range(J)
                             if horner(msg, pairs[i][0], q) != pairs[i][1]}
                    candidates[key] = flags
    if not candidates:
        raise NoCandidate("no codeword within the error radius")
    if len(candidates) > 1:
        raise AmbiguousCandidate(f"{len(candidates)} codewords within the error radius")
    ((msg, flags),) = candidates.items()
    return list(msg), flags
