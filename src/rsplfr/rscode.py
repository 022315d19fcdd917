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
delivery from the same J servers is.  A plan for a set S of skipped
positions holds the inverse Vandermonde matrix of the first k kept
points and the evaluation rows of every other point; the kept rows are
the parity checks, in systematic form.  A word that passes them agrees
with a degree < k polynomial outside S, so with |S| <= e it lies within
distance e of that codeword, the only one there since 2e < J - k + 1.
Which such plan decodes a word thus changes only the work.

The words are packed one per slot into one integer per position, so
each plan row is a few big-integer operations for the whole batch.  The
plan with S empty is swept over every word.  While words are left, the
lowest of them gets its syndromes and locator.  A locator longer than
e, or with another number of roots among the present positions than
its length, cannot be the locator of an error pattern within the
radius, so the word is refused.  Otherwise the plan skipping the roots
is swept over every word left, since errors come per server and recur;
the located word must pass it, or it is refused too.  A failing word
drops out of a plan at its first failed check row, and messages are
computed only for the words a plan explains.  The result is the unique
codeword within distance e, or ``DecodingFailure`` when there is none,
exactly as the oracle finds.  ``decode`` is the one-word case.

``brute_force_decode`` is the independent oracle: try every error
support up to the radius, interpolate, and keep candidates consistent
with all remaining positions.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import combinations, compress
from math import prod
from operator import mul, not_
from sys import byteorder

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
    """Interpolation and evaluation rows for one (points, positions, k, skipped).

    Indices refer to the word's values, in position order.  ``basis[m]``
    gives message coefficient m from the values at ``base``.  Each entry
    ``(j, row)`` of ``checks`` or ``skipped`` holds k coefficients that
    predict value j from the base values, then -1: dotted with the base
    values and value j, the row is zero exactly where value j is the
    prediction.  Kept values are checks; skipped ones are only compared,
    for the flags.
    """

    base: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    checks: tuple[tuple[int, tuple[int, ...]], ...]
    skipped: tuple[tuple[int, tuple[int, ...]], ...]


@lru_cache(maxsize=1024)
def _plan(points: EvalPoints, positions: tuple[int, ...], k: int,
          skip: tuple[int, ...]) -> _Plan:
    q, field = points.q, points.field
    xs = [points.alphas[h - 1] for h in positions]
    kept = [i for i, h in enumerate(positions) if h not in skip]
    base = tuple(kept[:k])
    # column i of the inverse Vandermonde matrix is the Lagrange basis
    # polynomial that is 1 at base point i and 0 at the others
    lagrange = [_interpolate([(xs[j], int(j == i)) for j in base], field) for i in base]
    basis = tuple(tuple(lagrange[i][m] for i in range(k)) for m in range(k))

    def rows(indices):
        return tuple((j, tuple(horner(ell, xs[j], q) for ell in lagrange) + (q - 1,))
                     for j in indices)

    return _Plan(base=base, basis=basis, checks=rows(kept[k:]),
                 skipped=rows(i for i in range(len(positions)) if i not in kept))


@dataclass(frozen=True)
class _Dual:
    """Parity rows and inverse points for one (points, positions, k).

    Row i dotted with a word gives its syndrome S_i; the locator vanishes
    at ``inverse[j]`` when the word's value j is in error.
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


def _locate(dual: _Dual, y: list[int], max_errors: int, q: int) -> list[int]:
    """Indices of the wrong values of y, by Berlekamp-Massey on its syndromes.

    Raises ``DecodingFailure`` when the shortest recurrence is longer
    than the radius or does not have as many roots as its length.
    """
    s = [sum(map(mul, row, y)) % q for row in dual.rows]
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
    return roots


@dataclass(frozen=True)
class _Slots:
    """Residues packed one per word into the fixed-width slots of one integer.

    A slot holds any sum of ``terms`` products of residues, so a linear
    combination of packed columns is a few big-integer products and sums
    with no carry between words: one pass of arithmetic for a batch.
    """

    size: int         # bytes per slot
    code: str | None  # the array type of that size, if there is one

    @classmethod
    def for_sums(cls, q: int, terms: int) -> "_Slots":
        need = max(1, ((terms * (q - 1) ** 2).bit_length() + 7) // 8)
        for code in "BHIQ":
            if array(code).itemsize >= need:
                return cls(array(code).itemsize, code)
        return cls(need, None)

    def pack(self, values) -> int:
        if self.code:
            return int.from_bytes(array(self.code, values), byteorder)
        return int.from_bytes(b"".join(v.to_bytes(self.size, byteorder) for v in values),
                              byteorder)

    def combine(self, row, packed, count: int):
        """The slots of sum_t row[t] * packed[t], one per word, not reduced."""
        raw = sum(map(mul, row, packed)).to_bytes(count * self.size, byteorder)
        if self.code:
            return array(self.code, raw)
        return [int.from_bytes(raw[i:i + self.size], byteorder)
                for i in range(0, len(raw), self.size)]


def decode_columns(points: EvalPoints, positions, dimension: int, max_errors: int,
                   columns, stop: bool = False):
    """Decode a batch of words received at ``positions``; ``columns[i][w]`` is word w there.

    ``positions`` must ascend strictly.  Returns ``(messages, flags,
    failures)``: ``messages[m][w]`` is message coefficient m of word w
    (None if it failed), ``flags[i]`` the set of words whose value at
    position i differs from their codeword, and ``failures`` maps each
    failing word to its ``DecodingFailure``.  With ``stop``, decoding
    ends at the lowest failing word, for a caller that needs every word:
    only that failure is returned, and no message.
    """
    positions = tuple(positions)
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError("positions must be strictly ascending")
    _check_shape(dimension, positions, points, max_errors)
    J, k, q = len(positions), dimension, points.q
    if J - k < 2 * max_errors:
        raise ValueError(
            f"{J} present positions cannot carry dimension {k} with {max_errors} errors")
    y = [[v % q for v in col] for col in columns]
    if len(y) != J:
        raise ValueError(f"need {J} columns, got {len(y)}")
    W = len(y[0])
    if any(len(col) != W for col in y):
        raise ValueError("columns must hold one value per word")
    slots = _Slots.for_sums(q, k + 1)
    packed = [slots.pack(col) for col in y]

    def residues(row, cols, words):
        """Row dotted with the packed columns, mod q, at each of the words."""
        values = slots.combine(row, cols, W)
        if len(words) != W:
            values = map(values.__getitem__, words)
        return map(q.__rmod__, values)

    def sweep(plan: _Plan, words):
        """Split ascending ``words`` into those that pass the plan's checks and the rest.

        A word leaves at the first check row it fails, so later rows
        look only at the words still passing.
        """
        base = [packed[i] for i in plan.base]
        failing = []
        for j, row in plan.checks:
            off = list(residues(row, base + [packed[j]], words))
            if any(off):
                failing.extend(compress(words, off))
                words = list(compress(words, map(not_, off)))
                if not words:
                    break
        return words, sorted(failing)

    clean = _plan(points, positions, k, ())
    passing, pending = sweep(clean, range(W))
    groups = [(clean, passing)]
    failures = {}
    dual = _dual(points, positions, k)
    while pending:
        w = pending[0]
        try:
            roots = _locate(dual, [col[w] for col in y], max_errors, q)
            plan = _plan(points, positions, k, tuple(positions[j] for j in roots))
            passing, rest = sweep(plan, pending)
            if not passing or passing[0] != w:
                raise DecodingFailure(
                    "word fails the parity checks outside the located errors")
        except DecodingFailure as exc:
            failures[w] = exc
            if stop:
                break
            pending = pending[1:]
        else:
            groups.append((plan, passing))
            pending = rest
    messages = [[None] * W for _ in range(k)]
    flags = [set() for _ in y]
    if stop and failures:
        return messages, flags, failures
    for plan, words in groups:
        if not words:
            continue
        base = [packed[i] for i in plan.base]
        for out, row in zip(messages, plan.basis):
            values = residues(row, base, words)
            if len(words) == W:
                out[:] = values
            else:
                for w, v in zip(words, values):
                    out[w] = v
        for j, row in plan.skipped:
            flags[j].update(compress(words, residues(row, base + [packed[j]], words)))
    return messages, flags, failures


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
