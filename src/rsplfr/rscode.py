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

``BatchDecoder`` decodes many words received at one fixed set of
positions, as every slice of every multicast stream of one delivery
is.  A plan for a set S of skipped positions holds the inverse
Vandermonde matrix of the first k kept points and the evaluation rows
of every other point; the kept rows are the parity checks, in
systematic form.  A word that passes them agrees with a degree < k
polynomial outside S, so with |S| <= e it lies within distance e of
that codeword, the only one there since 2e < J - k + 1.  Each word
tries the plan with S empty, then the plan that skips the positions
located last (errors come per server, so they recur), and only then
computes its syndromes and locator.  A locator longer than e, or with
another number of roots among the present positions than its length,
cannot be the locator of an error pattern within the radius, so the
word is refused; so is a word that fails the checks of the plan
skipping the roots.  Otherwise that plan decodes it and becomes the
suspect plan.  The result is the unique codeword within distance e, or
``DecodingFailure`` when there is none, exactly as the oracle finds;
``decode`` is the one-word case.

``brute_force_decode`` is the independent oracle: try every error
support up to the radius, interpolate, and keep candidates consistent
with all remaining positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import mul

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


def _check_radius(J: int, k: int, max_errors: int):
    if J - k < 2 * max_errors:
        raise ValueError(
            f"{J} present positions cannot carry dimension {k} with {max_errors} errors")


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
    gives message coefficient m from the values at ``base``; each row of
    ``checks`` predicts a kept value from them, and each row of
    ``skipped`` a value that is only compared, for the flags.
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
        return tuple((j, tuple(horner(ell, xs[j], q) for ell in lagrange))
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


class BatchDecoder:
    """Bounded-distance decoding of many words received at the same positions.

    Built once per set of present positions; ``decode(values)`` takes
    the word's symbols in ascending position order and returns the
    message and the flagged positions of the unique codeword within
    distance ``max_errors``, or raises ``DecodingFailure``.  Syndromes
    and the locator are computed only for words that neither plan
    explains.
    """

    def __init__(self, points: EvalPoints, positions, dimension: int, max_errors: int):
        self.positions = tuple(sorted(positions))
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("positions must be distinct")
        _check_shape(dimension, self.positions, points, max_errors)
        _check_radius(len(self.positions), dimension, max_errors)
        self.points = points
        self.dimension = dimension
        self.max_errors = max_errors
        self._clean = _plan(points, self.positions, dimension, ())
        self._suspect = None  # plan skipping the last located errors

    def _apply(self, plan: _Plan, y: list[int]):
        q = self.points.q
        yb = [y[i] for i in plan.base]
        for j, row in plan.checks:
            if sum(map(mul, row, yb)) % q != y[j]:
                return None
        msg = [sum(map(mul, row, yb)) % q for row in plan.basis]
        flags = {self.positions[j] for j, row in plan.skipped
                 if sum(map(mul, row, yb)) % q != y[j]}
        return msg, flags

    def decode(self, values):
        q = self.points.q
        y = [v % q for v in values]
        if len(y) != len(self.positions):
            raise ValueError(f"need {len(self.positions)} symbols, got {len(y)}")
        got = self._apply(self._clean, y)
        if got is None and self._suspect is not None:
            got = self._apply(self._suspect, y)
        if got is not None:
            return got
        positions, k = self.positions, self.dimension
        roots = _locate(_dual(self.points, positions, k), y, self.max_errors, q)
        plan = _plan(self.points, positions, k, tuple(positions[j] for j in roots))
        got = self._apply(plan, y)
        if got is None:
            raise DecodingFailure(
                "word fails the parity checks outside the located errors")
        self._suspect = plan
        return got


def decode(received: Codeword, points: EvalPoints, max_errors: int):
    """Message and flagged positions from >= k + 2*max_errors present symbols.

    The one-word case of ``BatchDecoder``.
    """
    items = sorted(received.positions.items())
    decoder = BatchDecoder(points, [h for h, _ in items], received.dimension, max_errors)
    return decoder.decode([y for _, y in items])


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
