"""Polynomial-evaluation MDS codes with errors-and-erasures decoding.

A message of k field symbols is read as the coefficients of a degree
< k polynomial and encoded by evaluating it at H fixed, distinct,
nonzero points (one per server).  Absent positions are erasures; a
decoder working from J present positions can correct up to e wrong
symbols whenever J - k >= 2e, because any two codewords disagree on at
least J - k + 1 of the J positions.

``decode`` is Berlekamp-Welch: find an error-locator polynomial E of
degree exactly e (monic, so never zero) and Q of degree < k + e with
Q(a_j) = y_j * E(a_j) at every present point.  Such a pair always
exists when at most e positions are wrong (take E with the wrong
points among its roots, padded by powers of x, which never vanish at
the nonzero evaluation points), and every solution then satisfies
Q = P * E for the true message polynomial P, since Q - P*E has degree
< k + e but vanishes at the >= J - e >= k + e agreeing positions.

``BatchDecoder`` decodes many words received at one fixed set of
positions, as every slice of every multicast stream of one delivery
is.  A plan for a set S of skipped positions holds the inverse
Vandermonde matrix of the first k kept points and the evaluation rows
of every other point; the kept rows are the parity checks (the
syndrome, in systematic form).  A word that passes them agrees with a
degree < k polynomial outside S, so with |S| <= e it lies within
distance e of that codeword, which is then the unique one
Berlekamp-Welch returns, with the same flags.  Each word tries the
plan with S empty, then the plan that skips the positions the last
Berlekamp-Welch fallback flagged (errors come per server, so they
recur), and only then falls back to ``decode``.

``brute_force_decode`` is the independent oracle: try every error
support up to the radius, interpolate, and keep candidates consistent
with all remaining positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import combinations
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


def _check_received(received: Codeword, points: EvalPoints, max_errors: int):
    k = received.dimension
    items = sorted(received.positions.items())
    _check_shape(k, (h for h, _ in items), points, max_errors)
    return k, items


def _solve(rows, rhs, field: PrimeField):
    """Any solution of rows*x = rhs (free unknowns zeroed), or None."""
    q = field.q
    m = len(rows)
    n = len(rows[0])
    aug = [list(rows[i]) + [rhs[i] % q] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if aug[i][c] % q:
                pr = i
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = [v * inv % q for v in aug[r]]
        prow = aug[r]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                row = aug[i]
                aug[i] = [(row[j] - f * prow[j]) % q for j in range(n + 1)]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] % q:
            return None
    x = [0] * n
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][n]
    return x


def _poly_divmod(num, den, field: PrimeField):
    q = field.q
    num = [v % q for v in num]
    den = [v % q for v in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("zero divisor polynomial")
    dn = len(den) - 1
    lead_inv = field.inv(den[-1])
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            c = c * lead_inv % q
            quot[i - dn] = c
            for j, dv in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - c * dv) % q
    return quot, num[:dn]


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


def _berlekamp_welch(pairs, k: int, e: int, field: PrimeField):
    q = field.q
    if e == 0:
        return _interpolate(pairs[:k], field)
    rows = []
    rhs = []
    for a, y in pairs:
        pw = [1]
        for _ in range(k + e - 1):
            pw.append(pw[-1] * a % q)
        # unknowns: Q_0..Q_{k+e-1}, then E_0..E_{e-1} with E monic of degree e
        rows.append(pw[: k + e] + [(-y * pw[i]) % q for i in range(e)])
        rhs.append(y * pw[e] % q)
    sol = _solve(rows, rhs, field)
    if sol is None:
        raise DecodingFailure("no locator/quotient pair fits the received word")
    qc = sol[: k + e]
    ec = sol[k + e:] + [1]
    quot, rem = _poly_divmod(qc, ec, field)
    if any(rem):
        raise DecodingFailure("error locator does not divide the quotient")
    return (quot + [0] * k)[:k]


def decode(received: Codeword, points: EvalPoints, max_errors: int):
    """Message and flagged positions from >= k + 2*max_errors present symbols."""
    k, items = _check_received(received, points, max_errors)
    _check_radius(len(items), k, max_errors)
    q = points.q
    pairs = [(points.alphas[h - 1], y % q) for h, y in items]
    msg = _berlekamp_welch(pairs, k, max_errors, points.field)
    flags = {h for (h, y) in items
             if horner(msg, points.alphas[h - 1], q) != y % q}
    if len(flags) > max_errors:
        raise DecodingFailure(f"nearest codeword disagrees in {len(flags)} positions")
    return msg, flags


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


class BatchDecoder:
    """``decode`` for many words received at the same positions.

    Built once per set of present positions; ``decode(values)`` takes
    the word's symbols in ascending position order and returns exactly
    what ``decode`` returns for it, or raises what ``decode`` raises.
    Berlekamp-Welch runs only for words that neither plan explains.
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
        self._suspect = None  # plan skipping the last fallback's flags

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
        # the module-level Berlekamp-Welch decode
        msg, flags = decode(Codeword(self.dimension, dict(zip(self.positions, y))),
                            self.points, self.max_errors)
        if flags:
            self._suspect = _plan(self.points, self.positions, self.dimension,
                                  tuple(sorted(flags)))
        return msg, flags


def brute_force_decode(received: Codeword, points: EvalPoints, max_errors: int):
    """Oracle decoder: enumerate every error support up to the radius.

    Interpolates from the surviving positions, keeps candidates that
    agree with every position outside the support, and demands a unique
    surviving message.  Exponential; for desk-scale cross-checks only.
    """
    k, items = _check_received(received, points, max_errors)
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
