"""Placement delivery arrays.

An array with F rows (packet indices) and K columns (users) whose
entries are either a star or an ordinary symbol in [1..S].  A star at
(j, k) means user k caches packet j of every subfile; an ordinary
symbol names the multicast message that serves the non-caching users.
A valid array satisfies:

  * every column carries exactly Z stars;
  * the ordinary symbols are exactly 1..S, each appearing at least once;
  * equal ordinary entries sit in distinct rows and distinct columns;
  * if a_{j,k} = a_{j',k'} = s with (j,k) != (j',k'), then both crossing
    entries a_{j,k'} and a_{j',k} are stars.

The last condition is what lets a user strip every interfering term out
of a multicast message using only its own cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, count, islice

STAR = None  # entry sentinel; ordinary entries are ints >= 1

Entry = "int | None"


class PdaError(ValueError):
    pass


class PdaParseError(PdaError):
    pass


class StarCountError(PdaError):
    """Some column carries a different number of stars than the first."""


class SymbolGapError(PdaError):
    """Ordinary symbols are not exactly 1..S."""


class ConditionAError(PdaError):
    """Equal ordinary symbols share a row or a column."""


class ConditionBError(PdaError):
    """Equal ordinary symbols whose crossing entries are not both stars."""


@dataclass(frozen=True)
class Pda:
    """A validated placement delivery array; build via validate() or man_pda()."""

    entries: tuple[tuple[Entry, ...], ...]
    K: int
    F: int
    Z: int
    S: int
    # occurrence list per ordinary symbol, 0-based (row, col) pairs
    _occ: tuple[tuple[tuple[int, int], ...], ...] = field(compare=False, repr=False)

    def occurrences(self, s: int) -> tuple[tuple[int, int], ...]:
        if not 1 <= s <= self.S:
            raise PdaError(f"symbol {s} outside [1..{self.S}]")
        return self._occ[s - 1]

    def column(self, k0: int) -> tuple[Entry, ...]:
        return tuple(self.entries[j][k0] for j in range(self.F))


def validate(grid) -> Pda:
    """Check the defining conditions and return the array with (K,F,Z,S)."""
    rows = [tuple(r) for r in grid]
    if not rows or not rows[0]:
        raise PdaError("empty array")
    K = len(rows[0])
    for j, r in enumerate(rows):
        if len(r) != K:
            raise PdaParseError(f"ragged array: row {j + 1} has {len(r)} entries, expected {K}")
        for k, e in enumerate(r):
            if e is STAR:
                continue
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                raise PdaError(f"entry at row {j + 1}, column {k + 1} is {e!r}; "
                               "expected a star or a positive integer")
    F = len(rows)

    star_counts = [sum(1 for j in range(F) if rows[j][k] is STAR) for k in range(K)]
    Z = star_counts[0]
    for k, c in enumerate(star_counts):
        if c != Z:
            raise StarCountError(f"column {k + 1} carries {c} stars, column 1 carries {Z}")

    occ: dict[int, list[tuple[int, int]]] = {}
    for j in range(F):
        for k in range(K):
            e = rows[j][k]
            if e is not STAR:
                occ.setdefault(e, []).append((j, k))
    S = max(occ) if occ else 0
    gaps = S - len(occ)
    if gaps:  # the first ten gaps lie within the first len(occ) + 10 symbols
        first = islice((s for s in count(1) if s not in occ), min(gaps, 10))
        raise SymbolGapError(f"ordinary symbols must cover 1..{S}; {gaps} missing: "
                             + ", ".join(map(str, first)) + (", ..." if gaps > 10 else ""))

    for s in range(1, S + 1):
        places = occ[s]
        for (j, k), (j2, k2) in combinations(places, 2):
            if j == j2 or k == k2:
                raise ConditionAError(
                    f"symbol {s} repeats in the same {'row' if j == j2 else 'column'}: "
                    f"({j + 1},{k + 1}) and ({j2 + 1},{k2 + 1})")
            if rows[j][k2] is not STAR or rows[j2][k] is not STAR:
                raise ConditionBError(
                    f"symbol {s} at ({j + 1},{k + 1}) and ({j2 + 1},{k2 + 1}) "
                    f"needs stars at ({j + 1},{k2 + 1}) and ({j2 + 1},{k + 1})")

    occ_tuple = tuple(tuple(occ[s]) for s in range(1, S + 1))
    return Pda(entries=tuple(rows), K=K, F=F, Z=Z, S=S, _occ=occ_tuple)


def man_pda(K: int, t: int, seed: int | None = None) -> Pda:
    """The uncoded-placement family: rows are the t-subsets of [K].

    Row j is the j-th t-subset of [K] in lexicographic order; the entry
    in column k is a star when k lies in the subset, else the rank of
    {k} union subset among the (t+1)-subsets.  ``seed`` applies a
    pseudorandom relabelling of the ordinary symbols; None keeps the
    lexicographic ranks.
    """
    if not 0 <= t <= K:
        raise PdaError(f"t must lie in [0..{K}], got {t}")
    users = range(1, K + 1)
    rows = list(combinations(users, t))
    rank = {T: i + 1 for i, T in enumerate(combinations(users, t + 1))}
    S = len(rank)
    labels = list(range(1, S + 1))
    if seed is not None:
        random.Random(seed).shuffle(labels)
    grid = []
    for T in rows:
        inset = set(T)
        row = []
        for k in users:
            if k in inset:
                row.append(STAR)
            else:
                row.append(labels[rank[tuple(sorted(inset | {k}))] - 1])
        grid.append(row)
    return validate(grid)


# ---------- text format ----------
# One row per line, entries separated by whitespace, '*' for stars,
# base-10 integers for ordinary symbols.


def parse(text: str) -> Pda:
    grid = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks:
            continue
        row = []
        for pos, tok in enumerate(toks, start=1):
            if tok == "*":
                row.append(STAR)
            elif tok.isascii() and tok.isdigit() and tok[0] != "0":
                row.append(int(tok))
            else:
                raise PdaParseError(
                    f"line {lineno}, token {pos}: {tok!r} is not '*' or a positive integer")
        grid.append(row)
    if not grid:
        raise PdaParseError("no rows")
    widths = {len(r) for r in grid}
    if len(widths) != 1:
        raise PdaParseError(f"ragged rows: widths {sorted(widths)}")
    return validate(grid)


def serialize(pda: Pda) -> str:
    lines = []
    for row in pda.entries:
        lines.append(" ".join("*" if e is STAR else str(e) for e in row))
    return "\n".join(lines) + "\n"
