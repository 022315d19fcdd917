"""Placement delivery arrays: validation rules, the caching-gain family, text format."""

import random
import time

import pytest

from rsplfr.pda import (STAR, ConditionAError, ConditionBError, Pda, PdaError,
                        PdaParseError, StarCountError, SymbolGapError,
                        man_pda, parse, serialize, validate)

TOY_GRID = [
    [STAR, 1, 2],
    [1, STAR, 3],
    [2, 3, STAR],
]

# the K=4, t=2 member of the family, frozen from the construction:
# rows are the 2-subsets {1,2},{1,3},{1,4},{2,3},{2,4},{3,4} in that order,
# cell (T, k) with k outside T is the rank of T+{k} among 3-subsets
K4_T2_GRID = [
    [STAR, STAR, 1, 2],
    [STAR, 1, STAR, 3],
    [STAR, 2, 3, STAR],
    [1, STAR, STAR, 4],
    [2, STAR, 4, STAR],
    [3, 4, STAR, STAR],
]


def test_toy_grid_accepted_with_expected_counts():
    arr = validate(TOY_GRID)
    assert (arr.K, arr.F, arr.Z, arr.S) == (3, 3, 1, 3)


def test_occurrences_are_zero_based_pairs():
    arr = validate(TOY_GRID)
    assert arr.occurrences(1) == ((0, 1), (1, 0))
    assert arr.occurrences(3) == ((1, 2), (2, 1))


def test_star_rows_and_column():
    arr = validate(TOY_GRID)
    assert arr.column(1) == (1, STAR, 3)


def test_family_member_k3_t1_is_the_toy_grid():
    assert man_pda(3, 1).entries == validate(TOY_GRID).entries


def test_family_member_k4_t2_matches_frozen_grid():
    assert man_pda(4, 2).entries == validate(K4_T2_GRID).entries


def test_family_member_k2_t1():
    assert man_pda(2, 1).entries == ((STAR, 1), (1, STAR))


def test_family_edge_no_caching():
    arr = man_pda(3, 0)
    assert arr.entries == ((1, 2, 3),)
    assert (arr.F, arr.Z, arr.S) == (1, 0, 3)


def test_family_edge_full_caching():
    arr = man_pda(3, 3)
    assert arr.F == 1 and arr.S == 0
    assert all(e is STAR for e in arr.entries[0])


@pytest.mark.parametrize("k", range(1, 9))
def test_family_validates_for_all_gains(k):
    for t in range(k + 1):
        arr = man_pda(k, t)
        assert arr.K == k


def test_family_seed_permutes_labels_but_stays_valid():
    base = man_pda(4, 1)
    shuffled = man_pda(4, 1, seed=9)
    assert shuffled.entries != base.entries
    assert (shuffled.F, shuffled.Z, shuffled.S) == (base.F, base.Z, base.S)
    # same star pattern, relabeled symbols only
    for j in range(base.F):
        for k in range(base.K):
            assert (base.entries[j][k] is STAR) == (shuffled.entries[j][k] is STAR)


def test_family_rejects_bad_gain():
    with pytest.raises(ValueError):
        man_pda(3, 4)
    with pytest.raises(ValueError):
        man_pda(3, -1)
    with pytest.raises(ValueError):
        man_pda(0, 0)


def test_unequal_star_counts_rejected():
    with pytest.raises(StarCountError) as info:
        validate([[STAR, 1], [1, 2]])
    assert "column" in str(info.value)


def test_missing_symbol_rejected():
    with pytest.raises(SymbolGapError) as info:
        validate([[1, 3], [3, 1]])
    assert "2" in str(info.value)


def test_a_huge_symbol_is_refused_at_once_with_a_short_message():
    # the report names how many symbols are missing and the first ten,
    # without walking 1..S
    start = time.perf_counter()
    with pytest.raises(SymbolGapError) as info:
        validate([[1, STAR], [STAR, 10 ** 12]])
    assert time.perf_counter() - start < 1
    message = str(info.value)
    assert len(message) < 200
    assert message.endswith(f"{10 ** 12 - 2} missing: 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...")
    with pytest.raises(SymbolGapError) as info:
        validate([[1, STAR], [STAR, 5]])
    assert str(info.value).endswith("3 missing: 2, 3, 4")


def test_repeat_in_row_rejected():
    with pytest.raises(ConditionAError):
        validate([[1, 1]])


def test_repeat_in_column_rejected():
    with pytest.raises(ConditionAError):
        validate([[1, 2], [1, 2]])


def test_star_crossing_rule_rejected():
    # symbol 1 appears at (1,1) and (2,2); cell (1,2) must be a star but is 2
    with pytest.raises(ConditionBError):
        validate([[1, 2], [STAR, 1], [2, STAR]])


def test_nonrectangular_and_bad_entries_rejected():
    with pytest.raises(PdaParseError):
        validate([[1, 2], [3]])
    with pytest.raises(PdaError):
        validate([[True, 1]])
    with pytest.raises(PdaError):
        validate([[0, 1]])
    with pytest.raises(PdaError):
        validate([])


def test_mutating_a_valid_grid_breaks_some_rule():
    rng = random.Random(7)
    arr = man_pda(4, 2)
    for _ in range(50):
        grid = [list(row) for row in arr.entries]
        j = rng.randrange(arr.F)
        k = rng.randrange(arr.K)
        original = grid[j][k]
        grid[j][k] = rng.choice([STAR] + [s for s in range(1, arr.S + 1)
                                          if s != original])
        if grid[j][k] == original or grid[j][k] is original:
            continue
        with pytest.raises((StarCountError, SymbolGapError, ConditionAError,
                            ConditionBError)):
            validate(grid)


def test_parse_round_trip():
    text = serialize(validate(TOY_GRID))
    assert text == "* 1 2\n1 * 3\n2 3 *\n"
    assert parse(text).entries == validate(TOY_GRID).entries


def test_parse_skips_blank_lines_and_extra_spaces():
    arr = parse("\n*   1 2\n\n1 * 3\n2 3 *\n\n")
    assert arr.entries == validate(TOY_GRID).entries


def test_parse_rejects_bad_tokens():
    with pytest.raises(PdaParseError):
        parse("* 1\n1 x\n")
    with pytest.raises(PdaParseError):
        parse("* 01\n1 *\n")
    with pytest.raises(PdaParseError):
        parse("* 1 2\n1 *\n")
    with pytest.raises(PdaParseError):
        parse("   \n\n")


def test_pda_is_hashable_and_frozen():
    arr = validate(TOY_GRID)
    hash(arr)
    with pytest.raises(AttributeError):
        arr.K = 5
