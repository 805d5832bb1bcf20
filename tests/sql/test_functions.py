"""Tests for aggregate accumulators and scalar functions."""

import pytest

from repro.errors import SqlExecutionError
from repro.sql.functions import (
    SCALAR_FUNCTIONS,
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
    make_aggregate,
)


def test_count_star_counts_nulls():
    acc = CountAggregate(count_star=True, distinct=False)
    for value in (1, None, 2):
        acc.add(value)
    assert acc.result() == 3


def test_count_column_skips_nulls():
    acc = CountAggregate(count_star=False, distinct=False)
    for value in (1, None, 2):
        acc.add(value)
    assert acc.result() == 2


def test_count_distinct():
    acc = CountAggregate(count_star=False, distinct=True)
    for value in (1, 1, 2, None, 2):
        acc.add(value)
    assert acc.result() == 2


def test_sum_ignores_nulls_and_empty_is_null():
    acc = SumAggregate(distinct=False)
    assert acc.result() is None
    for value in (1, None, 2.5):
        acc.add(value)
    assert acc.result() == 3.5


def test_sum_distinct():
    acc = SumAggregate(distinct=True)
    for value in (2, 2, 3):
        acc.add(value)
    assert acc.result() == 5


def test_avg():
    acc = AvgAggregate(distinct=False)
    assert acc.result() is None
    for value in (2, 4, None):
        acc.add(value)
    assert acc.result() == 3.0


def test_min_max():
    lo, hi = MinAggregate(), MaxAggregate()
    for value in (5, None, 2, 9):
        lo.add(value)
        hi.add(value)
    assert lo.result() == 2
    assert hi.result() == 9


def test_min_max_strings():
    lo = MinAggregate()
    for value in ("pear", "apple"):
        lo.add(value)
    assert lo.result() == "apple"


def test_make_aggregate_dispatch():
    assert isinstance(make_aggregate("COUNT", True, False), CountAggregate)
    assert isinstance(make_aggregate("SUM", False, False), SumAggregate)
    assert isinstance(make_aggregate("AVG", False, False), AvgAggregate)
    assert isinstance(make_aggregate("MIN", False, False), MinAggregate)
    assert isinstance(make_aggregate("MAX", False, False), MaxAggregate)
    with pytest.raises(SqlExecutionError):
        make_aggregate("MEDIAN", False, False)


@pytest.mark.parametrize("name, args, expected", [
    ("UPPER", ["abc"], "ABC"),
    ("LOWER", ["AbC"], "abc"),
    ("LENGTH", ["hello"], 5),
    ("ABS", [-3], 3),
    ("ROUND", [2.567, 1], 2.6),
    ("FLOOR", [2.9], 2),
    ("CEIL", [2.1], 3),
    ("COALESCE", [None, None, 7], 7),
    ("COALESCE", [None], None),
    ("NULLIF", [3, 3], None),
    ("NULLIF", [3, 4], 3),
    ("SQRT", [16], 4.0),
])
def test_scalar_functions(name, args, expected):
    assert SCALAR_FUNCTIONS[name](args) == expected


@pytest.mark.parametrize("name", ["UPPER", "LOWER", "LENGTH", "ABS",
                                  "FLOOR", "CEIL", "SQRT"])
def test_scalar_functions_null_propagation(name):
    assert SCALAR_FUNCTIONS[name]([None]) is None


def test_scalar_function_arity_checked():
    with pytest.raises(SqlExecutionError):
        SCALAR_FUNCTIONS["UPPER"](["a", "b"])
    with pytest.raises(SqlExecutionError):
        SCALAR_FUNCTIONS["NULLIF"]([1])


@pytest.mark.parametrize("name, args, message", [
    ("ABS", ["x"], "cannot apply ABS to str"),
    ("ROUND", ["x"], "cannot apply ROUND to str"),
    ("ROUND", [2.5, "x"], "cannot apply ROUND to str"),
    ("FLOOR", ["x"], "cannot apply FLOOR to str"),
    ("CEIL", ["x"], "cannot apply CEIL to str"),
    ("SQRT", ["x"], "cannot apply SQRT to str"),
    ("SQRT", [-1], "SQRT of a negative number"),
])
def test_numeric_functions_reject_bad_arguments(name, args, message):
    with pytest.raises(SqlExecutionError, match=message):
        SCALAR_FUNCTIONS[name](args)


def test_round_with_null_digits_is_null():
    assert SCALAR_FUNCTIONS["ROUND"]([2.5, None]) is None
