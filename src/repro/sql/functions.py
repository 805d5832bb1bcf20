"""Scalar functions and aggregate accumulators."""

from __future__ import annotations

import math
from typing import Callable

from ..errors import SqlExecutionError


def incomparable(left: object, right: object) -> SqlExecutionError:
    """The error for ordering two values of incompatible types."""
    return SqlExecutionError(
        f"cannot compare {type(left).__name__} with "
        f"{type(right).__name__}"
    )


#: The Python types SQL arithmetic and numeric functions accept (``bool``
#: is an ``int`` subclass and counts as 0/1).
NUMBERS = (int, float)


def bad_operands(op: str, *values: object) -> SqlExecutionError:
    """The error for an arithmetic operator, numeric function or numeric
    aggregate applied to a value that is not a number."""
    types = " and ".join(type(value).__name__ for value in values)
    return SqlExecutionError(f"cannot apply {op} to {types}")


def _number(name: str, value: object) -> object:
    """``value`` if it is a number or NULL; otherwise the typed error."""
    if value is not None and not isinstance(value, NUMBERS):
        raise bad_operands(name, value)
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SqlExecutionError(message)


def _scalar_upper(args: list[object]) -> object:
    _require(len(args) == 1, "UPPER takes one argument")
    value = args[0]
    return None if value is None else str(value).upper()


def _scalar_lower(args: list[object]) -> object:
    _require(len(args) == 1, "LOWER takes one argument")
    value = args[0]
    return None if value is None else str(value).lower()


def _scalar_length(args: list[object]) -> object:
    _require(len(args) == 1, "LENGTH takes one argument")
    value = args[0]
    return None if value is None else len(str(value))


def _scalar_abs(args: list[object]) -> object:
    _require(len(args) == 1, "ABS takes one argument")
    value = _number("ABS", args[0])
    return None if value is None else abs(value)


def _scalar_round(args: list[object]) -> object:
    _require(len(args) in (1, 2), "ROUND takes one or two arguments")
    value = _number("ROUND", args[0])
    if value is None:
        return None
    digits = _number("ROUND", args[1]) if len(args) == 2 else 0
    if digits is None:
        return None
    return round(value, int(digits))


def _scalar_floor(args: list[object]) -> object:
    _require(len(args) == 1, "FLOOR takes one argument")
    value = _number("FLOOR", args[0])
    return None if value is None else math.floor(value)


def _scalar_ceil(args: list[object]) -> object:
    _require(len(args) == 1, "CEIL takes one argument")
    value = _number("CEIL", args[0])
    return None if value is None else math.ceil(value)


def _scalar_coalesce(args: list[object]) -> object:
    for value in args:
        if value is not None:
            return value
    return None


def _scalar_nullif(args: list[object]) -> object:
    _require(len(args) == 2, "NULLIF takes two arguments")
    return None if args[0] == args[1] else args[0]


def _scalar_sqrt(args: list[object]) -> object:
    _require(len(args) == 1, "SQRT takes one argument")
    value = _number("SQRT", args[0])
    if value is None:
        return None
    _require(value >= 0, "SQRT of a negative number")
    return math.sqrt(value)


SCALAR_FUNCTIONS: dict[str, Callable[[list[object]], object]] = {
    "UPPER": _scalar_upper,
    "LOWER": _scalar_lower,
    "LENGTH": _scalar_length,
    "ABS": _scalar_abs,
    "ROUND": _scalar_round,
    "FLOOR": _scalar_floor,
    "CEIL": _scalar_ceil,
    "COALESCE": _scalar_coalesce,
    "NULLIF": _scalar_nullif,
    "SQRT": _scalar_sqrt,
}


class Aggregate:
    """Base incremental aggregate accumulator.

    ``add`` receives the evaluated argument for one input row (``None``
    is ignored per SQL semantics, except for ``COUNT(*)``).
    """

    def add(self, value: object) -> None:
        raise NotImplementedError

    def result(self) -> object:
        raise NotImplementedError

    def merge(self, other: "Aggregate") -> None:
        """Fold another partial accumulator of the same shape into this
        one.  Merging is commutative and associative, so scan-side
        partials can combine in any arrival order; merging a fresh
        (empty) accumulator is the identity."""
        raise NotImplementedError


class CountAggregate(Aggregate):
    def __init__(self, count_star: bool, distinct: bool) -> None:
        self._count_star = count_star
        self._distinct = distinct
        self._count = 0
        self._seen: set | None = set() if distinct else None

    def add(self, value: object) -> None:
        if not self._count_star and value is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1

    def result(self) -> object:
        return self._count

    def merge(self, other: "CountAggregate") -> None:
        if self._seen is not None:
            self._seen |= other._seen or set()
            self._count = len(self._seen)
        else:
            self._count += other._count


class SumAggregate(Aggregate):
    def __init__(self, distinct: bool) -> None:
        self._total: float | int | None = None
        self._seen: set | None = set() if distinct else None

    def add(self, value: object) -> None:
        if _number("SUM", value) is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self._total = value if self._total is None else self._total + value

    def result(self) -> object:
        return self._total

    def merge(self, other: "SumAggregate") -> None:
        if self._seen is not None:
            self._seen |= other._seen or set()
            self._total = None
            for value in self._seen:
                self._total = (
                    value if self._total is None else self._total + value
                )
        elif other._total is not None:
            self._total = (
                other._total if self._total is None
                else self._total + other._total
            )


class AvgAggregate(Aggregate):
    def __init__(self, distinct: bool) -> None:
        self._total = 0.0
        self._count = 0
        self._seen: set | None = set() if distinct else None

    def add(self, value: object) -> None:
        if _number("AVG", value) is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self._total += value
        self._count += 1

    def result(self) -> object:
        if self._count == 0:
            return None
        return self._total / self._count

    def merge(self, other: "AvgAggregate") -> None:
        if self._seen is not None:
            self._seen |= other._seen or set()
            self._total = float(sum(self._seen))
            self._count = len(self._seen)
        else:
            self._total += other._total
            self._count += other._count


class MinAggregate(Aggregate):
    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        try:
            if self._best is None or value < self._best:
                self._best = value
        except TypeError:
            raise incomparable(value, self._best) from None

    def result(self) -> object:
        return self._best

    def merge(self, other: "MinAggregate") -> None:
        self.add(other._best)


class MaxAggregate(Aggregate):
    def __init__(self) -> None:
        self._best: object = None

    def add(self, value: object) -> None:
        if value is None:
            return
        try:
            if self._best is None or value > self._best:
                self._best = value
        except TypeError:
            raise incomparable(value, self._best) from None

    def result(self) -> object:
        return self._best

    def merge(self, other: "MaxAggregate") -> None:
        self.add(other._best)


def make_aggregate(name: str, count_star: bool, distinct: bool) -> Aggregate:
    """Instantiate the accumulator for an aggregate function name."""
    if name == "COUNT":
        return CountAggregate(count_star, distinct)
    if name == "SUM":
        return SumAggregate(distinct)
    if name == "AVG":
        return AvgAggregate(distinct)
    if name == "MIN":
        return MinAggregate()
    if name == "MAX":
        return MaxAggregate()
    raise SqlExecutionError(f"unknown aggregate {name}")
