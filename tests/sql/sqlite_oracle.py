"""Differential-testing reference: the same rows, queried in stdlib sqlite3.

The repo's SQL dialect departs from SQLite's on purpose in six places.
Each rule has exactly one rendering — a helper below, used by every
query written for both engines — so any other difference is a bug:

1. ASC sorts NULLs last (NULLs sort last in both directions):
   :func:`order_key` appends ``NULLS LAST``.
2. ``/`` is float division: :func:`float_div` casts the dividend to
   REAL.
3. Booleans are ``True``/``False``, not 1/0: :func:`normalise` maps
   ``bool`` to ``int`` before comparing.
4. ``%`` takes the sign of the divisor (Python floor modulo):
   :func:`floor_mod` folds SQLite's truncated remainder.
5. ``ROUND`` rounds half to even: :func:`round_half_even`.
6. Ordering values of mixed types raises ``SqlExecutionError`` where
   SQLite orders them by storage class: generated queries stay
   well-typed, and fixed cases assert the error instead.

Results travel in the ``{columns, rows, error}`` envelope of
:func:`outcome`: a ``SqlError`` becomes the ``error`` field, and any
other exception propagates and fails the test.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from repro.errors import SqlError


class SqliteOracle:
    """An in-memory SQLite database holding copies of the test tables."""

    def __init__(self) -> None:
        self.conn = sqlite3.connect(":memory:")
        self.conn.execute("PRAGMA case_sensitive_like=ON")

    def add_table(self, name: str, rows: list[dict],
                  columns: list[str] | None = None) -> None:
        if columns is None:
            columns = []
            for row in rows:
                columns.extend(c for c in row if c not in columns)
        quoted = ", ".join(f'"{column}"' for column in columns)
        self.conn.execute(f'CREATE TABLE "{name}" ({quoted})')
        marks = ", ".join("?" for _ in columns)
        self.conn.executemany(
            f'INSERT INTO "{name}" VALUES ({marks})',
            [tuple(row.get(column) for column in columns) for row in rows],
        )

    def rows(self, sql: str) -> list[tuple]:
        return self.conn.execute(sql).fetchall()


# -- dialect renderings (SQLite side) ------------------------------------------


def float_div(left: str, right: str) -> str:
    return f"(CAST({left} AS REAL) / {right})"


def floor_mod(left: str, right: str) -> str:
    return f"((({left} % {right}) + {right}) % {right})"


def round_half_even(value: str) -> str:
    return (f"(CASE WHEN ABS({value} - CAST({value} AS INTEGER)) = 0.5 "
            f"THEN 2 * ROUND({value} / 2.0) ELSE ROUND({value}) END)")


def order_key(expr: str, descending: bool) -> str:
    return f"{expr} {'DESC' if descending else 'ASC'} NULLS LAST"


# -- comparison ------------------------------------------------------------------


def normalise(value: object) -> object:
    """One engine-neutral form per value: booleans as 0/1, floats to nine
    decimals (summation order may differ in the last bits)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return round(value, 9)
    return value


def normalised(rows: list[tuple]) -> list[tuple]:
    return [tuple(normalise(value) for value in row) for row in rows]


def outcome(run) -> dict:
    """Run one of this repo's execution paths in the envelope."""
    try:
        result = run()
    except SqlError as exc:
        return {"columns": None, "rows": None, "error": str(exc)}
    return {"columns": result.columns, "rows": result.tuples(),
            "error": None}


def assert_matches(envelope: dict, expected: list[tuple], ordered: bool,
                   label: object) -> None:
    """``envelope`` (from :func:`outcome`) equals SQLite's rows."""
    assert envelope["error"] is None, (label, envelope["error"])
    ours = normalised(envelope["rows"])
    theirs = normalised(expected)
    if ordered:
        assert ours == theirs, label
    else:
        assert Counter(ours) == Counter(theirs), label
