"""Attempt-token fixture: unguarded partial collection, all flagged."""


def merge_chunk(state, shard, rows):
    state["rows"][shard] = rows  # VIOLATION: no attempt check


def bump_scanned(state, count):
    state["scanned"] += count  # VIOLATION: no attempt check


def bill_shipment(execution, nbytes):
    execution.counters["query_bytes_shipped"] += nbytes  # VIOLATION
