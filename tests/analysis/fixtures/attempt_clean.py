"""Attempt-token fixture: guarded partial collection, none flagged."""


def merge_chunk(state, table, shard, rows, attempt):
    if state["attempt"][table] != attempt:
        return  # stale chunk from a pre-retry scan
    state["rows"][shard] = rows


def bump_scanned(state, table, count, token):
    if state["attempt"][table] != token:
        return
    state["scanned"] += count


def bill_shipment(execution, nbytes, attempt):
    # Guarded by taking the token as a parameter (forwarded upstream).
    execution.counters["query_bytes_shipped"] += nbytes


def unrelated_counter(metrics):
    # Not a partial-collection write: out of scope for the rule.
    metrics.events += 1
