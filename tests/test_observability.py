"""Tests for the utilisation/observability report."""

import pytest

from repro.observability import QUERY_COUNTERS, ClusterReport, CounterSet, \
    NodeReport, collect_report, format_report
from repro.query import QueryService

from .conftest import build_average_job, make_squery_backend


def _node(node_id, processing=0.0, query=0.0, store=0.0):
    return NodeReport(
        node_id=node_id, alive=True,
        processing_utilization=processing, processing_jobs=0,
        query_utilization=query, query_jobs=0,
        store_utilization=store, store_jobs=0,
    )


def test_report_covers_all_nodes(env):
    job = build_average_job(env, rate=2000)
    job.start()
    env.run_until(2_000)
    report = collect_report(env)
    assert len(report.nodes) == 3
    assert report.horizon_ms == 2_000
    assert all(node.alive for node in report.nodes)


def test_processing_utilization_reflects_load(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=4000)
    job.start()
    env.run_until(2_000)
    report = collect_report(env)
    for node in report.nodes:
        assert 0.0 < node.processing_utilization < 1.0
        assert node.processing_jobs > 0
        assert node.store_jobs > 0  # snapshot writes hit the store


def test_network_and_lock_counters(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000)
    job.start()
    env.run_until(1_500)
    report = collect_report(env)
    assert report.network_messages > 0
    assert report.network_bytes > 0
    assert report.lock_acquisitions > 0  # live mirroring locks keys


def test_dead_node_flagged(env):
    job = build_average_job(env, rate=1000, checkpoint_interval_ms=500)
    job.start()
    env.run_until(1_600)
    env.cluster.kill_node(1)
    report = collect_report(env)
    status = {node.node_id: node.alive for node in report.nodes}
    assert status == {0: True, 1: False, 2: True}


def test_hottest_pool_identifies_processing(env):
    job = build_average_job(env, rate=5000)
    job.start()
    env.run_until(2_000)
    report = collect_report(env)
    node_id, kind, utilization = report.hottest_pool()
    assert kind == "processing"
    assert utilization > 0


def test_hottest_pool_considers_store_servers():
    # A store-bound node must win over busier-looking-but-cooler pools;
    # hottest_pool used to ignore store_utilization entirely.
    report = ClusterReport(horizon_ms=1_000, nodes=[
        _node(0, processing=0.30, query=0.10, store=0.20),
        _node(1, processing=0.25, query=0.15, store=0.85),
        _node(2, processing=0.40, query=0.05, store=0.10),
    ])
    assert report.hottest_pool() == (1, "store", 0.85)


def test_hottest_pool_store_loses_when_cooler():
    report = ClusterReport(horizon_ms=1_000, nodes=[
        _node(0, processing=0.60, query=0.10, store=0.20),
    ])
    assert report.hottest_pool() == (0, "processing", 0.60)


def test_format_report_renders(env):
    job = build_average_job(env, rate=1000)
    job.start()
    env.run_until(1_000)
    text = format_report(collect_report(env))
    assert "cluster utilisation" in text
    assert "network:" in text
    assert "proc util" in text
    assert "continuous:" not in text  # subsystem unused: no noise
    assert text.count("\n") >= 5


def test_report_counts_continuous_queries(env):
    backend = make_squery_backend(env)
    job = build_average_job(env, backend=backend, rate=2000)
    service = QueryService(env)
    job.start()
    env.run_for(100)
    subscription = service.subscribe(
        'SELECT COUNT(*) AS n, SUM(count) AS events FROM "average"'
    )
    env.run_for(1_000)
    report = collect_report(env)
    assert report.active_subscriptions == 1
    assert report.changes_captured > 0
    assert report.push_batches_sent > 0
    assert report.deltas_pushed > 0
    text = format_report(report)
    assert "continuous: 1 subscriptions" in text
    env.continuous.unsubscribe(subscription)
    assert collect_report(env).active_subscriptions == 0


def test_report_counts_query_fault_tolerance():
    from repro import Environment
    from repro.config import ClusterConfig, CostModel, QueryRetryPolicy

    slow = Environment(
        ClusterConfig(nodes=3, processing_workers_per_node=2),
        costs=CostModel(scan_entry_ms=0.05,
                        vectorized_scan_entry_ms=0.05),
    )
    backend = make_squery_backend(slow)
    job = build_average_job(slow, backend=backend, rate=4000, keys=250)
    job.start()
    slow.run_until(1_500)
    service = QueryService(
        slow, retry_policy=QueryRetryPolicy(query_timeout_ms=500.0)
    )
    execution = service.submit('SELECT COUNT(*) FROM "average"')
    slow.run_for(2.0)  # scans in flight
    victim = next(n for n in slow.cluster.surviving_node_ids()
                  if n != execution.entry_node)
    slow.cluster.fail_node(victim)
    slow.run_for(2_000)
    report = collect_report(slow)
    assert report.query_retries == 1
    assert report.locks_held == 0
    text = format_report(report)
    assert "query fault tolerance: 1 retries" in text


def _counter_env():
    """Tables that drive every query-counter path: a co-partitioned
    pair plus a small dimension, a shuffle pair, and an indexed table
    that an index scan and an index-nested-loop join both read."""
    from repro import Environment
    from repro.config import ClusterConfig
    from repro.state.live import LiveStateTable

    env = Environment(ClusterConfig(nodes=4,
                                    processing_workers_per_node=1))
    maps = {}
    for name in ("orders", "states", "dims", "l", "r", "small", "big"):
        maps[name] = env.store.create_map(name)
        env.store.register_live_table(name, LiveStateTable(maps[name]))
    for k in range(300):
        maps["orders"].put(k, {"cust": k % 12, "amount": k % 500})
        if k % 3:
            maps["states"].put(k, {"status": ["open", "done"][k % 2]})
    for k in range(12):
        maps["dims"].put(k, {"cust_id": k, "region": ["e", "w"][k % 2]})
    for k in range(400):
        maps["l"].put(k, {"fk": (k * 7) % 350, "a": k % 100})
    for k in range(500):
        maps["r"].put(k, {"rk": k % 350, "b": k % 100})
    for k in range(15):
        maps["small"].put(k, {"fk": (k * 3) % 40})
    for k in range(6000):
        maps["big"].put(k, {"rk": k % 2000, "b": k % 100})
    env.store.create_index("big", "rk")
    env.store.create_sketch("big", "b", "countmin")
    return env


def test_every_query_counter_reaches_the_report():
    env = _counter_env()
    distributed = QueryService(env)
    central = QueryService(env, distributed_joins=False)
    # More keys than a multi-point get takes: the scan prunes partitions.
    keys = ", ".join(str(k) for k in range(65))
    statements = {
        # pushdown, pruning, a compile miss and then per-shard hits
        "pruned": 'SELECT amount FROM "orders" '
                  f"WHERE key IN ({keys}) AND amount < 4321",
        "index": 'SELECT b FROM "big" WHERE rk = 5',
        "approx": 'SELECT APPROX COUNT(*) AS n FROM "big" WHERE b = 17',
        "copartitioned": 'SELECT o.amount, s.status FROM "orders" AS o '
                         'JOIN "states" AS s USING (partitionKey)',
        "broadcast": 'SELECT o.amount, d.region FROM "orders" AS o '
                     'JOIN "dims" AS d ON o.cust = d.cust_id',
        "shuffle": 'SELECT l.a, r.b FROM "l" AS l '
                   'JOIN "r" AS r ON l.fk = r.rk WHERE l.a < 10',
        "index-nested-loop": 'SELECT s.fk, b.b FROM "small" AS s '
                             'JOIN "big" AS b ON s.fk = b.rk',
    }
    for label, sql in statements.items():
        execution = distributed.execute(sql)
        assert execution.error is None, (label, execution.error)
        if label in ("copartitioned", "broadcast", "shuffle",
                     "index-nested-loop"):
            assert execution.join_strategies == [label]
    assert central.execute(statements["broadcast"]).join_strategies \
        == ["central"]
    report = collect_report(env)
    # The fault-tolerance trio needs injected failures; it is covered
    # by test_report_counts_query_fault_tolerance.
    fault = {"query_retries", "query_aborts", "query_timeouts"}
    for name in QUERY_COUNTERS.keys() - fault:
        assert report.counters[name] > 0, name
        assert getattr(report, name) == report.counters[name]
        assert report.counters[name] == (distributed.counters[name]
                                         + central.counters[name])


def test_unregistered_counters_raise():
    env = _counter_env()
    service = QueryService(env)
    execution = service.execute('SELECT COUNT(*) AS n FROM "dims"')
    report = collect_report(env)
    for counters in (execution.counters, service.counters,
                     report.counters, CounterSet()):
        with pytest.raises(KeyError):
            counters["rows_shipped"] += 1
        with pytest.raises(KeyError):
            counters["rows_shipped"] = 1
        with pytest.raises(KeyError):
            counters["rows_shipped"]
        assert counters["query_rows_shipped"] >= 0
    with pytest.raises(AttributeError):
        report.rows_shipped
