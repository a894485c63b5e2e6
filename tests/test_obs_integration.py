"""Integration tests: instrumented hot paths record correct metrics, and
recording never changes search results (the zero-interference property)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.config import SearchConfig
from repro.core.epoch import EpochManager
from repro.core.tree import HarmoniaTree
from repro.core.update import Operation
from repro.obs.registry import MetricsRegistry, TraceConfig
from repro.obs.schema import validate_snapshot
from repro.workloads.generators import make_key_set, uniform_queries

common_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@pytest.fixture(scope="module")
def obs_tree():
    keys = make_key_set(20_000, key_space_bits=34, rng=77)
    return HarmoniaTree.from_sorted(keys, fanout=32, fill=0.7)


@pytest.fixture(scope="module")
def shared_reader():
    """One tree and one pinned concurrent-epoch view (with inserts,
    updates and deletes in its delta) that many threads read at once."""
    keys = make_key_set(1 << 18, key_space_bits=34, rng=79)
    tree = HarmoniaTree.from_sorted(keys, keys * 3, fanout=64, fill=0.7)
    mgr = EpochManager(
        HarmoniaTree.from_sorted(keys, keys * 3, fanout=64, fill=0.7),
        drain_threshold=1 << 30)
    top = int(keys.max())
    mgr.submit_many(
        [Operation("insert", top + 1 + i, i) for i in range(500)]
        + [Operation("update", int(k), 7) for k in keys[1::89]]
        + [Operation("delete", int(k)) for k in keys[::97]]
    )
    mgr.flush()
    view = mgr.pin()
    assert view.delta is not None
    return {"tree": (tree, keys), "pinned_epoch_view": (view, keys)}


@pytest.fixture(scope="module")
def obs_queries(obs_tree):
    keys = np.fromiter(obs_tree.keys(), dtype=np.int64)
    return uniform_queries(keys, 6_000, rng=78)


class TestRecordingNeverChangesResults:
    @given(
        n=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**20),
        path=st.sampled_from(["batch", "many", "sorted"]),
    )
    @common_settings
    def test_on_off_equivalence(self, obs_tree, n, seed, path):
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 1 << 34, size=n, dtype=np.int64)
        fn = {
            "batch": obs_tree.search_batch,
            "many": obs_tree.search_many,
            "sorted": obs_tree.search_sorted_many,
        }[path]
        if path == "sorted":
            q = np.sort(q)
        off = fn(q)
        with obs.recording():
            on = fn(q)
        assert np.array_equal(off, on)
        assert obs.active is obs.NULL_RECORDER

    def test_simulator_equivalence(self, obs_tree, obs_queries):
        from repro.gpusim import simulate_harmonia_search

        q = obs_queries[:2048]
        prep = obs_tree.prepare_queries(q, SearchConfig.full())
        m_off = simulate_harmonia_search(
            obs_tree.layout, prep.queries, prep.group_size
        )
        with obs.recording():
            m_on = simulate_harmonia_search(
                obs_tree.layout, prep.queries, prep.group_size
            )
        assert m_off.gld_transactions == m_on.gld_transactions
        assert m_off.summary() == m_on.summary()


class TestCountersMatchStats:
    def test_engine_counters_match_engine_stats(self, obs_tree, obs_queries):
        with obs.recording() as rec:
            obs_tree.search_many(obs_queries)
        stats = obs_tree.last_engine_stats
        snap = rec.snapshot()
        assert validate_snapshot(snap) == []
        c = snap["counters"]
        assert c["engine.batches"] == 1
        assert c["engine.queries"] == stats.n_queries
        assert c["engine.node_reads"] == stats.total_node_reads
        for lvl in range(stats.height):
            assert c[f"engine.unique_nodes.l{lvl}"] == int(
                stats.unique_nodes_per_level[lvl]
            )

    def test_one_prepare_then_lookup_span_per_batch(
        self, obs_tree, obs_queries
    ):
        """Each search_many batch records one psa.prepare (the sort) that
        ends before its engine.lookup (the traversal) starts."""
        batches = np.array_split(obs_queries, 8)
        with obs.recording() as rec:
            for q in batches:
                obs_tree.search_many(q)
        snap = rec.snapshot()
        assert validate_snapshot(snap) == []
        assert snap["counters"]["engine.batches"] == len(batches)
        spans = [s for s in rec.spans()
                 if s[0] in ("psa.prepare", "engine.lookup")]
        names = [s[0] for s in spans]
        assert names == ["psa.prepare", "engine.lookup"] * len(batches)
        for prep, look in zip(spans[::2], spans[1::2]):
            assert prep[3] <= look[2]

    def test_gpusim_counters_match_kernel_metrics(self, obs_tree, obs_queries):
        from repro.gpusim import simulate_harmonia_search

        q = obs_queries[:2048]
        prep = obs_tree.prepare_queries(q, SearchConfig.full())
        with obs.recording() as rec:
            metrics = simulate_harmonia_search(
                obs_tree.layout, prep.queries, prep.group_size
            )
        snap = rec.snapshot()
        assert validate_snapshot(snap) == []
        c = snap["counters"]
        assert c["gpusim.gld_transactions"] == metrics.gld_transactions
        assert c["gpusim.gld_requests"] == metrics.gld_requests
        assert snap["gauges"]["gpusim.transactions_per_warp"] == pytest.approx(
            metrics.avg_transactions_per_warp()
        )
        assert snap["gauges"]["gpusim.warp_coherence"] == pytest.approx(
            metrics.warp_coherence
        )

    def test_pipeline_gauges(self):
        from repro.gpusim.pipeline import pipeline_time

        with obs.recording() as rec:
            point = pipeline_time("double_buffer", 8, 4096, 1e-3)
        snap = rec.snapshot()
        assert validate_snapshot(snap) == []
        g = snap["gauges"]
        assert g["gpusim.pipeline.double_buffer.total_s"] == pytest.approx(
            point.total_s
        )
        assert g["gpusim.pipeline.double_buffer.kernel_s"] == pytest.approx(
            point.kernel_s
        )


class TestConcurrentRecording:
    @pytest.mark.parametrize("surface", ["tree", "pinned_epoch_view"])
    def test_concurrent_search_many_into_one_registry(
        self, shared_reader, surface
    ):
        """Four threads call search_many on one shared reader under one
        ambient recording, two batch sizes between them: every result
        equals search_batch, and the engine totals are exact (each batch
        owns its buffers and profiles its own queries; registry mutations
        are locked)."""
        reader, keys = shared_reader[surface]
        n_threads, calls = 4, 12
        rng = np.random.default_rng(5)
        batches = [
            np.concatenate([rng.choice(keys, (1 << 15) + 997 * (i % 2)),
                            rng.integers(0, 1 << 34, 64)]).astype(np.int64)
            for i in range(n_threads)
        ]
        expected = [reader.search_batch(q) for q in batches]
        wrong = [0] * n_threads
        errors = []

        def work(i):
            try:
                for _ in range(calls):
                    got = reader.search_many(batches[i])
                    wrong[i] += int(np.count_nonzero(got != expected[i]))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            with obs.recording() as rec:
                threads = [
                    threading.Thread(target=work, args=(i,))
                    for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert wrong == [0] * n_threads
        snap = rec.snapshot()
        assert validate_snapshot(snap) == []
        assert snap["counters"]["engine.batches"] == n_threads * calls
        assert snap["counters"]["engine.queries"] == calls * sum(
            q.size for q in batches)


class TestTraceConfigRouting:
    def test_private_registry_routes_and_isolates(self, obs_tree, obs_queries):
        reg = MetricsRegistry()
        cfg = SearchConfig(trace=TraceConfig(registry=reg))
        with obs.recording() as ambient:
            obs_tree.search_many(obs_queries, cfg)
        # everything went to the private registry, nothing to the ambient
        assert reg.counter_value("engine.batches") == 1
        assert ambient.counter_value("engine.batches") == 0
        assert validate_snapshot(reg.snapshot()) == []

    def test_disabled_suppresses_ambient(self, obs_tree, obs_queries):
        cfg = SearchConfig(trace=TraceConfig(enabled=False))
        with obs.recording() as ambient:
            obs_tree.search_many(obs_queries, cfg)
        assert ambient.counter_value("engine.batches") == 0
        assert ambient.snapshot()["spans"]["count"] == 0

    def test_sorted_many_with_private_registry(self, obs_tree, obs_queries):
        reg = MetricsRegistry()
        cfg = SearchConfig(trace=TraceConfig(registry=reg))
        ordered = np.sort(obs_queries)
        out = obs_tree.search_sorted_many(ordered, cfg)
        assert np.array_equal(out, obs_tree.search_many(ordered))
        assert reg.counter_value("engine.hinted_batches") == 1
        assert obs.active is obs.NULL_RECORDER


class TestDisabledPathIsCheap:
    def test_no_registry_touched_when_disabled(self, obs_tree, obs_queries):
        """The module-level singleton is the only thing the disabled path
        sees — after an un-recorded call, no registry exists to inspect."""
        assert obs.active is obs.NULL_RECORDER
        obs_tree.search_many(obs_queries)
        assert obs.active is obs.NULL_RECORDER
        assert obs.active.snapshot() is None
