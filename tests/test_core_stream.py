"""Tests for the §4.1.3 streaming executor (core/stream.py)."""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import NOT_FOUND, VALUE_DTYPE
from repro.core.config import SearchConfig
from repro.core.stream import BatchTrace, StreamExecutor, StreamStats
from repro.core.tree import HarmoniaTree
from repro.errors import ConfigError
from repro.workloads.generators import make_key_set, uniform_queries

common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def stream_tree():
    keys = make_key_set(20_000, key_space_bits=34, rng=21)
    return HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)


@pytest.fixture(scope="module")
def stream_queries(stream_tree):
    keys = np.fromiter(stream_tree.keys(), dtype=np.int64)
    return uniform_queries(keys, 9_000, rng=22)


class TestEquivalence:
    """Stream executor ≡ search_batch ≡ search_many — batching and PSA
    on/off never change results."""

    @common_settings
    @given(
        batch_size=st.integers(min_value=1, max_value=9_500),
        use_psa=st.booleans(),
    )
    def test_stream_matches_oracles(
        self, stream_tree, stream_queries, batch_size, use_psa,
    ):
        cfg = SearchConfig(use_psa=use_psa, stream_batch=batch_size)
        got = stream_tree.search_stream(stream_queries, cfg)
        assert np.array_equal(got, stream_tree.search_batch(stream_queries, cfg))
        assert np.array_equal(got, stream_tree.search_many(stream_queries, cfg))

    def test_run_out_buffer(self, stream_tree, stream_queries):
        ex = StreamExecutor(stream_tree.layout, batch_size=1024)
        out = np.empty(stream_queries.size, dtype=VALUE_DTYPE)
        got = ex.run(stream_queries, out=out)
        assert got is out
        assert np.array_equal(out, stream_tree.search_batch(stream_queries))

    def test_misses_map_to_not_found(self, stream_tree):
        # Keys far outside the stored range.
        q = np.array([(1 << 62) + i for i in range(100)], dtype=np.int64)
        ex = StreamExecutor(stream_tree.layout, batch_size=32)
        assert np.all(ex.run(q) == NOT_FOUND)


class TestThreadSafety:
    def test_concurrent_search_stream(self, stream_tree, stream_queries):
        """Four threads stream concurrently; per-call executors mean no
        shared scratch, so every thread gets exact results."""
        ref = stream_tree.search_batch(stream_queries)
        cfg = SearchConfig(stream_batch=512)
        errors = []

        def worker():
            try:
                for _ in range(3):
                    got = stream_tree.search_stream(stream_queries, cfg)
                    assert np.array_equal(got, ref)
            except Exception as exc:  # pragma: no cover — failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestStats:
    def test_trace_and_stats_invariants(self, stream_tree, stream_queries):
        ex = StreamExecutor(stream_tree.layout, batch_size=1000)
        ex.run(stream_queries)
        st_ = ex.last_stats
        assert isinstance(st_, StreamStats)
        assert st_.n_queries == stream_queries.size
        assert st_.n_batches == -(-stream_queries.size // 1000)
        assert len(st_.traces) == st_.n_batches
        assert sum(t.n for t in st_.traces) == stream_queries.size
        for t in st_.traces:
            assert isinstance(t, BatchTrace)
            assert t.sort_start <= t.sort_end <= t.traverse_start
            assert t.traverse_start <= t.traverse_end <= t.scatter_start
            assert t.scatter_start <= t.scatter_end <= st_.wall_s + 1e-9
        # One thread runs the stages back to back: batch i+1's sort
        # starts after batch i's scatter ends.
        for a, b in zip(st_.traces, st_.traces[1:]):
            assert b.index == a.index + 1
            assert a.scatter_end <= b.sort_start
        assert st_.sort_s + st_.traverse_s + st_.scatter_s <= st_.wall_s + 1e-9

    def test_model_double_buffer_never_worse_than_serial(
        self, stream_tree, stream_queries
    ):
        ex = StreamExecutor(stream_tree.layout, batch_size=2048)
        ex.run(stream_queries)
        st_ = ex.last_stats
        assert st_.model_total_s("double_buffer") <= st_.model_total_s("serial") + 1e-12
        with pytest.raises(ConfigError):
            st_.model_total_s("pipeline")

    def test_summary_round_trips_to_json(self, stream_tree, stream_queries):
        import json

        ex = StreamExecutor(stream_tree.layout, batch_size=4096)
        ex.run(stream_queries)
        digest = ex.last_stats.summary()
        assert json.loads(json.dumps(digest)) == digest
        assert digest["n_queries"] == stream_queries.size
        assert digest["cpu_count"] >= 1

    def test_tree_last_stream_stats(self, stream_tree, stream_queries):
        tree = stream_tree
        assert tree.search_stream(stream_queries).size == stream_queries.size
        st_ = tree.last_stream_stats
        assert st_ is not None and st_.n_queries == stream_queries.size

    def test_empty_queries(self, stream_tree):
        ex = StreamExecutor(stream_tree.layout)
        out = ex.run(np.array([], dtype=np.int64))
        assert out.size == 0
        assert ex.last_stats.n_batches == 0
        assert ex.last_stats.model_total_s("serial") == 0.0


class TestValidation:
    def test_executor_rejects_bad_params(self, stream_tree):
        layout = stream_tree.layout
        with pytest.raises(ConfigError):
            StreamExecutor(layout, batch_size=0)
        with pytest.raises(ConfigError):
            StreamExecutor(layout, bits=-1)
        with pytest.raises(ConfigError):
            StreamExecutor("not a layout")
        StreamExecutor(layout, batch_size=1)  # a one-query batch is legal

    def test_run_rejects_bad_out(self, stream_tree, stream_queries):
        ex = StreamExecutor(stream_tree.layout)
        with pytest.raises(ConfigError):
            ex.run(stream_queries, out=np.empty(3, dtype=VALUE_DTYPE))
        with pytest.raises(ConfigError):
            ex.run(
                stream_queries,
                out=np.empty(stream_queries.size, dtype=np.float64),
            )

    def test_search_config_stream_fields(self):
        with pytest.raises(ConfigError):
            SearchConfig(stream_batch=0)
        SearchConfig(stream_batch=1)  # legal

    def test_empty_tree_streams_not_found(self, stream_queries):
        tree = HarmoniaTree.empty()
        out = tree.search_stream(stream_queries)
        assert np.all(out == NOT_FOUND)
