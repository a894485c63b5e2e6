"""The GPU work model, pinned to golden values.

:func:`repro.core.engine.traversal_profile` replaced the per-level walk
the host engine used to run on every batch.  The golden values below are
the :class:`EngineStats` that walk produced (``unique_nodes_per_level``,
grouped / broadcast / capped level counts) for fixed seeds on plain,
small-fanout and gap-thinned trees, in arrival, sorted, hinted, PSA and
no-PSA order.  The profile must reproduce them exactly, both when called
directly and when read lazily through ``last_engine_stats``.
"""

import numpy as np
import pytest

from repro.core import HarmoniaLayout, HarmoniaTree, SearchConfig
from repro.core.engine import BatchQueryEngine, traversal_profile
from repro.errors import ConfigError
from repro.workloads.generators import make_key_set, uniform_queries

#: case -> (unique_nodes_per_level, grouped, broadcast, capped)
GOLDEN = {
    "plain16/arrival": ([1, 2040, 3873, 4071, 4095], 1, 3, 0),
    "plain16/sorted": ([1, 2, 17, 182, 1740], 4, 0, 0),
    "plain16/hinted": ([1, 2, 17, 182, 1740], 4, 0, 0),
    "plain16/psa": ([1, 2, 19, 244, 2295], 4, 0, 0),
    "plain16/nopsa": ([1, 2040, 3873, 4071, 4095], 1, 3, 3),
    "plain64/arrival": ([1, 15890, 16372], 1, 1, 0),
    "plain64/sorted": ([1, 33, 1490], 2, 0, 0),
    "plain64/hinted": ([1, 33, 1490], 2, 0, 0),
    "plain64/psa": ([1, 63, 3074], 2, 0, 0),
    "plain64/nopsa": ([1, 15890, 16372], 1, 1, 1),
    "plain8/arrival": ([1, 1374, 1935, 2026, 2046], 1, 3, 0),
    "plain8/sorted": ([1, 3, 17, 100, 583], 4, 0, 0),
    "plain8/hinted": ([1, 3, 17, 100, 583], 4, 0, 0),
    "plain8/psa": ([1, 13, 61, 358, 1390], 3, 1, 1),
    "plain8/nopsa": ([1, 1374, 1935, 2026, 2046], 1, 3, 3),
    "skewed16/arrival": ([1, 1016, 1945, 2035], 1, 2, 0),
    "skewed16/sorted": ([1, 2, 18, 274], 3, 0, 0),
    "skewed16/hinted": ([1, 2, 18, 274], 3, 0, 0),
    "skewed16/psa": ([1, 18, 310, 1815], 2, 1, 0),
    "skewed16/nopsa": ([1, 1016, 1945, 2035], 1, 2, 1),
}


def _plain(n_keys, fanout, seed):
    keys = make_key_set(n_keys, rng=seed)
    return HarmoniaTree.from_sorted(keys, fanout=fanout, fill=0.7), keys


def _skewed():
    keys = make_key_set(4096, rng=3)
    survivors = keys[np.arange(keys.size) % 8 == 0]
    layout = HarmoniaLayout.from_sorted(keys, fanout=16, fill=1.0)
    return HarmoniaTree(layout.thinned(survivors), fill=1.0), survivors


TREES = {
    "plain16": (lambda: _plain(20000, 16, 3), 4096),
    "plain64": (lambda: _plain(1 << 16, 64, 5), 1 << 14),
    "plain8": (lambda: _plain(3000, 8, 7), 2048),
    "skewed16": (_skewed, 2048),
}


def _queries(keys, n):
    q = uniform_queries(keys, n, rng=11).copy()
    q[::5] += 1  # every fifth probe misses
    return q


def _check(stats, case, n_queries, hinted=False):
    levels, grouped, broadcast, capped = GOLDEN[case]
    assert stats.unique_nodes_per_level.tolist() == levels, case
    assert (stats.grouped_levels, stats.broadcast_levels,
            stats.capped_levels) == (grouped, broadcast, capped), case
    assert stats.hinted is hinted
    assert stats.n_queries == n_queries
    assert stats.height == len(levels)


@pytest.mark.parametrize("name", sorted(TREES))
def test_profile_matches_golden(name):
    make, nq = TREES[name]
    tree, keys = make()
    layout = tree.layout
    q = _queries(keys, nq)
    ordered = np.sort(q)
    _check(traversal_profile(layout, q), f"{name}/arrival", nq)
    _check(traversal_profile(layout, ordered, issue_sorted=True),
           f"{name}/sorted", nq)
    _check(traversal_profile(layout, ordered, hinted=True),
           f"{name}/hinted", nq, hinted=True)
    # The engine's lazily computed stats are the same profile.
    eng = BatchQueryEngine(layout)
    eng.execute(q)
    _check(eng.last_stats, f"{name}/arrival", nq)
    eng.execute_hinted(ordered)
    _check(eng.last_stats, f"{name}/hinted", nq, hinted=True)
    # Through the tree: the PSA batch and the no-PSA batch, with the
    # per-level scan windows of the snapshot's NTG selection (profiled
    # from the PSA batch, reused by the second).
    for label, cfg in (("psa", SearchConfig.full()),
                       ("nopsa", SearchConfig.full().with_(use_psa=False))):
        tree.search_many(q, cfg)
        _check(tree.last_engine_stats, f"{name}/{label}", nq)
        prep = tree.prepare_queries(q, cfg)
        _check(traversal_profile(layout, prep.queries,
                                 scan_widths=prep.scan_widths),
               f"{name}/{label}", nq)


def test_profile_frontier_monotone_and_bounded():
    tree, keys = _plain(20000, 16, 3)
    q = _queries(keys, 4096)
    for batch in (q, np.sort(q)):
        uniq = traversal_profile(tree.layout, batch).unique_nodes_per_level
        assert uniq[0] == 1
        assert np.all(np.diff(uniq) >= 0)
        assert uniq[-1] <= batch.size


def test_profile_edges():
    tree, keys = _plain(20000, 16, 3)
    layout = tree.layout
    empty = traversal_profile(layout, np.empty(0, dtype=np.int64))
    assert empty.n_queries == 0
    assert empty.total_node_reads == 0 and empty.compaction_ratio == 1.0
    single = HarmoniaTree.from_sorted([42]).layout
    one = traversal_profile(single, np.array([41, 42, 43], dtype=np.int64))
    assert one.unique_nodes_per_level.tolist() == [1]
    assert one.grouped_levels == one.broadcast_levels == 0
    with pytest.raises(ConfigError):
        traversal_profile(layout, keys[:10], scan_widths=(4,))
    with pytest.raises(ConfigError):
        traversal_profile(layout, keys[:10],
                          scan_widths=(0,) * layout.height)
