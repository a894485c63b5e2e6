"""Figure 14 bench — batch update throughput (both pipelines are real).

Every Harmonia mode reports ``movement_share`` in ``extra_info`` — the
fraction of the executor's phase time spent in the movement stage: the
scalar reference's whole-tree movement pass, the default write's merge
into the next packed leaf block.
"""

import pytest

from repro.baselines.hbtree import HBTree
from repro.core import HarmoniaTree
from repro.core.update import scalar_apply
from repro.workloads.generators import make_key_set
from repro.workloads.mixes import PAPER_UPDATE_MIX, make_update_batch
from benchmarks.conftest import BENCH_SCALE, N_KEYS


@pytest.fixture(scope="module")
def update_world():
    keys = make_key_set(N_KEYS, rng=91)
    ops = make_update_batch(keys, BENCH_SCALE.update_batch,
                            mix=PAPER_UPDATE_MIX, rng=92)
    return keys, ops


def _movement_share(result) -> float:
    """Movement-phase share of the executor's accounted phase time."""
    total = result.timer.total()
    if total <= 0:
        return 0.0
    return result.timer.get("movement") / total


def test_fig14_harmonia_batch_update(benchmark, update_world):
    """The default executor — resolve, then merge into the block."""
    keys, ops = update_world

    def run():
        tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)
        return tree.apply_batch(ops)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["ops"] = len(ops)
    benchmark.extra_info["split_leaves"] = res.split_leaves
    benchmark.extra_info["movement_share"] = round(_movement_share(res), 4)
    assert res.failed == 0


def test_fig14_harmonia_batch_update_scalar(benchmark, update_world):
    """The per-op Algorithm 1 reference path, kept for comparison."""
    keys, ops = update_world

    def run():
        tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)
        return scalar_apply(tree, ops, n_threads=4)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["ops"] = len(ops)
    benchmark.extra_info["movement_share"] = round(_movement_share(res), 4)
    assert res.failed == 0


def test_fig14_hbtree_batch_update(benchmark, update_world):
    keys, ops = update_world

    def run():
        hb = HBTree.from_sorted(keys, fanout=64, fill=0.7)
        return hb.apply_batch(ops, n_threads=4)

    counts = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["ops"] = len(ops)
    benchmark.extra_info["sync_s"] = round(counts["sync_s"], 4)
    assert counts["failed"] == 0


def test_fig14_movement_only(benchmark, update_world):
    """The deferred-movement pass in isolation — the cost §3.2.2's design
    amortizes and the gapped executor mostly skips."""
    from repro.core.update import BatchUpdater

    keys, ops = update_world
    tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)
    updater = BatchUpdater(tree.layout, fill=0.7)
    updater.apply_batch(ops, n_threads=1)
    out = benchmark(updater.movement)
    assert out is not None
