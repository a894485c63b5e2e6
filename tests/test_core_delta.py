"""The mergeable delta index and its last-wins merge primitive.

Three layers of contract, each hypothesis-pinned against a dict model:

* :func:`repro.core.merge.merge_last_wins` — the two-way merge every
  publish folds a run with: the newer entry wins per key (the disjoint
  :func:`~repro.core.merge.concat_sorted_runs` keeps its reject-on-overlap
  behavior, pinned in ``test_shard.py``);
* :class:`repro.core.delta.DeltaIndex` / :class:`~repro.core.delta.DeltaView`
  — the visible set folded run by run, also while a drain is in flight,
  and its overlays (point, existence, merge, the range splice): last
  wins, tombstones mask base entries;
* :func:`repro.core.delta.resolve_batch` — per-op outcomes and counts
  identical to the scalar replay reference, with the published run equal
  to the batch's net effect.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import NOT_FOUND, VALUE_DTYPE
from repro.core.delta import (
    DeltaIndex,
    DeltaRun,
    DeltaView,
    fold_run,
    resolve_batch,
)
from repro.core.merge import concat_sorted_runs, merge_last_wins
from repro.core.search import range_search_batch
from repro.core.snapshot import Snapshot
from repro.core.update import Operation
from repro.errors import ConfigError


def make_run(entries, net=0):
    """``{key: (value, tombstoned)}`` → DeltaRun."""
    keys = np.asarray(sorted(entries), dtype=np.int64)
    values = np.asarray([entries[k][0] for k in keys.tolist()],
                        dtype=VALUE_DTYPE)
    tombs = np.asarray([entries[k][1] for k in keys.tolist()], dtype=bool)
    return DeltaRun(keys=keys, values=values, tombstones=tombs, net=net)


def entries_of(run):
    """DeltaRun → ``{key: (value, tombstoned)}``."""
    return {k: (v, t) for k, v, t in zip(run.keys.tolist(),
                                         run.values.tolist(),
                                         run.tombstones.tolist())}


def publish(idx, run):
    """Fold and publish one run, as a flush does."""
    idx.publish(idx.fold(run))


def view_of(runs):
    """The view a reader pins after ``runs`` were published in order."""
    empty = make_run({})
    return DeltaView(functools.reduce(fold_run, map(make_run, runs), empty))


# --------------------------------------------------------------------------
# merge_last_wins: the newer run wins
# --------------------------------------------------------------------------

run_strategy = st.lists(
    st.tuples(st.integers(0, 60), st.integers(-5, 5)), max_size=12,
).map(lambda pairs: dict(pairs))


def as_arrays(entries):
    keys = np.asarray(sorted(entries), dtype=np.int64)
    return keys, np.asarray([entries[k] for k in keys.tolist()],
                            dtype=VALUE_DTYPE)


class TestConcatLastWins:
    """Last-wins combination of runs (:func:`merge_last_wins`), next to
    the disjoint-only :func:`concat_sorted_runs`."""

    def test_rejects_unsorted_run(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ConfigError):
            merge_last_wins(empty, (), np.asarray([3, 1], dtype=np.int64), ())

    def test_rejects_duplicate_within_run(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ConfigError):
            merge_last_wins(empty, (), np.asarray([1, 1], dtype=np.int64), ())

    def test_overlap_keeps_newest(self):
        keys, (values,) = merge_last_wins(
            np.asarray([1, 2, 3], dtype=np.int64),
            (np.asarray([10, 20, 30], dtype=VALUE_DTYPE),),
            np.asarray([2, 4], dtype=np.int64),
            (np.asarray([99, 40], dtype=VALUE_DTYPE),),
        )
        assert keys.tolist() == [1, 2, 3, 4]
        assert values.tolist() == [10, 99, 30, 40]

    def test_disjoint_default_still_rejects_overlap(self):
        a = (np.asarray([1, 5], dtype=np.int64),
             np.asarray([0, 0], dtype=VALUE_DTYPE))
        b = (np.asarray([5, 9], dtype=np.int64),
             np.asarray([0, 0], dtype=VALUE_DTYPE))
        with pytest.raises(ConfigError):
            concat_sorted_runs([a, b])
        keys, _ = merge_last_wins(a[0], (a[1],), b[0], (b[1],))
        assert keys.tolist() == [1, 5, 9]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(runs=st.lists(run_strategy, max_size=6))
    def test_matches_dict_model(self, runs):
        """Folding runs one by one overwrites earlier ones exactly like
        dict.update — with empty runs, full overlaps, and disjoint runs
        all mixed in."""
        keys = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=VALUE_DTYPE)
        model = {}
        for entries in runs:
            rk, rv = as_arrays(entries)
            keys, (values,) = merge_last_wins(keys, (values,), rk, (rv,))
            model.update(entries)
        assert keys.tolist() == sorted(model)
        assert values.tolist() == [model[k] for k in sorted(model)]
        assert keys.dtype == np.int64 and values.dtype == VALUE_DTYPE


# --------------------------------------------------------------------------
# DeltaView overlays
# --------------------------------------------------------------------------

entries_strategy = st.dictionaries(
    st.integers(0, 50),
    st.tuples(st.integers(-100, 100), st.booleans()),
    max_size=10,
)


def model_of(base, runs):
    """Visible state as a dict: base overlaid by runs oldest→newest."""
    model = dict(base)
    for entries in runs:
        for k, (v, tomb) in entries.items():
            if tomb:
                model.pop(k, None)
            else:
                model[k] = v
    return model


class TestDeltaView:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        base=st.dictionaries(st.integers(0, 50), st.integers(-100, 100),
                             max_size=20),
        runs=st.lists(entries_strategy, min_size=1, max_size=5),
        probes=st.lists(st.integers(0, 60), max_size=20),
    )
    def test_overlays_match_model(self, base, runs, probes):
        view = view_of(runs)
        model = model_of(base, runs)
        q = np.asarray(probes, dtype=np.int64)

        # overlay_values: start from base lookups; the newest run touching
        # a key decides it, keys no run touched keep their base answer.
        out = np.asarray(
            [base.get(k, NOT_FOUND) for k in probes], dtype=VALUE_DTYPE
        )
        view.overlay_values(q, out)
        assert out.tolist() == [model.get(k, NOT_FOUND) for k in probes]

        exists = np.asarray([k in base for k in probes], dtype=bool)
        view.overlay_exists(q, exists)
        assert exists.tolist() == [k in model for k in probes]

        for k in probes:
            hit = view.lookup(k)
            touched = any(k in r for r in runs)
            if not touched:
                assert hit is None
            else:
                tomb, value = hit
                # Newest run touching k decides: tombstoned keys are
                # absent from the merged state regardless of base.
                assert tomb == (k not in model_of({k: 123}, runs))
                if not tomb:
                    assert value == model[k]

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        base=st.dictionaries(st.integers(0, 50), st.integers(-100, 100),
                             max_size=20),
        runs=st.lists(entries_strategy, min_size=1, max_size=5),
        lo=st.integers(0, 55),
        span=st.integers(0, 30),
    )
    def test_merge_items_and_range(self, base, runs, lo, span):
        view = view_of(runs)
        model = model_of(base, runs)
        bk = np.asarray(sorted(base), dtype=np.int64)
        bv = np.asarray([base[k] for k in sorted(base)], dtype=VALUE_DTYPE)

        keys, values = view.merge_items(bk, bv)
        assert keys.tolist() == sorted(model)
        assert values.tolist() == [model[k] for k in sorted(model)]

        # One batch: the window [lo, hi], the same window again, and an
        # inverted row between them that must stay empty.
        hi = lo + span
        in_r = [k for k in sorted(model) if lo <= k <= hi]
        los = np.asarray([lo, hi + 1, lo], dtype=np.int64)
        his = np.asarray([hi, lo, hi], dtype=np.int64)
        source = Snapshot.from_sorted(bk, bv) if bk.size else None
        merged = range_search_batch(source, los, his, delta=view.run)
        assert len(merged) == 3 and merged[1][0].size == 0
        for rkeys, rvalues in (merged[0], merged[2]):
            assert rkeys.tolist() == in_r
            assert rvalues.tolist() == [model[k] for k in in_r]

    def test_tombstone_value_equal_to_sentinel_reads_absent(self):
        # A *stored* value equal to NOT_FOUND must read back as NOT_FOUND
        # via overlay (indistinguishable in the array API), but existence
        # must still say present — the reason contains_batch exists.
        run = DeltaRun(
            keys=np.asarray([7], dtype=np.int64),
            values=np.asarray([NOT_FOUND], dtype=VALUE_DTYPE),
            tombstones=np.asarray([False]),
            net=1,
        )
        view = DeltaView(run)
        exists = np.asarray([False])
        view.overlay_exists(np.asarray([7], dtype=np.int64), exists)
        assert exists[0]


def model_entries(runs):
    """Visible delta entries (not the base) after ``runs``: last wins."""
    model = {}
    for entries in runs:
        model.update(entries)
    return model


class TestDeltaIndex:
    @pytest.mark.parametrize("drain_threshold", [1, 4, 10 ** 9])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(runs=st.lists(entries_strategy, max_size=8),
           hold=st.integers(1, 3))
    def test_fold_while_drain_in_flight(self, drain_threshold, runs, hold):
        """The epoch manager's schedule, replayed on the index: a publish
        that leaves ``size >= drain_threshold`` pins a drain, which stays
        in flight for ``hold`` more publishes.  The visible set is always
        every undrained run folded last-wins; finishing the drain leaves
        exactly the runs published since the pin."""
        idx = DeltaIndex()
        undrained = []  # runs (dicts) the visible set must hold
        since = None  # runs published after the pin, None: no drain
        pending = 0
        for entries in runs:
            publish(idx, make_run(entries))
            if entries:
                undrained.append(entries)
                if since is not None:
                    since.append(entries)
                    pending -= 1
            assert entries_of(idx._visible) == model_entries(undrained)
            assert idx.n_runs == len(undrained)
            if since is not None and pending <= 0:
                idx.finish_drain()
                undrained, since = since, None
            elif since is None and idx.size >= drain_threshold:
                pinned = idx.pin_drain()
                assert entries_of(pinned) == model_entries(undrained)
                since, pending = [], hold
            if since is not None:
                assert entries_of(idx._since) == model_entries(since)
            view = idx.view()
            if undrained:
                assert entries_of(view.run) == model_entries(undrained)
            else:
                assert view is None

    def test_finish_drain_keeps_runs_since_pin(self):
        idx = DeltaIndex()
        for i in range(3):
            publish(idx, make_run({i: (i, False)}, net=1))
        pinned = idx.pin_drain()
        assert pinned.keys.tolist() == [0, 1, 2]
        publish(idx, make_run({3: (3, False)}, net=1))
        # In flight: readers see everything, the drain folds the pin.
        assert idx.size == 4 and idx.view().net == 4 and idx.n_runs == 4
        assert pinned.keys.tolist() == [0, 1, 2]
        idx.finish_drain()
        assert idx.n_runs == 1 and idx.view().net == 1
        assert idx.view().run.keys.tolist() == [3]

    def test_abort_drain_keeps_everything(self):
        idx = DeltaIndex()
        publish(idx, make_run({1: (1, False)}, net=1))
        idx.pin_drain()
        publish(idx, make_run({2: (2, False)}, net=1))
        idx.abort_drain()
        assert idx._since is None
        assert idx.view().run.keys.tolist() == [1, 2]
        assert idx.n_runs == 2 and idx.view().net == 2

    @pytest.mark.parametrize("moves", [
        ["pin"], ["finish"], ["finish", "pin"], ["finish", "pin", "finish"],
    ])
    def test_publish_redoes_what_a_drain_moved(self, moves):
        """A fold computed outside the lock, then drain steps, then the
        publish: the published state equals folding the run into the
        state the drain left."""
        idx = DeltaIndex()
        publish(idx, make_run({1: (1, False), 2: (2, False)}))
        if moves[0] == "finish":  # a drain is in flight at fold time
            idx.pin_drain()
            publish(idx, make_run({2: (20, False), 3: (3, False)}))
        run = make_run({3: (30, True), 4: (4, False)})
        fold = idx.fold(run)
        for move in moves:
            if move == "pin":
                idx.pin_drain()
            else:
                idx.finish_drain()
        # The state the drain left, with the run folded in by hand.
        want_visible = fold_run(idx._visible, run)
        want_since = None if idx._since is None else fold_run(idx._since,
                                                              run)
        idx.publish(fold)
        assert entries_of(idx._visible) == entries_of(want_visible)
        if want_since is None:
            assert idx._since is None
        else:
            assert entries_of(idx._since) == entries_of(want_since)
        assert entries_of(idx.view().run) == entries_of(want_visible)

    def test_empty_view_is_none(self):
        idx = DeltaIndex()
        assert idx.view() is None
        publish(idx, make_run({}))  # empty run is dropped
        assert idx.view() is None and idx.n_runs == 0


# --------------------------------------------------------------------------
# resolve_batch vs the scalar replay model
# --------------------------------------------------------------------------

op_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(0, 40),
    st.integers(-50, 50),
)


class TestResolveBatch:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        visible=st.dictionaries(st.integers(0, 40), st.integers(-50, 50),
                                max_size=15),
        raw_ops=st.lists(op_strategy, max_size=60),
    )
    def test_matches_scalar_replay(self, visible, raw_ops):
        ops = [Operation(kind, key, val) for kind, key, val in raw_ops]

        def exists_fn(ukeys):
            return np.asarray([k in visible for k in ukeys.tolist()])

        run, result = resolve_batch(ops, exists_fn)

        # Scalar reference: replay against a dict of the visible state.
        state = dict(visible)
        ins = upd = dele = fail = 0
        for op in ops:
            if op.kind == "insert":
                if op.key in state:
                    fail += 1
                else:
                    state[op.key] = op.value
                    ins += 1
            elif op.kind == "update":
                if op.key in state:
                    state[op.key] = op.value
                    upd += 1
                else:
                    fail += 1
            else:
                if op.key in state:
                    del state[op.key]
                    dele += 1
                else:
                    fail += 1
        assert (result.inserted, result.updated,
                result.deleted, result.failed) == (ins, upd, dele, fail)
        # Structural counters defer to the drain.
        assert result.split_leaves == 0 and result.underflow_leaves == 0

        # The run is the batch's net effect on its touched keys.
        assert np.all(run.keys[1:] > run.keys[:-1]) if run.n > 1 else True
        for k, v, tomb in zip(run.keys.tolist(), run.values.tolist(),
                              run.tombstones.tolist()):
            if tomb:
                assert k in visible and k not in state
            else:
                assert state[k] == v
        # Untouched-by-the-run keys are unchanged vs visible.
        touched = set(run.keys.tolist())
        for k in set(visible) | set(state):
            if k not in touched:
                assert visible.get(k) == state.get(k)
        assert run.net == len(state) - len(visible)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        visible=st.dictionaries(st.integers(0, 5), st.integers(-9, 9),
                                max_size=6),
        raw_ops=st.lists(st.tuples(st.sampled_from(["insert", "update",
                                                    "delete"]),
                                   st.integers(0, 5), st.integers(-9, 9)),
                         max_size=80),
    )
    def test_repeated_keys_match_per_op_replay(self, visible, raw_ops):
        """Batches where almost every key repeats: each op's outcome
        equals a per-op dict replay's, the run holds each touched key's
        end state, and a tombstone carries 0."""
        ops = [Operation(kind, key, val) for kind, key, val in raw_ops]
        run, result = resolve_batch(
            ops, lambda u: np.asarray([k in visible for k in u.tolist()],
                                      dtype=bool))
        state = dict(visible)
        ok = {"insert": 0, "update": 0, "delete": 0}
        for op in ops:
            present = op.key in state
            if (op.kind == "insert") != present:
                ok[op.kind] += 1
                if op.kind == "delete":
                    del state[op.key]
                else:
                    state[op.key] = op.value
        assert (result.inserted, result.updated, result.deleted,
                result.failed) == (ok["insert"], ok["update"], ok["delete"],
                                   len(ops) - sum(ok.values()))
        got = dict(visible)
        for k, v, tomb in zip(run.keys.tolist(), run.values.tolist(),
                              run.tombstones.tolist()):
            if tomb:
                assert v == 0
                del got[k]
            else:
                got[k] = v
        assert got == state
        assert run.net == len(state) - len(visible)

    def test_empty_batch(self):
        run, result = resolve_batch([], lambda u: np.zeros(u.size, bool))
        assert run.n == 0 and result.n_effective == 0
