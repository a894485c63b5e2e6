"""Stateful (model-based) property testing of HarmoniaTree.

Hypothesis drives arbitrary interleavings of batched inserts, updates,
deletes, point and range queries against a plain-dict model; after every
batch the full §3.1 invariant checker runs.  This is the strongest single
test in the repository: any divergence between the array machinery
(in-place edits, auxiliary nodes, movement re-chunking) and B+tree
semantics shows up as a minimal failing operation sequence.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.constants import NOT_FOUND
from repro.core import HarmoniaTree
from repro.core.update import Operation

KEYS = st.integers(min_value=0, max_value=500)
VALUES = st.integers(min_value=-(1 << 40), max_value=1 << 40)


class HarmoniaMachine(RuleBasedStateMachine):
    @initialize(
        base=st.sets(KEYS, min_size=1, max_size=60),
        fanout=st.sampled_from([4, 8, 16]),
        fill=st.sampled_from([0.6, 1.0]),
    )
    def build(self, base, fanout, fill):
        keys = np.array(sorted(base), dtype=np.int64)
        self.tree = HarmoniaTree.from_sorted(keys, fanout=fanout, fill=fill)
        self.model = {int(k): int(k) for k in keys}
        self.pending = []

    # ------------------------------------------------------------- mutation

    @rule(key=KEYS, value=VALUES)
    def stage_insert(self, key, value):
        self.pending.append(Operation("insert", key, value))

    @rule(key=KEYS, value=VALUES)
    def stage_update(self, key, value):
        self.pending.append(Operation("update", key, value))

    @rule(key=KEYS)
    def stage_delete(self, key):
        self.pending.append(Operation("delete", key))

    @rule()
    def flush_batch(self):
        if not self.pending:
            return
        ops, self.pending = self.pending, []
        res = self.tree.apply_batch(ops)
        # Replay sequentially on the model (single-threaded batch applies
        # in submission order).
        effective = 0
        for op in ops:
            if op.kind == "insert":
                if op.key not in self.model:
                    self.model[op.key] = op.value
                    effective += 1
            elif op.kind == "update":
                if op.key in self.model:
                    self.model[op.key] = op.value
                    effective += 1
            else:
                if self.model.pop(op.key, None) is not None:
                    effective += 1
        assert res.n_effective == effective
        assert res.failed == len(ops) - effective

    # --------------------------------------------------------------- checks

    @rule(key=KEYS)
    def point_query(self, key):
        # Pending (unflushed) ops are invisible to both tree and model —
        # phase semantics keep them aligned at all times.
        assert self.tree.search(key) == self.model.get(key)

    @rule(lo=KEYS, hi=KEYS)
    def range_query(self, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        k, v = self.tree.range_search(lo, hi)
        expect = sorted(
            (kk, vv) for kk, vv in self.model.items() if lo <= kk <= hi
        )
        assert k.tolist() == [kk for kk, _ in expect]
        assert v.tolist() == [vv for _, vv in expect]

    @rule()
    def batch_query_everything(self):
        if not self.model:
            return
        items = sorted(self.model.items())
        probes = np.array([k for k, _ in items], dtype=np.int64)
        got = self.tree.search_batch(probes)
        assert got.tolist() == [v for _, v in items]

    @invariant()
    def structure_is_sound(self):
        if hasattr(self, "tree"):
            self.tree.check_invariants()
            assert len(self.tree) == len(self.model)


HarmoniaMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestHarmoniaMachine = HarmoniaMachine.TestCase
