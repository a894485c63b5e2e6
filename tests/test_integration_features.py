"""Integration tests across the operational features: persistence,
epochs and the experiment registry composing into real workflows."""

from repro import (
    EpochManager,
    HarmoniaTree,
    Operation,
    load_tree,
    save_tree,
)
from repro.workloads.generators import make_key_set


class TestPersistenceThroughEpochs:
    def test_save_load_resume(self, tmp_path, rng):
        keys = make_key_set(3_000, rng=rng)
        em = EpochManager(HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7))
        em.submit_many([Operation("update", int(k), -9) for k in keys[:100]])
        em.flush()

        path = tmp_path / "snap.npz"
        save_tree(em.pin(), path)  # the visible state: base + delta
        resumed = EpochManager(load_tree(path, fill=0.7))
        assert resumed.search(int(keys[0])) == -9
        # The resumed service keeps evolving correctly.
        resumed.submit(Operation("insert", int(keys[-1]) + 7, 1))
        resumed.flush()
        assert resumed.search(int(keys[-1]) + 7) == 1
        resumed._tree.check_invariants()


class TestExperimentRegistry:
    def test_registry_matches_modules_on_disk(self):
        """Every experiment module on disk is registered and vice versa."""
        import pathlib

        from repro.experiments.runner import EXPERIMENTS

        exp_dir = (
            pathlib.Path(__file__).parent.parent
            / "src" / "repro" / "experiments"
        )
        on_disk = {
            p.stem for p in exp_dir.glob("*.py")
            if p.stem not in ("__init__", "common", "runner")
        }
        registered = {m.rsplit(".", 1)[1] for m in EXPERIMENTS.values()}
        assert registered == on_disk

    def test_every_experiment_has_contract(self):
        import importlib

        from repro.experiments.runner import EXPERIMENTS

        for module_name in EXPERIMENTS.values():
            mod = importlib.import_module(module_name)
            assert callable(mod.run)
            assert callable(mod.shape_ok)
