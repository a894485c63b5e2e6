"""Tests for SearchConfig validation and presets."""

import pytest

from repro.core.config import SearchConfig
from repro.errors import ConfigError


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.use_psa and cfg.ntg == "model"

    def test_presets(self):
        assert SearchConfig.baseline_tree().use_psa is False
        assert SearchConfig.baseline_tree().ntg == "fanout"
        assert SearchConfig.tree_psa().use_psa is True
        assert SearchConfig.tree_psa().ntg == "fanout"
        assert SearchConfig.full().ntg == "model"

    def test_with_updates_functionally(self):
        cfg = SearchConfig().with_(use_psa=False)
        assert not cfg.use_psa
        assert SearchConfig().use_psa  # original untouched

    def test_explicit_int_ntg(self):
        assert SearchConfig(ntg=4).ntg == 4

    @pytest.mark.parametrize("bad", [3, 64, 0])
    def test_bad_int_ntg(self, bad):
        with pytest.raises(ConfigError):
            SearchConfig(ntg=bad)

    def test_bad_string_ntg(self):
        with pytest.raises(ConfigError):
            SearchConfig(ntg="auto")

    def test_bad_warp_size(self):
        with pytest.raises(ConfigError):
            SearchConfig(warp_size=30)

    def test_bad_psa_bits(self):
        with pytest.raises(ConfigError):
            SearchConfig(psa_bits=70)

    def test_psa_bits_zero_ok(self):
        assert SearchConfig(psa_bits=0).psa_bits == 0

    def test_bad_profile_levels(self):
        with pytest.raises(ConfigError):
            SearchConfig(ntg_profile_levels=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            SearchConfig().use_psa = False

