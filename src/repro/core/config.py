"""Configuration of the search pipeline."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.errors import ConfigError
from repro.obs.registry import TraceConfig
from repro.utils.validation import ensure_positive, ensure_power_of_two


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the Harmonia query pipeline (§4).

    * ``use_psa`` / ``psa_bits``: partially-sorted aggregation.  ``psa_bits``
      of ``None`` means Equation 2 picks the bit count from the tree size;
      an explicit integer overrides it (0 = no reordering even with PSA on —
      useful for ablation sweeps).
    * ``ntg``: thread-group width.  ``"model"`` runs the §4.2 static
      profiling selection, ``"fanout"`` forces the traditional width, an
      ``int`` forces a specific power-of-two width.
    * ``warp_size`` / ``keys_per_cacheline`` describe the device assumptions
      baked into Equations 2-4 (they must agree with the
      :class:`~repro.gpusim.device.DeviceSpec` used for simulation; the
      simulator cross-checks).
    * ``profile_sample``: static-profiling sample size (paper: ~1000).
    * ``trace``: per-call observability scope
      (:class:`~repro.obs.registry.TraceConfig`).  ``None`` (the default)
      inherits the ambient recorder — the no-op singleton unless inside
      ``with obs.recording():``; ``TraceConfig(registry=...)`` routes this
      config's search calls into a private registry;
      ``TraceConfig(enabled=False)`` opts them out of any ambient
      recording.  See docs/observability.md.
    """

    use_psa: bool = True
    psa_bits: Optional[int] = None
    ntg: Union[str, int] = "model"
    warp_size: int = 32
    keys_per_cacheline: int = 16
    profile_sample: int = 1000
    #: Levels considered by NTG profiling (None = all; paper: the last few).
    ntg_profile_levels: Optional[int] = 2
    #: Use the per-level ``ntg_degrees`` vector (harmonia.cuh's
    #: ``ntg_degree[depth]``) for the simulated kernel and the work
    #: model's capped scan windows.  ``False`` falls back to the single
    #: aggregate group size everywhere — the ablation baseline the
    #: hypothesis suite pins byte-identical results against.
    ntg_per_level: bool = True
    trace: Optional[TraceConfig] = None

    def __post_init__(self) -> None:
        if self.trace is not None and not isinstance(self.trace, TraceConfig):
            raise ConfigError(
                f"trace must be a TraceConfig or None, got "
                f"{type(self.trace).__name__}"
            )
        ensure_power_of_two("warp_size", self.warp_size)
        ensure_positive("keys_per_cacheline", self.keys_per_cacheline)
        ensure_positive("profile_sample", self.profile_sample)
        if self.psa_bits is not None and not 0 <= self.psa_bits <= 64:
            raise ConfigError(f"psa_bits must be in [0, 64], got {self.psa_bits}")
        if isinstance(self.ntg, str):
            if self.ntg not in ("model", "fanout"):
                raise ConfigError(f"ntg must be 'model', 'fanout' or an int power of two")
        else:
            ensure_power_of_two("ntg", self.ntg)
            if self.ntg > self.warp_size:
                raise ConfigError(
                    f"ntg={self.ntg} cannot exceed warp_size={self.warp_size}"
                )
        if self.ntg_profile_levels is not None:
            ensure_positive("ntg_profile_levels", self.ntg_profile_levels)

    # Convenience presets matching the paper's ablation (Figure 13).
    @classmethod
    def baseline_tree(cls) -> "SearchConfig":
        """Harmonia layout only: no PSA, traditional thread groups."""
        return cls(use_psa=False, ntg="fanout")

    @classmethod
    def tree_psa(cls) -> "SearchConfig":
        """Layout + PSA (Figure 13's third bar)."""
        return cls(use_psa=True, ntg="fanout")

    @classmethod
    def full(cls) -> "SearchConfig":
        """Layout + PSA + NTG — the complete Harmonia."""
        return cls(use_psa=True, ntg="model")

    def with_(self, **kwargs) -> "SearchConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)


__all__ = ["SearchConfig"]
