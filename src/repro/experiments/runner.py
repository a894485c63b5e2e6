"""CLI: regenerate the paper's figures.

    harmonia-experiments                      # all figures, default scale
    harmonia-experiments --scale smoke
    harmonia-experiments --only fig11,fig13
    harmonia-experiments --out results.md
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import Dict, List

EXPERIMENTS: Dict[str, str] = {
    "fig02": "repro.experiments.fig02_mem_transactions",
    "fig03": "repro.experiments.fig03_query_divergence",
    "fig08": "repro.experiments.fig08_psa_overhead",
    "fig10": "repro.experiments.fig10_node_usage",
    "fig11": "repro.experiments.fig11_throughput",
    "fig12": "repro.experiments.fig12_profile",
    "fig13": "repro.experiments.fig13_ablation",
    "fig14": "repro.experiments.fig14_update",
    "psa_bits": "repro.experiments.psa_bits",
    "ntg_model": "repro.experiments.ntg_model",
    # Extensions beyond the paper's figures (in-text claims / related-work
    # features made measurable — see DESIGN.md §5).
    "ext_range": "repro.experiments.ext_range",
    "ext_skew": "repro.experiments.ext_skew",
    "ext_devices": "repro.experiments.ext_devices",
    "ext_pipeline": "repro.experiments.ext_pipeline",
    "ext_baselines": "repro.experiments.ext_baselines",
    "ext_fanout": "repro.experiments.ext_fanout",
    "ext_mixed": "repro.experiments.ext_mixed",
    "ext_engine": "repro.experiments.ext_engine",
    "ext_join": "repro.experiments.ext_join",
}


def run_experiments(names: List[str], scale: str, seed: int) -> List[tuple]:
    """Run experiments by name; returns (name, result, shape_ok, seconds)."""
    out = []
    for name in names:
        module = importlib.import_module(EXPERIMENTS[name])
        t0 = time.perf_counter()
        result = module.run(scale=scale, seed=seed)
        elapsed = time.perf_counter() - t0
        ok = module.shape_ok(result)
        out.append((name, result, ok, elapsed))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the Harmonia paper's evaluation figures."
    )
    parser.add_argument(
        "--scale", default="default", choices=("smoke", "default", "paper"),
        help="experiment scale (paper = literal §5.1 sizes; slow)",
    )
    parser.add_argument(
        "--only", default=None,
        help=f"comma-separated subset of {','.join(EXPERIMENTS)}",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write a markdown report")
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS)
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiments: {unknown}")

    results = run_experiments(names, args.scale, args.seed)
    chunks = []
    all_ok = True
    for name, result, ok, elapsed in results:
        chunk = result.render()
        verdict = "SHAPE OK" if ok else "SHAPE MISMATCH"
        chunk += f"\n- verdict: **{verdict}** ({elapsed:.1f}s)\n"
        chunks.append(chunk)
        print(chunk)
        print()
        all_ok &= ok

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"# Harmonia figure reproduction (scale={args.scale})\n\n")
            fh.write("\n\n".join(chunks))
        print(f"report written to {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
