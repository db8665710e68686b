"""Variance-based sensitivity campaign over the default parameter space.

Writes the sampling design and the per-output index tables, then prints
each output's drivers ranked by total effect. Landscape-scale runs are
slow; start with a small base sample and scale up once timings are known.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from ablum import ExperimentConfig, load_config, run_sobol
from ablum.fileio import write_design_csv, write_indices_json, write_outputs_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=None,
                        help="base config (defaults to the built-in)")
    parser.add_argument("--n-base", type=int, default=64)
    parser.add_argument("--second-order", action="store_true")
    parser.add_argument("--replicates", type=int, default=1,
                        help="seeds averaged per design row")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", type=Path, default=Path("out/sensitivity"))
    args = parser.parse_args()

    config = (
        load_config(args.config) if args.config is not None else ExperimentConfig()
    )
    design, outputs, indices = run_sobol(
        config,
        n_base=args.n_base,
        second_order=args.second_order,
        replicates=args.replicates,
        threads=args.threads,
    )

    args.out.mkdir(parents=True, exist_ok=True)
    write_design_csv(args.out / "design.csv", design)
    write_outputs_csv(args.out / "outputs.csv", outputs)
    write_indices_json(args.out / "indices.json", indices)

    print(f"wrote {args.out}/design.csv, outputs.csv, indices.json "
          f"({outputs.shape[0]} runs)")
    for metric, idx in indices.items():
        order = np.argsort(idx.st)[::-1]
        ranked = "  ".join(
            f"{idx.names[i]}={idx.st[i]:.3f}" for i in order[:4]
        )
        print(f"{metric:8s} total effect: {ranked}")


if __name__ == "__main__":
    main()
