"""Run the scheduled attitude ramp and report end-versus-start drift.

The schedule sweeps the landscape attitude up and back to its starting
value; the final land-use mix generally does not follow it back. Drift is
reported as the L1 distance between the final and initial share vectors.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

from ablum import load_config, run_single
from ablum.fileio import write_trajectory_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config", type=Path, default=Path("presets/attitude_ramp.cfg")
    )
    parser.add_argument("--out", type=Path, default=Path("out/attitude_cycle"))
    parser.add_argument(
        "--high-start",
        action="store_true",
        help="start from a high-intensity landscape (0.05/0.05/0.90)",
    )
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    config = load_config(args.config)
    if args.high_start:
        config = replace(config, share_c=0.05, share_mi=0.05, share_hi=0.90)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    config.validate()
    if config.schedule is None:
        parser.error(f"{args.config} has no [schedule] section")

    result = run_single(config)
    traj = result.trajectory

    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "trajectory.csv"
    write_trajectory_csv(csv_path, traj)

    drift = (
        abs(traj.share_c[-1] - traj.share_c[0])
        + abs(traj.share_mi[-1] - traj.share_mi[0])
        + abs(traj.share_hi[-1] - traj.share_hi[0])
    )
    attitude_returns = traj.scheduled_attitude[-1] == traj.scheduled_attitude[0]
    print(f"wrote {csv_path} ({traj.n_rows} ticks)")
    print(
        f"shares start -> end: "
        f"{traj.share_c[0]:.3f}/{traj.share_mi[0]:.3f}/{traj.share_hi[0]:.3f} -> "
        f"{traj.share_c[-1]:.3f}/{traj.share_mi[-1]:.3f}/{traj.share_hi[-1]:.3f}"
    )
    print(f"L1 drift {drift:.3f}; scheduled attitude returns: {attitude_returns}")


if __name__ == "__main__":
    main()
