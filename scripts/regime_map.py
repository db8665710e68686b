"""Print the settled regime map of an attitude by norm-weight sweep.

Reads the sweep.csv that `ablum sweep` writes and draws one glyph per grid
point from the final shares, averaged over the point's replicates:

    ablum sweep --config presets/regime_map.cfg --out out/regimes
    python scripts/regime_map.py out/regimes/sweep.csv

The regimes are attractors, so a balanced start misses some basins; sweep a
copy of the preset with another [init] mix to reach them (see README).
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

GLYPHS = (".", "o", "#")  # dominant class: conservation, medium, high
MIXED = "="
SHARES = ("final_share_c", "final_share_mi", "final_share_hi")


def classify(shares: list[float]) -> str:
    """Glyph of the dominant class of (conservation, medium, high) shares."""
    top = shares.index(max(shares))
    return GLYPHS[top] if shares[top] >= 0.45 else MIXED


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", type=Path, help="sweep.csv written by ablum sweep")
    args = parser.parse_args()
    try:
        with args.sweep.open(newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
    except OSError as exc:
        parser.error(f"cannot read {args.sweep}: {exc.strerror}")
    if not {"attitude_mean", "norm_weight_w", *SHARES} <= set(reader.fieldnames or ()):
        parser.error(f"{args.sweep} is not a sweep over attitude_mean and norm_weight_w")

    # average replicate rows per (w, a) grid point, then draw the plane
    by_point: dict[tuple[float, float], list[list[float]]] = {}
    for row in rows:
        point = (float(row["norm_weight_w"]), float(row["attitude_mean"]))
        by_point.setdefault(point, []).append([float(row[share]) for share in SHARES])
    print("rows: norm weight (1 at top), columns: attitude (-1 to 1)")
    print(f"glyphs: {GLYPHS[0]} conservation, {GLYPHS[1]} medium, "
          f"{GLYPHS[2]} high, {MIXED} mixed")
    for w in sorted({w for w, _ in by_point}, reverse=True):
        line = []
        for a in sorted({a for _, a in by_point}):
            cell = by_point[w, a]
            line.append(classify([sum(column) / len(cell) for column in zip(*cell)]))
        print(f"  w={w:5.2f}  " + " ".join(line))


if __name__ == "__main__":
    main()
