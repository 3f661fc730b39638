#!/usr/bin/env python3
"""Scan the (t3, t4) dynamic phase diagram at fixed t1 < t2 and export it
as CSV plus an SVG heatmap of max Im(E_OBC).

Equivalent to ``nhskin phase-diagram --preset fig3d`` but with the grid
exposed as flags for quick experiments at other resolutions.
"""

import argparse
from pathlib import Path

from nhskin import scan_phase_diagram
from nhskin.io import write_phase_diagram_csv, write_svg_heatmap


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/phase_diagram")
    ap.add_argument("--t1", type=float, default=1.0)
    ap.add_argument("--t2", type=float, default=2.0)
    ap.add_argument("--t-min", type=float, default=0.2)
    ap.add_argument("--t-max", type=float, default=6.0)
    ap.add_argument("--resolution", type=int, default=24)
    ap.add_argument("--n-cells", type=int, default=25)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    diagram = scan_phase_diagram(
        args.t1, args.t2,
        t3_range=(args.t_min, args.t_max), t4_range=(args.t_min, args.t_max),
        resolution=args.resolution, n_cells=args.n_cells)
    write_phase_diagram_csv(out / "phase_diagram.csv", diagram)
    write_svg_heatmap(out / "phase_diagram.svg", diagram.im_magnitude,
                      title="max |Im E_OBC| over (t3, t4)")

    counts = {}
    for lab in diagram.labels.ravel():
        counts[lab.label.value] = counts.get(lab.label.value, 0) + 1
    print(f"{diagram.labels.size} grid points: "
          + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
