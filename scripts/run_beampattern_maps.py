#!/usr/bin/env python3
"""Raster the normalized beampattern for every transmitter configuration.

Produces one out/<kind>/raster.csv per configuration (plus design and
manifest), ready for any heatmap plotter, e.g. with gnuplot:

    plot 'out/CPA/raster.csv' using 1:2:3 with image
"""

import argparse
import sys
from pathlib import Path

from fdma.cli import main as fdma_main

KINDS = ("CPA", "LINEAR_FDA", "FDMA_OPT1", "FDMA_OPT2")

# Every other key takes its RunConfig default (the stock scenario).
DEFAULT_CONFIG = "f0_hz = 30e9\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="config file (defaults to the stock scenario)")
    parser.add_argument("--out", default="out/beampatterns")
    args = parser.parse_args()

    config = args.config
    if config is None:
        config = Path(args.out) / "stock.cfg"
        config.parent.mkdir(parents=True, exist_ok=True)
        Path(config).write_text(DEFAULT_CONFIG)
    for kind in KINDS:
        print(f"rastering {kind} ...", flush=True)
        code = fdma_main(["--config", str(config), "--out", f"{args.out}/{kind}",
                          "--kind", kind, "beampattern"])
        if code != 0:
            return code
    print(f"wrote rasters under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
