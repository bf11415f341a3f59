#!/usr/bin/env python3
"""Run the paper's experiments through the fdma CLI.

maps    rasters the normalized beampattern of every transmitter
        configuration: one <out>/<kind>/raster.csv each (plus design and
        manifest), ready for any heatmap plotter, e.g. with gnuplot:

            plot 'out/maps/CPA/raster.csv' using 1:2:3 with image

sweeps  runs the worst-case secrecy-rate sweeps versus array size and
        adversary count: <out>/sweep-m/sweep.csv and <out>/sweep-k/sweep.csv,
        with columns sweep_value, configuration, secrecy_rate, seed, trial.
        Plot the rate-vs-M curves with e.g.

            plot 'out/sweeps/sweep-m/sweep.csv' using 1:($2 eq "FDMA_OPT1" ? $3 : 1/0)

The commands run in order; the first that fails ends the run with its exit
code.
"""

import argparse
import sys
from pathlib import Path

from fdma.cli import main as fdma_main

# Each experiment's CLI runs: (output subdirectory, command arguments).
EXPERIMENTS = {
    "maps": [(kind, ["--kind", kind, "beampattern"])
             for kind in ("CPA", "LINEAR_FDA", "FDMA_OPT1", "FDMA_OPT2")],
    "sweeps": [(axis, [axis]) for axis in ("sweep-m", "sweep-k")],
}

# Every other key takes its RunConfig default (the stock scenario).
DEFAULT_CONFIG = "f0_hz = 30e9\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="config file (defaults to the stock scenario)")
    parser.add_argument("--out", help="output directory (defaults to out/<experiment>)")
    args = parser.parse_args(argv)

    out = Path(args.out or f"out/{args.experiment}")
    config = args.config
    if config is None:
        config = out / "stock.cfg"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(DEFAULT_CONFIG)
    for name, command in EXPERIMENTS[args.experiment]:
        print(f"running {name} ...", flush=True)
        code = fdma_main(["--config", str(config), "--out", str(out / name), *command])
        if code != 0:
            return code
    print(f"wrote {args.experiment} under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
