#!/usr/bin/env python3
"""Run the worst-case secrecy-rate sweeps (versus array size and adversary count).

Outputs out/sweep-m/sweep.csv and out/sweep-k/sweep.csv; columns are
sweep_value, configuration, secrecy_rate, seed, trial.  Plot the rate-vs-M
curves with e.g.

    plot 'out/sweep-m/sweep.csv' using 1:($2 eq "FDMA_OPT1" ? $3 : 1/0)
"""

import argparse
import sys
from pathlib import Path

from fdma.cli import main as fdma_main

# Every other key takes its RunConfig default (the stock scenario).
DEFAULT_CONFIG = "f0_hz = 30e9\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", help="config file (defaults to the stock scenario)")
    parser.add_argument("--out", default="out/sweeps")
    args = parser.parse_args()

    config = args.config
    if config is None:
        config = Path(args.out) / "stock.cfg"
        config.parent.mkdir(parents=True, exist_ok=True)
        Path(config).write_text(DEFAULT_CONFIG)
    for axis in ("sweep-m", "sweep-k"):
        print(f"running {axis} ...", flush=True)
        code = fdma_main(["--config", str(config), "--out", f"{args.out}/{axis}", axis])
        if code != 0:
            return code
    print(f"wrote sweeps under {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
