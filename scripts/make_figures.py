#!/usr/bin/env python3
"""Generate every figure CSV through the CLI.

Each figure id expands to one CSV per curve, written to --out-dir with
deterministic bytes. fig2 alone covers 9 full grid sweeps; the sweep points
run on one thread per core this process may use, so `taskset` limits them.
"""
import argparse
import sys

from ionrep.cli import main as cli_main
from ionrep.figures import FIGURES


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("figures", nargs="*", default=[],
                    metavar="FIG", help="figure ids (default: all)")
    ap.add_argument("--out-dir", default="figures")
    args = ap.parse_args()

    wanted = args.figures or sorted(FIGURES)
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        ap.error(f"unknown figure ids {unknown}; choose from {sorted(FIGURES)}")

    for fig_id in wanted:
        desc, curves = FIGURES[fig_id]
        print(f"{fig_id}: {desc} ({len(curves)} curves)", flush=True)
        rc = cli_main(["figure", fig_id, "--out-dir", args.out_dir])
        if rc != 0:
            print(f"{fig_id} failed with exit code {rc}", file=sys.stderr)
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
