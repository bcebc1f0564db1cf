#!/usr/bin/env python3
"""Reproduce the experiment set of one system into results/<system>/.

Writes the sample paths for alpha in {0, 1/2, 1} (one CSV, a column block per
alpha against one shared reference), the Casimir-evolution comparison against
Euler-Maruyama (and, for slv, implicit Euler-Maruyama), and the strong-order
table (with the spherical scheme for srb), then runs the check suite.  The
final times are each model's defaults.  Each CSV is also reproducible through
the CLI; this script just runs the whole set in one go.
"""
import argparse
import pathlib
import sys

from spoisson.cli import main as cli_main


def run(system: str, outdir: pathlib.Path, samples: int, seed: int, ref_factor: int) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    common = ["--system", system, "--seed", str(seed)]
    jobs = [
        # one reference path, one column block per alpha
        ["paths", *common, "--alpha", "0,0.5,1", "--ref-factor", str(ref_factor),
         "--output", str(outdir / "paths.csv")],
        ["casimir", *common, "--alpha", "0.5", "--output", str(outdir / "casimir.csv")],
        ["order", *common, "--samples", str(samples), *(["--spherical"] if system == "srb" else []),
         "--output", str(outdir / "order.csv")],
        ["check", *common],
    ]
    for job in jobs:
        print("spoisson", " ".join(job))
        code = cli_main(job)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--system", choices=["srb", "slv"], required=True)
    ap.add_argument("--outdir", help="default results/<system>")
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--ref-factor", type=int, default=1000,
                    help="paths reference refinement (smaller = faster)")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir or f"results/{args.system}")
    sys.exit(run(args.system, outdir, args.samples, args.seed, args.ref_factor))
