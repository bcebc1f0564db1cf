#!/usr/bin/env python3
"""Reproduce the rigid-body experiment set into results/srb/.

Writes the sample paths for alpha in {0, 1/2, 1} (one CSV, a column block per
alpha against one shared reference), the Casimir-evolution comparison against
Euler-Maruyama, and the strong-order table with the spherical scheme. Each CSV is also reproducible through the CLI; this script just runs
the whole set in one go.
"""
import argparse
import pathlib
import sys

from spoisson.cli import main as cli_main


def run(outdir: pathlib.Path, samples: int, seed: int, ref_factor: int) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    # one reference path, one column block per alpha
    jobs = [
        ["paths", "--system", "srb", "--alpha", "0,0.5,1", "--T", "10",
         "--seed", str(seed), "--ref-factor", str(ref_factor),
         "--output", str(outdir / "paths.csv")]
    ]
    jobs.append(
        ["casimir", "--system", "srb", "--alpha", "0.5", "--T", "500",
         "--seed", str(seed), "--output", str(outdir / "casimir.csv")]
    )
    jobs.append(
        ["order", "--system", "srb", "--T", "10", "--samples", str(samples),
         "--seed", str(seed), "--spherical", "--output", str(outdir / "order.csv")]
    )
    jobs.append(["check", "--system", "srb", "--seed", str(seed)])
    for job in jobs:
        print("spoisson", " ".join(job))
        code = cli_main(job)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results/srb")
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--ref-factor", type=int, default=1000,
                    help="paths reference refinement (smaller = faster)")
    args = ap.parse_args()
    sys.exit(run(pathlib.Path(args.outdir), args.samples, args.seed, args.ref_factor))
