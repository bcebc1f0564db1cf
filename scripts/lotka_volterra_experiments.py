#!/usr/bin/env python3
"""Reproduce the Lotka-Volterra experiment set into results/slv/.

Sample paths for alpha in {0, 1/2, 1} (one CSV against one shared reference),
the Casimir comparison against explicit and implicit Euler-Maruyama, and the
strong-order table.
"""
import argparse
import pathlib
import sys

from spoisson.cli import main as cli_main


def run(outdir: pathlib.Path, samples: int, seed: int, ref_factor: int) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    # one reference path, one column block per alpha
    jobs = [
        ["paths", "--system", "slv", "--alpha", "0,0.5,1", "--T", "10",
         "--seed", str(seed), "--ref-factor", str(ref_factor),
         "--output", str(outdir / "paths.csv")]
    ]
    jobs.append(
        ["casimir", "--system", "slv", "--alpha", "0.5", "--T", "10",
         "--seed", str(seed), "--output", str(outdir / "casimir.csv")]
    )
    jobs.append(
        ["order", "--system", "slv", "--T", "2", "--samples", str(samples),
         "--seed", str(seed), "--output", str(outdir / "order.csv")]
    )
    jobs.append(["check", "--system", "slv", "--seed", str(seed)])
    for job in jobs:
        print("spoisson", " ".join(job))
        code = cli_main(job)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results/slv")
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--ref-factor", type=int, default=1000,
                    help="paths reference refinement (smaller = faster)")
    args = ap.parse_args()
    sys.exit(run(pathlib.Path(args.outdir), args.samples, args.seed, args.ref_factor))
