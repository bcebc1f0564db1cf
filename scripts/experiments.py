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


def given(flag: str, value) -> list[str]:
    """The flag and its value if the user gave one: the CLI owns the defaults."""
    return [] if value is None else [flag, str(value)]


def run(system: str, outdir: pathlib.Path, samples=None, seed=None, ref_factor=None) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    common = ["--system", system, *given("--seed", seed)]
    jobs = [
        # one reference path, one column block per alpha
        ["paths", *common, "--alpha", "0,0.5,1", *given("--ref-factor", ref_factor),
         "--output", str(outdir / "paths.csv")],
        ["casimir", *common, "--alpha", "0.5", "--output", str(outdir / "casimir.csv")],
        ["order", *common, *given("--samples", samples), *(["--spherical"] if system == "srb" else []),
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
    ap.add_argument("--samples", type=int, help="order sample count")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--ref-factor", type=int, help="paths reference refinement (smaller = faster)")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir or f"results/{args.system}")
    sys.exit(run(args.system, outdir, args.samples, args.seed, args.ref_factor))
