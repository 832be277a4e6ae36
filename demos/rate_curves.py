#!/usr/bin/env python3
"""Reproduce the headline E_max(beta) comparison curves.

Emits a gnuplot-ready long-format CSV (see docs/rate_curves.gp) for the four
truncated-normal algorithms and a few finite-register Boltzmann laws.  A
negative E_max certifies almost-sure convergence for every coefficient in
[1/2, 1]; lower is faster.

The full-resolution sweep takes a few minutes; pass --quick for a coarse
pass that finishes in seconds.
"""

import argparse

import numpy as np

from annealsolve import (
    BitRange,
    BoltzmannModel,
    SupportKind,
    preset,
    rate_curve,
    rate_points_to_csv,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="coarse grids, seconds not minutes")
    parser.add_argument("--out", default="rate_curves.csv")
    args = parser.parse_args()

    betas = np.linspace(0.5, 5.0, 10 if args.quick else 40)
    resolution = dict(a_steps=9, c_steps=33, gl_nodes=64) if args.quick else {}

    models = [preset(name) for name in ("a1", "a2", "a3", "a4")]
    models += [
        BoltzmannModel(SupportKind.POSITIVE, BitRange(0, 1)),       # 1 qubit
        BoltzmannModel(SupportKind.POSITIVE, BitRange(-2, 1)),      # 3 qubits
        BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-1, 1)),  # 3 qubits
    ]
    points = rate_curve(models, betas, **resolution)

    with open(args.out, "w") as handle:
        handle.write(rate_points_to_csv(points))
    print(f"wrote {len(points)} rows to {args.out}")

    print("\nE_max at the largest beta:")
    last = max(betas)
    for pt in points:
        if pt.beta == last:
            print(f"  {pt.model_id:38s} {pt.value:+.4f}")


if __name__ == "__main__":
    main()
