#!/usr/bin/env python3
"""Solver convergence sweep on the analytic Gaussian velocity field.

For x_data ~ N(0, s_d^2 I) the marginal velocity field is linear in x
and the ODE has the closed-form solution x(t) = x(0) * sqrt(t^2 s_d^2 +
(1-t)^2), so the table below shows true global errors, not
self-convergence. Orders are log2 error ratios between successive N.
"""

import argparse

import numpy as np

from ddtlab.samplers import SOLVER_ORDERS, adams_sample, make_timegrid


def field_for(data_std: float):
    s2 = data_std ** 2

    def field(x, t):
        return ((t * s2 - (1.0 - t)) / (t * t * s2 + (1.0 - t) ** 2)) * x

    return field


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data-std", type=float, default=2.0)
    ap.add_argument("--shifts", type=float, nargs="+", default=[1.0, 2.0])
    ap.add_argument("--steps", type=int, nargs="+",
                    default=[25, 50, 100, 200, 400])
    args = ap.parse_args()

    field = field_for(args.data_std)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(16, 4))
    exact = x0 * np.sqrt(args.data_std ** 2)

    for shift in args.shifts:
        print(f"\nshift s = {shift}")
        header = "  solver  " + "".join(f"{n:>12d}" for n in args.steps) + "   orders"
        print(header)
        # order 1 is Euler bit for bit
        for name, order in SOLVER_ORDERS.items():
            errs = []
            for n in args.steps:
                out = adams_sample(field, x0, make_timegrid(n, shift=shift), order=order)
                errs.append(float(np.abs(out - exact).max()))
            orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
            row = f"  {name:<8}" + "".join(f"{e:12.3e}" for e in errs)
            row += "   " + " ".join(f"{o:.2f}" for o in orders)
            print(row)


if __name__ == "__main__":
    main()
