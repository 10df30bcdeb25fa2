#!/usr/bin/env python3
"""Reproduce the lattice index table: domain walls between anisotropic tails.

Builds the three canonical tail configurations with a linear ramp in the
middle, counts the kernel and cokernel with transfer matrices at two
halfwidths (the counts do not depend on it), and prints the table together
with the two tail margins min ||lambda| - 1|.
"""

import time

import numpy as np

from chiralwalk.onedim import build_line, fredholm_index
from chiralwalk.walk import LineWalkSpec, SphereCoeff

RAMP = 5
HALFWIDTHS = (300, 600)
CONFIGS = [(0.9, 0.3), (0.3, 0.9), (0.9, 0.9)]


def coeff(a):
    return SphereCoeff.make(a, np.sqrt(1.0 - a * a))


def wall(a_left, a_right):
    middle = []
    for n in range(-RAMP, RAMP + 1):
        t = (n + RAMP) / (2 * RAMP)
        middle.append((n, coeff(a_left + t * (a_right - a_left))))
    return LineWalkSpec.make(coeff(a_left), coeff(a_right), middle)


def main():
    print(f"{'tails':>12} {'N':>5} {'index':>6} {'kernel':>7} {'cokernel':>9} "
          f"{'margins':>13} {'seconds':>8}")
    for a_left, a_right in CONFIGS:
        spec = wall(a_left, a_right)
        for halfwidth in HALFWIDTHS:
            start = time.monotonic()
            result = fredholm_index(build_line(spec, halfwidth), tol=1e-8)
            elapsed = time.monotonic() - start
            left, right = result.tail_margins
            print(f"({a_left:.1f}, {a_right:.1f}) {halfwidth:>5} {result.index:>6} "
                  f"{result.kernel_kept:>7} {result.cokernel_kept:>9} "
                  f"{left:>6.3f} {right:>6.3f} {elapsed:>8.4f}")


if __name__ == "__main__":
    main()
