"""Regenerate the piecewise-polynomial table of the Maxwell moment.

The moment I(b) = integral_0^inf x^3 exp(-x^2) cos(2 b x) dx equals
1F1(2; 1/2; -b^2) / 2. Cell k = 0 .. CELLS*B covers b in
[(k - 1/2)/CELLS, (k + 1/2)/CELLS]. On it the table holds the
degree-DEGREE polynomial in the offset t = CELLS*b - k that interpolates I
at the DEGREE + 1 Chebyshev points of the cell. Every value is computed
with mpmath at 40 digits, and each coefficient is rounded to double once. Row p of the
(DEGREE + 1, CELLS*B + 1) array holds the coefficients of t^p, so that each
power is one contiguous array over the cells.

Usage, from the repository root::

    python tools/make_moment_table.py [output.npy]

The default output is ``src/ramseybias/moment_table.npy``. The result is
the same bit for bit on every run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

# cells per unit of b, polynomial degree and the end B of the table; the
# program reads the degree from the shape of the table and holds the other
# two as averaging.MOMENT_CELLS and MOMENT_B, which a test compares with
# these
CELLS = 512
DEGREE = 4
B = 12
DIGITS = 40
OUTPUT = (Path(__file__).resolve().parents[1] / "src" / "ramseybias"
          / "moment_table.npy")


def moment(b) -> mp.mpf:
    """I(b) at the working precision."""
    return mp.hyp1f1(2, mp.mpf(1) / 2, -mp.mpf(b) ** 2) / 2


def build_table() -> np.ndarray:
    """The (DEGREE + 1, CELLS*B + 1) coefficient table."""
    with mp.workdps(DIGITS):
        nodes = [mp.cos(mp.pi * (2 * j + 1) / (2 * DEGREE + 2)) / 2
                 for j in range(DEGREE + 1)]
        # coefficients = inverse Vandermonde matrix times the node values
        solve = mp.inverse(mp.matrix([[t ** p for p in range(DEGREE + 1)]
                                      for t in nodes])).tolist()
        table = np.empty((DEGREE + 1, CELLS * B + 1))
        for k in range(CELLS * B + 1):
            values = [moment((k + t) / CELLS) for t in nodes]
            table[:, k] = [float(mp.fdot(row, values)) for row in solve]
    return table


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else OUTPUT
    np.save(out, build_table())
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
