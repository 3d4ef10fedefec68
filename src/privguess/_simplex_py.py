"""Pure-NumPy simplex pivot kernel.

Reference implementation of the hot loop shared with the C extension
(``_simplex_c``). Both kernels run Bland's rule on a dense tableau and must
stay semantically identical:

* tableau layout: rows 0..m-1 are constraints, row m is the reduced-profit
  row of a maximization; the last column is the right-hand side;
* entering column: lowest index below ``n_enter`` with reduced profit
  above ``pivot_tol``;
* leaving row: minimum ratio among rows with pivot entry above ``pivot_tol``,
  exact ties broken by the lowest basic-variable index;
* after each pivot the entering column is set to an exact unit vector.

The driver (:mod:`privguess.lp`) owns everything else: standard-form
conversion, the two phases, and solution extraction; it calls :func:`pivot`
itself to drive artificial variables out of the basis between the phases.
"""

from __future__ import annotations

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_BUDGET = 2

BACKEND = "python"


def run_simplex(tableau: np.ndarray, basis: np.ndarray, n_enter: int,
                pivot_tol: float, max_iter: int) -> tuple[int, int]:
    """Pivot ``tableau`` in place until optimal, unbounded, or out of budget.

    Returns ``(status, iterations)``.
    """
    m = tableau.shape[0] - 1
    obj = tableau[m]
    it = 0
    while True:
        cand = np.nonzero(obj[:n_enter] > pivot_tol)[0]
        if cand.size == 0:
            return STATUS_OPTIMAL, it
        j = int(cand[0])

        col = tableau[:m, j]
        rows = np.nonzero(col > pivot_tol)[0]
        if rows.size == 0:
            return STATUS_UNBOUNDED, it
        ratios = tableau[rows, -1] / col[rows]
        tied = rows[ratios == ratios.min()]
        r = int(tied[np.argmin(basis[tied])])

        pivot(tableau, basis, r, j)
        it += 1
        if it >= max_iter:
            return STATUS_BUDGET, it


def pivot(tableau: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Make column ``j`` basic in row ``r``: one Gauss-Jordan step, in place."""
    tableau[r, :] /= tableau[r, j]
    tableau[r, j] = 1.0
    factors = tableau[:, j].copy()
    factors[r] = 0.0
    tableau -= np.outer(factors, tableau[r, :])
    tableau[:, j] = 0.0
    tableau[r, j] = 1.0
    basis[r] = j
