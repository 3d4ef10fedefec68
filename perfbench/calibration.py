"""Machine-speed probes: fixed pieces of NumPy work run between operations.

On a shared 2-vCPU machine (where the README's reference figures were
taken) the same code runs at speeds that differ by up to ~60 % over seconds
to minutes. Between every two operations the timed process runs its
workload's probe and times it. An operation's calibrated time is its wall time scaled
by the probe's reference time over the mean of the probes on either side of
it: the time it would have taken at the reference speed. The probes are the
benchmark's own code and never call the program, so a change to the program
moves calibrated times exactly as it moves wall times; only the machine's
drift divides out.

Two probes, because slow phases slow small-array code (interpreter-bound,
like the pivot kernel) more than large-array code:

* ``rows``: the dense row operations of a pivot on a 20 x 40 tableau, 200
  times (~2 ms). Over 2 s windows its time correlated 0.95 with a fixed 4x4
  ``best_filter`` call, and scaling cut the windows' spread from 12.6 % to
  3.7 %.
* ``arrays``: a 160 x 160 product and a 100,000-point ``searchsorted`` (~10
  ms). Over 2 s windows it correlated 0.91 with a fixed n = 8 simulate
  operation and cut the spread from 8.2 % to 3.7 %, where the ``rows``
  probe made it worse (10.4 %).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: each probe's time taken as the reference speed (typical quiet-phase times
#: where this benchmark was written: 2 vCPUs, NumPy 2.4, one BLAS thread)
REFERENCE_S = {"rows": 2.2e-3, "arrays": 10e-3}

#: the probe each workload is scaled by
PROBE_OF = {"frontier": "rows", "curve": "rows", "block": "rows", "simulate": "arrays"}

_ROWS, _COLS, _PIVOTS, _WARMUP = 20, 40, 200, 20
_TABLEAU = np.random.default_rng(0).random((_ROWS, _COLS)) + 0.5
_SQUARE = np.random.default_rng(1).random((160, 160))
_POINTS = np.random.default_rng(2).random(100_000)
_GRID = np.cumsum(np.random.default_rng(3).random(4096))


def _pivots(count: int) -> None:
    t = _TABLEAU
    for k in range(count):
        r, c = k % _ROWS, (7 * k) % _COLS
        col = t[:, c]
        rows = np.nonzero(col > 0.6)[0]
        ratios = t[rows, -1] / col[rows]
        rows[np.argmin(ratios)]
        row = t[r] / t[r, c]
        t - np.outer(col, row)


def _arrays() -> None:
    _SQUARE @ _SQUARE
    np.searchsorted(_GRID, _POINTS * _GRID[-1])


def probe(kind: str) -> float:
    """Seconds taken by one run of the named probe."""
    if kind == "rows":
        _pivots(_WARMUP)  # untimed: brings the tableau back into cache after a large operation
        start = perf_counter()
        _pivots(_PIVOTS)
    else:
        start = perf_counter()
        _arrays()
    return perf_counter() - start
