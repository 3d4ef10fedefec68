"""The two pivot kernels: parity, selection at import, and the committed C source."""

import re
from pathlib import Path

import numpy as np
import pytest

from privguess import LinearProgram, LpStatus, _simplex_py, solve_lp
from privguess import lp as lp_module
from test_lp import random_program

try:
    from privguess import _simplex_cy
except ImportError:
    _simplex_cy = None

SOURCE = Path(__file__).resolve().parent.parent / "src" / "privguess"

needs_compiled = pytest.mark.skipif(_simplex_cy is None, reason="compiled kernel not built")


@needs_compiled
class TestKernelParity:
    def test_identical_results_on_random_programs(self, monkeypatch):
        rng = np.random.default_rng(31337)
        agree_optimal = 0
        for _ in range(80):
            prog = random_program(rng)
            monkeypatch.setattr(lp_module, "run_simplex", _simplex_py.run_simplex)
            a = solve_lp(prog)
            monkeypatch.setattr(lp_module, "run_simplex", _simplex_cy.run_simplex)
            b = solve_lp(prog)
            assert a.status is b.status
            if a.status is LpStatus.OPTIMAL:
                assert a.value == pytest.approx(b.value, abs=1e-12)
                np.testing.assert_allclose(a.point, b.point, atol=1e-10)
                np.testing.assert_array_equal(a.duals, b.duals)
                assert a.iterations == b.iterations  # same pivot path
                agree_optimal += 1
        assert agree_optimal >= 40

    def test_identical_family_results(self, monkeypatch):
        # objective families over one set of constraints, with one extra
        # variable that no constraint bounds: a tie between rows 0 and 2, then
        # an unbounded row that ends the solve
        rng = np.random.default_rng(4711)
        optimal = unbounded = 0
        for _ in range(40):
            prog = random_program(rng)
            n = prog.n_vars
            rows = [np.append(rng.choice([-1.0, 0.0, 1.0], n), 0.0) for _ in range(2)]
            rows += [rows[0], np.eye(n + 1)[n], np.append(rng.uniform(-1.0, 1.0, n), 0.0)]
            for objectives in (rows[:3], rows):
                fam = LinearProgram(np.array(objectives), np.pad(prog.a_eq, ((0, 0), (0, 1))),
                                    prog.b_eq, np.pad(prog.a_ub, ((0, 0), (0, 1))), prog.b_ub)
                monkeypatch.setattr(lp_module, "run_simplex", _simplex_py.run_simplex)
                a = solve_lp(fam)
                monkeypatch.setattr(lp_module, "run_simplex", _simplex_cy.run_simplex)
                b = solve_lp(fam)
                assert (a.status, a.value, a.winner, a.iterations) == (b.status, b.value, b.winner, b.iterations)
                for x, y in ((a.point, b.point), (a.duals, b.duals)):
                    assert (x is None and y is None) or x.tobytes() == y.tobytes()
                optimal += a.status is LpStatus.OPTIMAL
                unbounded += a.status is LpStatus.UNBOUNDED and a.winner == 3
        assert optimal >= 15 and unbounded >= 15


def test_default_backend_prefers_compiled():
    import privguess
    assert privguess.KERNEL_BACKEND == ("python" if _simplex_cy is None else "compiled")


def test_committed_c_source_matches_pyx():
    # the generated C quotes each .pyx statement it compiles, marked with
    # "# <<<<<<<<<<<<<<"; an edit to the .pyx alone leaves the quote stale
    pyx = (SOURCE / "_simplex_cy.pyx").read_text().splitlines()
    c_source = (SOURCE / "_simplex_cy.c").read_text()
    blocks = re.findall(r'/\* "privguess/_simplex_cy\.pyx":(\d+)\n(.*?)\*/', c_source, re.S)
    assert blocks
    for lineno, body in blocks:
        marked = [line for line in body.splitlines() if line.endswith("# <<<<<<<<<<<<<<")]
        assert len(marked) == 1, f"block for line {lineno} has {len(marked)} marked lines"
        quoted = marked[0][len(" * "):-len("# <<<<<<<<<<<<<<")].rstrip()
        assert quoted == pyx[int(lineno) - 1].rstrip(), f"_simplex_cy.c is stale at .pyx line {lineno}"
