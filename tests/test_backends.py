"""The two pivot kernels: parity, selection at import, and input checks."""

import numpy as np
import pytest

from privguess import LinearProgram, LpStatus, VectorModel, _simplex_py, solve_lp
from privguess import lp as lp_module
from privguess.solver import _guess_lp
from test_lp import random_program

try:
    from privguess import _simplex_c
except ImportError:
    _simplex_c = None

needs_compiled = pytest.mark.skipif(_simplex_c is None, reason="compiled kernel not built")


@needs_compiled
class TestKernelParity:
    def test_identical_results_on_random_programs(self, monkeypatch):
        rng = np.random.default_rng(31337)
        agree_optimal = 0
        for _ in range(80):
            prog = random_program(rng)
            monkeypatch.setattr(lp_module, "run_simplex", _simplex_py.run_simplex)
            a = solve_lp(prog)
            monkeypatch.setattr(lp_module, "run_simplex", _simplex_c.run_simplex)
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
                monkeypatch.setattr(lp_module, "run_simplex", _simplex_c.run_simplex)
                b = solve_lp(fam)
                assert (a.status, a.value, a.winner, a.iterations) == (b.status, b.value, b.winner, b.iterations)
                for x, y in ((a.point, b.point), (a.duals, b.duals)):
                    assert (x is None and y is None) or x.tobytes() == y.tobytes()
                optimal += a.status is LpStatus.OPTIMAL
                unbounded += a.status is LpStatus.UNBOUNDED and a.winner == 3
        assert optimal >= 15 and unbounded >= 15


    def test_identical_walks(self, monkeypatch):
        # the walk pivots with NumPy on either kernel's final tableau: block
        # caps on either side of the threshold, and random programs, walked
        # through every kink to the end
        rng = np.random.default_rng(1618)
        cases = []
        for n in (1, 2, 3):
            model = VectorModel(n, p=0.6, alpha=0.2)
            size = 2 ** n
            for eps in (0.65, 0.7, 0.76, 0.79):
                prog = _guess_lp(model.block_joint().matrix, [tuple(range(size))], eps ** n, size)
                cases.append((prog, prog.a_ub.shape[0] - 1))
        for _ in range(40):
            prog = random_program(rng)
            cases.append((prog, int(rng.integers(prog.a_ub.shape[0]))))
        walked = 0
        for prog, row in cases:
            walks = []
            for kernel in (_simplex_py, _simplex_c):
                monkeypatch.setattr(lp_module, "run_simplex", kernel.run_simplex)
                sol = solve_lp(prog)
                walks.append(None if sol.status is not LpStatus.OPTIMAL
                             else list(lp_module.piece_starts(prog, sol, row)))
            a, b = walks
            if a is not None:
                assert [(s.rhs, s.value, s.slope, s.price_below) for s in a] == \
                    [(s.rhs, s.value, s.slope, s.price_below) for s in b]
                assert [s.point.tobytes() for s in a] == [s.point.tobytes() for s in b]
                walked += 1
            else:
                assert b is None
        assert walked >= 30


def test_default_backend_prefers_compiled():
    import privguess
    assert privguess.KERNEL_BACKEND == ("python" if _simplex_c is None else "compiled")


@needs_compiled
def test_kernel_rejects_malformed_buffers():
    # the kernel pivots twice on the well-formed inputs, so a malformed call
    # that got past the checks would change the tableau
    tableau = np.array([[1.0, 1.0, 2.0], [1.0, -1.0, 1.0], [1.0, 1.0, 0.0]])
    basis = np.array([0, 1], dtype=np.int64)
    cases = {
        "float32 tableau": (tableau.astype(np.float32), basis, 2),
        "Fortran-order tableau": (np.asfortranarray(tableau), basis, 2),
        "int32 basis": (tableau.copy(), basis.astype(np.int32), 2),
        "basis one row short": (tableau.copy(), basis[:1].copy(), 2),
        "n_enter past the last column": (tableau.copy(), basis, tableau.shape[1] + 1),
    }
    for name, (t, bas, n_enter) in cases.items():
        before = t.tobytes()
        with pytest.raises(ValueError):
            _simplex_c.run_simplex(t, bas, n_enter, 1e-10, 100)
        assert t.tobytes() == before, name
    assert _simplex_c.run_simplex(tableau, basis, 2, 1e-10, 100) == (0, 2)
