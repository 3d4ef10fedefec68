"""The package namespace: what each import loads, and the names it resolves on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import privguess
from privguess import lp, prob, solver, vector


def loaded_after(code: str) -> set[str]:
    """The ``privguess`` modules a fresh interpreter holds after running ``code``."""
    report = "import json, sys; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'privguess']))"
    package_root = str(Path(privguess.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=dict(os.environ, PYTHONPATH=pythonpath),
                         capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


class TestWhatAnImportLoads:
    def test_package_loads_only_its_errors(self):
        assert loaded_after("import privguess") == {"privguess", "privguess.errors"}

    def test_cli_adds_only_prob(self):
        # every privguess command and every benchmark worker starts this way
        assert loaded_after("import privguess, privguess.cli") == {
            "privguess", "privguess.errors", "privguess.prob", "privguess.cli"}

    def test_simulation_loads_no_lp(self):
        loaded = loaded_after("import privguess.mc")
        assert {"privguess.mc", "privguess.vector"} <= loaded
        assert not {"privguess.solver", "privguess.lp"} & loaded

    def test_kernel_backend_loads_no_layer(self):
        # perfbench's worker records it in every workload, the simulation's included
        assert loaded_after("import privguess; assert privguess.KERNEL_BACKEND == 'python'") == {
            "privguess", "privguess.errors"}

    def test_a_public_name_loads_its_module(self):
        loaded = loaded_after("import privguess; privguess.best_filter")
        assert {"privguess.solver", "privguess.lp"} <= loaded
        assert not {"privguess.bibo", "privguess.mc", "privguess.vector"} & loaded


class TestNamespace:
    def test_every_public_name_is_its_defining_modules(self):
        for name in privguess.__all__:
            if name == "__version__":
                continue
            value = getattr(privguess, name)
            assert value is getattr(sys.modules[value.__module__], name), name

    def test_dir_lists_every_public_name(self):
        assert set(privguess.__all__) <= set(dir(privguess))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from privguess import *", namespace)
        for name in privguess.__all__:
            assert namespace[name] is getattr(privguess, name), name

    def test_submodules_resolve(self):
        for name in ("bibo", "cli", "errors", "lp", "mc", "prob", "solver", "vector"):
            assert getattr(privguess, name) is importlib.import_module(f"privguess.{name}")

    @pytest.mark.parametrize("module", [privguess, vector])
    def test_unknown_attribute_names_the_module(self, module):
        with pytest.raises(AttributeError, match=rf"module '{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name  # noqa: B018

    def test_vector_lp_guess_max_is_the_solvers(self):
        # the benchmark's block probe and tracer look it up on vector
        assert vector.lp_guess_max is solver.lp_guess_max


def test_one_chain_of_tolerances():
    # prob defines every tolerance; the LP layer's still resolve where they were
    for module in (lp, solver, vector):
        assert module.FEAS_TOL is prob.FEAS_TOL
    assert lp.PIVOT_TOL is prob.PIVOT_TOL
