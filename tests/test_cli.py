"""Command-line interface: outputs, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import privguess
from privguess import solver
from privguess.cli import main

FIG3 = {"joint": [[0.32, 0.08], [0.12, 0.48]]}


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(FIG3))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPc:
    def test_fig3(self, capsys, fig3_file):
        code, out, _ = run_cli(capsys, ["pc", "--joint", fig3_file])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"pc_x": 0.6, "pc_y": 0.56, "pc_x_given_y": 0.8, "pc_y_given_x": 0.8}

    def test_uniform_product(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"joint": [[0.25, 0.25], [0.25, 0.25]]}))
        code, out, _ = run_cli(capsys, ["pc", "--joint", str(path)])
        assert code == 0
        assert json.loads(out) == {"pc_x": 0.5, "pc_y": 0.5, "pc_x_given_y": 0.5,
                                   "pc_y_given_x": 0.5}

    def test_degenerate_single_cell(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"joint": [[1.0]]}))
        code, out, _ = run_cli(capsys, ["pc", "--joint", str(path)])
        assert code == 0
        assert all(v == 1.0 for v in json.loads(out).values())

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["pc", "--joint", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["pc", "--joint", str(path)])
        assert code == 2

    def test_invariant_violation_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"joint": [[1.2, -0.2], [0.0, 0.0]]}))
        code, _, err = run_cli(capsys, ["pc", "--joint", str(path)])
        assert code == 3
        assert "negative" in err

    def test_bad_mass_names_invariant(self, capsys, tmp_path):
        path = tmp_path / "mass.json"
        path.write_text(json.dumps({"joint": [[0.5, 0.4]]}))
        code, _, err = run_cli(capsys, ["pc", "--joint", str(path)])
        assert code == 3
        assert "mass" in err

    def test_deterministic_output(self, capsys, fig3_file):
        _, first, _ = run_cli(capsys, ["pc", "--joint", fig3_file])
        _, second, _ = run_cli(capsys, ["pc", "--joint", fig3_file])
        assert first == second


def parse_curve(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("{")]
    report = next((json.loads(ln) for ln in lines[1:] if ln.startswith("{")), None)
    return header, rows, report


class TestHcurve:
    def test_fig3_line(self, capsys, fig3_file):
        code, out, _ = run_cli(capsys, ["hcurve", "--joint", fig3_file,
                                        "--points", "21", "--breakpoints"])
        assert code == 0
        header, rows, report = parse_curve(out)
        assert header == ["epsilon", "h", "branch", "filter_gamma"]
        assert len(rows) == 21
        eps = np.array([float(r[0]) for r in rows])
        h = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(h, 1.4 * eps - 0.12, atol=1e-7)
        assert np.all(np.diff(eps) > 0)
        assert all(r[2] == "z" for r in rows)
        assert report["K"] == 1
        assert report["breakpoints"] == [0.6, 0.8]
        assert report["slopes"] == [pytest.approx(1.4, abs=1e-4)]

    def test_identity_pair_curve(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps({"joint": [[0.5, 0.0], [0.0, 0.5]]}))
        code, out, _ = run_cli(capsys, ["hcurve", "--joint", str(path), "--points", "11"])
        assert code == 0
        _, rows, _ = parse_curve(out)
        for r in rows:
            assert float(r[1]) == pytest.approx(float(r[0]), abs=1e-9)

    def test_round_trip(self, capsys, tmp_path):
        # every grid value read off the traced curve is the frontier's own solve
        from test_solver import MULTI_PIECE, seeded_trial

        from privguess import JointDistribution, best_filter
        for name, p in (("fig3", np.array(FIG3["joint"])),
                        ("multi", MULTI_PIECE / MULTI_PIECE.sum()),
                        ("trial71", seeded_trial(71)), ("trial105", seeded_trial(105))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"joint": p.tolist()}))
            code, out, _ = run_cli(capsys, ["hcurve", "--joint", str(path), "--points", "9"])
            assert code == 0
            _, rows, _ = parse_curve(out)
            joint = JointDistribution(p)
            for r in rows:
                again = best_filter(joint, float(r[0])).utility
                assert abs(again - float(r[1])) <= 1e-9, (name, r)

    def test_eps_max_above_domain_reads_one(self, capsys, fig3_file):
        code, out, _ = run_cli(capsys, ["hcurve", "--joint", fig3_file,
                                        "--eps-max", "0.9", "--points", "21"])
        assert code == 0
        _, rows, _ = parse_curve(out)
        above = [r for r in rows if float(r[0]) >= 0.8]
        assert len(above) == 7
        assert all(float(r[1]) == 1.0 and r[3] == "0" for r in above)

    def test_independent_joint(self, capsys, tmp_path):
        path = tmp_path / "indep.json"
        path.write_text(json.dumps({"joint": [[0.3, 0.2], [0.3, 0.2]]}))
        code, out, _ = run_cli(capsys, ["hcurve", "--joint", str(path), "--points", "21",
                                        "--breakpoints"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1:-1] == ["0.5,1,lp,"] * 21
        assert json.loads(lines[-1]) == {"breakpoints": [0.5, 0.5], "slopes": [0.0], "K": 1}

    def test_eps_order_usage_error(self, capsys, fig3_file):
        code, _, err = run_cli(capsys, ["hcurve", "--joint", fig3_file,
                                        "--eps-min", "0.75", "--eps-max", "0.65"])
        assert code == 2

    def test_non_finite_eps_usage_error(self, capsys, fig3_file):
        for flag, value in (("--eps-min", "nan"), ("--eps-max", "inf")):
            code, out, err = run_cli(capsys, ["hcurve", "--joint", fig3_file, flag, value])
            assert (code, out) == (2, "")
            assert flag in err

    def test_capacity_error(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"joint": [[1.0 / 14] * 7] * 2}))
        code, _, err = run_cli(capsys, ["hcurve", "--joint", str(path)])
        assert code == 3

    @pytest.mark.parametrize("extra", [[], ["--breakpoints"]], ids=["grid", "breakpoints"])
    def test_one_lp_per_call(self, capsys, tmp_path, monkeypatch, extra):
        # the grid is read off the traced curve: one LP, and no frontier solve per point
        from test_solver import MULTI_PIECE
        path = tmp_path / "multi.json"
        path.write_text(json.dumps({"joint": (MULTI_PIECE / MULTI_PIECE.sum()).tolist()}))
        solves, points = [], []
        real_solve, real_point = solver.solve_lp, solver.best_filter

        def counted_solve(prog):
            solves.append(prog)
            return real_solve(prog)

        def counted_point(joint, eps):
            points.append(eps)
            return real_point(joint, eps)

        monkeypatch.setattr(solver, "solve_lp", counted_solve)
        monkeypatch.setattr(solver, "best_filter", counted_point)
        code, out, _ = run_cli(capsys, ["hcurve", "--joint", str(path), "--points", "21", *extra])
        assert code == 0
        _, rows, report = parse_curve(out)
        assert len(rows) == 21
        if extra:
            assert report["K"] >= 3
        assert len(solves) == 1
        assert points == []

    def test_non_binary_rows_tagged_lp(self, capsys, tmp_path):
        path = tmp_path / "j33.json"
        rng = np.random.default_rng(8)
        w = rng.random((3, 3))
        path.write_text(json.dumps({"joint": (w / w.sum()).tolist()}))
        code, out, _ = run_cli(capsys, ["hcurve", "--joint", str(path), "--points", "3"])
        assert code == 0
        _, rows, _ = parse_curve(out)
        assert all(r[2] == "lp" and r[3] == "" for r in rows)


class TestBibo:
    def test_with_eps(self, capsys):
        code, out, _ = run_cli(capsys, ["bibo", "--p", "0.6", "--alpha", "0.2",
                                        "--beta", "0.2", "--eps", "0.7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["h"] == 0.86
        assert doc["zeta"] == 0.25
        assert doc["branch"] == "z"
        assert doc["filter"] == [[1.0, 0.0], [0.25, 0.75]]
        assert doc["perfect_privacy_h"] == 0.72
        assert doc["nontrivial_utility"] is True

    def test_summary_without_eps(self, capsys):
        code, out, _ = run_cli(capsys, ["bibo", "--p", "0.6", "--alpha", "0.2",
                                        "--beta", "0.2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["perfect_privacy_h"] == 0.72
        assert doc["nontrivial_utility"] is True
        assert "h" not in doc

    def test_reverse_branch(self, capsys):
        code, out, _ = run_cli(capsys, ["bibo", "--p", "0.5", "--alpha", "0.2",
                                        "--beta", "0.1", "--eps", "0.71"])
        assert code == 0
        doc = json.loads(out)
        assert doc["h"] == 0.82
        assert doc["branch"] == "reverse-z"

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["bibo", "--p", "0.9", "--alpha", "0.45",
                                        "--beta", "0.45"])
        assert code == 3
        assert "advantage" in err

    def test_non_finite_eps_usage_error(self, capsys):
        # a malformed flag value, as in hcurve and vector, not a domain error
        for value in ("nan", "inf", "-inf"):
            code, out, err = run_cli(capsys, ["bibo", "--p", "0.6", "--alpha", "0.2",
                                              "--beta", "0.2", "--eps", value])
            assert (code, out) == (2, "")
            assert "--eps" in err


class TestVector:
    def test_compare_row_values(self, capsys):
        code, out, _ = run_cli(capsys, ["vector", "--n", "2", "--p", "0.6",
                                        "--alpha", "0.2", "--eps-min", "0.7",
                                        "--eps-max", "0.8", "--points", "2",
                                        "--compare"])
        assert code == 0
        header, rows, _ = parse_curve(out)
        assert header == ["epsilon", "h_block", "h_memoryless", "gap", "gap_lower_bound"]
        first = [float(v) for v in rows[0]]
        assert first[1] == pytest.approx(0.888819, abs=1e-6)
        assert first[2] == pytest.approx(0.86, abs=1e-12)
        assert first[4] == pytest.approx(0.028, abs=1e-12)

    def test_n1_gap_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["vector", "--n", "1", "--p", "0.6",
                                        "--alpha", "0.2", "--points", "5", "--compare"])
        assert code == 0
        _, rows, _ = parse_curve(out)
        assert all(abs(float(r[3])) <= 1e-12 for r in rows)

    def test_endpoint_both_one(self, capsys):
        code, out, _ = run_cli(capsys, ["vector", "--n", "10", "--p", "0.6",
                                        "--alpha", "0.2", "--eps-min", "0.8",
                                        "--eps-max", "0.8", "--points", "2",
                                        "--compare"])
        assert code == 0
        _, rows, _ = parse_curve(out)
        assert all(float(r[1]) == 1.0 and float(r[2]) == 1.0 for r in rows)

    def test_non_finite_eps_usage_error(self, capsys):
        for flag, value in (("--eps-min", "nan"), ("--eps-max", "-inf")):
            code, out, err = run_cli(capsys, ["vector", "--n", "2", "--p", "0.6",
                                              "--alpha", "0.2", flag, value])
            assert (code, out) == (2, "")
            assert flag in err

    def test_plain_two_columns(self, capsys):
        code, out, _ = run_cli(capsys, ["vector", "--n", "2", "--p", "0.6",
                                        "--alpha", "0.2", "--points", "3"])
        assert code == 0
        header, rows, _ = parse_curve(out)
        assert header == ["epsilon", "h_block"]
        assert len(rows) == 3

    def test_unbiased_emits_upper_bound_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, ["vector", "--n", "4", "--p", "0.5",
                                          "--alpha", "0.1", "--points", "3",
                                          "--compare"])
        assert code == 0
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["gap_upper_bound"] == pytest.approx(0.1 / 1.8, abs=1e-10)

    def test_invalid_model_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, ["vector", "--n", "2", "--p", "0.85",
                                      "--alpha", "0.2"])
        assert code == 3


class TestValidate:
    def test_fig3_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--scenario", "fig3",
                                        "--seed", "1", "--samples", "1000000"])
        assert code == 0
        doc = json.loads(out)
        assert doc["analytic_pc_y"] == 0.86
        assert doc["analytic_pc_x"] == 0.7
        assert abs(doc["empirical_pc_y"] - 0.86) <= 4 * doc["stderr_y"]
        assert doc["within_4_stderr"] == {"pc_y": True, "pc_x": True}

    def test_identity_exact(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--scenario", "identity",
                                        "--seed", "2", "--samples", "10000"])
        assert code == 0
        doc = json.loads(out)
        assert doc["empirical_pc_y"] == 1.0
        assert doc["stderr_y"] == 0.0

    def test_constant_scenario(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--scenario", "constant",
                                        "--seed", "3", "--samples", "100000"])
        assert code == 0
        doc = json.loads(out)
        assert doc["analytic_pc_x"] == 0.6

    def test_zero_samples_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["validate", "--scenario", "fig3",
                                      "--samples", "0"])
        assert code == 2

    def test_unknown_scenario_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["validate", "--scenario", "bogus"])
        assert code == 2

    def test_deterministic(self, capsys):
        args = ["validate", "--scenario", "fig3", "--seed", "7", "--samples", "20000"]
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second


def run_console_script(argv, cwd):
    """Run the declared ``privguess`` console script in a separate process.

    The command is the one pip writes for ``[project.scripts]``, so the test
    needs no installed executable: the target comes from this repository's
    ``pyproject.toml`` and the child imports the same ``privguess`` package
    as this test run.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["privguess"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(privguess.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable, "-c", wrapper, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_console_entry_point(tmp_path):
    out = run_console_script(["bibo", "--p", "0.6", "--alpha", "0.2",
                              "--beta", "0.2", "--eps", "0.7"], tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["h"] == 0.86

    out = run_console_script(["bibo", "--p", "0.9", "--alpha", "0.45",
                              "--beta", "0.45"], tmp_path)
    assert out.returncode == 3, out.stderr
