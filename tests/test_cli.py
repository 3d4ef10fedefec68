"""Command-line interface: outputs, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import privguess
from privguess import cli, solver
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

    def test_rounded_joint_is_valid_input(self, capsys, tmp_path):
        # mass 1 + 1e-9 up to roundoff, within MASS_TOL; the composed joints
        # the solver certifies its filters on are 1e-9 off as well
        path = tmp_path / "rounded.json"
        path.write_text(json.dumps({"joint": [
            [0.088354045, 0.017692666, 0.171538849],
            [0.044233135, 0.195796969, 0.21275109],
            [0.040529155, 0.169777558, 0.059326534],
        ]}))
        code, out, err = run_cli(capsys, ["hcurve", "--joint", str(path), "--breakpoints"])
        assert (code, err) == (0, "")
        _, rows, report = parse_curve(out)
        assert len(rows) == 21 and report["K"] == len(report["slopes"])

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

        def counted_solve(prog, basis=None):
            solves.append(real_solve(prog, basis))
            return solves[-1]

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
        # the walk starts at the identity vertex: no simplex pivot
        assert [sol.iterations for sol in solves] == [0]
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

    def test_near_degenerate_binary_rows_tagged_lp(self, capsys, tmp_path):
        # P_c(X|Y) - P_c(X) is positive but below the closed forms' DENOM_TOL:
        # bibo rejects the parameters, so the rows come from the LP alone
        params = privguess.BiboParams(0.5, 0.5 - 1e-13, 0.5 - 2e-13)
        path = tmp_path / "neardeg.json"
        path.write_text(json.dumps({"joint": privguess.to_joint(params).matrix.tolist()}))
        code, out, err = run_cli(capsys, ["hcurve", "--joint", str(path), "--points", "3"])
        assert (code, err) == (0, "")
        _, rows, _ = parse_curve(out)
        assert len(rows) == 3 and all(r[2] == "lp" and r[3] == "" for r in rows)
        code, _, err = run_cli(capsys, ["bibo", "--p", "0.5", "--alpha", repr(0.5 - 1e-13),
                                        "--beta", repr(0.5 - 2e-13), "--eps", "0.5"])
        assert code == 3 and "branch denominator" in err


#: ``hcurve --points 21 --breakpoints`` exit code and stdout, byte for byte, per
#: joint of ``golden_joint``; the values are certified, so a change here is a
#: change of output
GOLDEN_HCURVE = {
    "fig3": (0, """\
epsilon,h,branch,filter_gamma
0.6,0.72,z,0.5
0.61,0.734,z,0.475
0.62,0.748,z,0.45
0.63,0.762,z,0.425
0.64,0.776,z,0.4
0.65,0.79,z,0.375
0.66,0.804,z,0.35
0.67,0.818,z,0.325
0.68,0.832,z,0.3
0.69,0.846,z,0.275
0.7,0.86,z,0.25
0.71,0.874,z,0.225
0.72,0.888,z,0.2
0.73,0.902,z,0.175
0.74,0.916,z,0.15
0.75,0.93,z,0.125
0.76,0.944,z,0.1
0.77,0.958,z,0.075
0.78,0.972,z,0.05
0.79,0.986,z,0.025
0.8,1,z,0
{"breakpoints": [0.6, 0.8], "slopes": [1.4], "K": 1}
"""),
    "multi": (0, """\
epsilon,h,branch,filter_gamma
0.364560073646,0.600414920107,lp,
0.369540686195,0.632243246257,lp,
0.374521298745,0.664071572407,lp,
0.379501911295,0.694905665283,lp,
0.384482523845,0.724607955522,lp,
0.389463136395,0.75431024576,lp,
0.394443748944,0.778335084511,lp,
0.399424361494,0.79416829276,lp,
0.404404974044,0.810001501009,lp,
0.409385586594,0.825834709259,lp,
0.414366199144,0.841667917508,lp,
0.419346811693,0.857501125757,lp,
0.424327424243,0.873334334006,lp,
0.429308036793,0.889167542255,lp,
0.434288649343,0.905000750505,lp,
0.439269261893,0.920833958754,lp,
0.444249874442,0.936667167003,lp,
0.449230486992,0.952500375252,lp,
0.454211099542,0.968333583502,lp,
0.459191712092,0.984166791751,lp,
0.464172324642,1,lp,
{"breakpoints": [0.364560073646, 0.377172745218, 0.392404883924, 0.464172324642], "slopes": [6.39044411337, 5.96358177669, 3.17896806686], "K": 3}
"""),
    "trial71": (0, """\
epsilon,h,branch,filter_gamma
0.346632637182,0.685330668561,lp,
0.359710449665,0.701899010577,lp,
0.372788262148,0.718467352594,lp,
0.385866074631,0.73503569461,lp,
0.398943887115,0.751604036627,lp,
0.412021699598,0.768172378643,lp,
0.425099512081,0.78474072066,lp,
0.438177324564,0.801309062676,lp,
0.451255137047,0.817089850639,lp,
0.46433294953,0.832362369058,lp,
0.477410762014,0.847634187721,lp,
0.490488574497,0.862870768949,lp,
0.50356638698,0.878107350177,lp,
0.516644199463,0.893343931405,lp,
0.529722011946,0.908580512633,lp,
0.542799824429,0.923817093861,lp,
0.555877636912,0.939053675088,lp,
0.568955449396,0.954290256316,lp,
0.582033261879,0.969526837544,lp,
0.595111074362,0.984763418772,lp,
0.608188886845,1,lp,
{"breakpoints": [0.346632637182, 0.443306922297, 0.477156115415, 0.608188886845], "slopes": [1.26690469357, 1.16781903998, 1.16507108872], "K": 3}
"""),
    "trial105": (0, """\
epsilon,h,branch,filter_gamma
0.349742092019,0.722501777765,lp,
0.356169030856,0.738047213451,lp,
0.362595969692,0.752031595188,lp,
0.369022908529,0.766015667549,lp,
0.375449847366,0.779999739909,lp,
0.381876786203,0.793983812269,lp,
0.38830372504,0.807967884629,lp,
0.394730663876,0.82195195699,lp,
0.401157602713,0.83593602935,lp,
0.40758454155,0.84992010171,lp,
0.414011480387,0.86390417407,lp,
0.420438419224,0.87788824643,lp,
0.42686535806,0.891872318791,lp,
0.433292296897,0.905856391151,lp,
0.439719235734,0.919840463511,lp,
0.446146174571,0.933824535871,lp,
0.452573113407,0.947421162553,lp,
0.459000052244,0.960565871915,lp,
0.465426991081,0.973710581276,lp,
0.471853929918,0.986855290638,lp,
0.478280868755,1,lp,
{"breakpoints": [0.349742092019, 0.351300493697, 0.356075040441, 0.357913330067, 0.449606471224, 0.478280868755], "slopes": [3.16859621908, 2.17883803597, 2.17603008668, 2.1758527217, 2.04525197697], "K": 5}
"""),
    "near": (0, """\
epsilon,h,branch,filter_gamma
0.5,1,lp,
0.500000000005,1,lp,
0.50000000001,1,lp,
0.500000000015,1,lp,
0.50000000002,1,lp,
0.500000000025,1,lp,
0.50000000003,1,lp,
0.500000000035,1,lp,
0.50000000004,1,lp,
0.500000000045,1,lp,
0.50000000005,1,lp,
0.500000000055,1,lp,
0.50000000006,1,lp,
0.500000000065,1,lp,
0.50000000007,1,lp,
0.500000000075,1,lp,
0.50000000008,1,lp,
0.500000000085,1,lp,
0.50000000009,1,lp,
0.500000000095,1,lp,
0.5000000001,1,lp,
{"breakpoints": [0.5, 0.5000000001], "slopes": [0.0], "K": 1}
"""),
    "revz": (0, """\
epsilon,h,branch,filter_gamma
0.572660755788,0.7136713663,reverse-z,1
0.582202513065,0.727987797985,reverse-z,0.95
0.591744270342,0.74230422967,reverse-z,0.9
0.601286027619,0.756620661355,reverse-z,0.85
0.610827784897,0.77093709304,reverse-z,0.8
0.620369542174,0.785253524725,reverse-z,0.75
0.629911299451,0.79956995641,reverse-z,0.7
0.639453056729,0.813886388095,reverse-z,0.65
0.648994814006,0.82820281978,reverse-z,0.6
0.658536571283,0.842519251465,reverse-z,0.55
0.668078328561,0.85683568315,reverse-z,0.5
0.677620085838,0.871152114835,reverse-z,0.45
0.687161843115,0.88546854652,reverse-z,0.4
0.696703600392,0.899784978205,reverse-z,0.35
0.70624535767,0.91410140989,reverse-z,0.3
0.715787114947,0.928417841575,reverse-z,0.25
0.725328872224,0.94273427326,reverse-z,0.2
0.734870629502,0.957050704945,reverse-z,0.15
0.744412386779,0.97136713663,reverse-z,0.1
0.753954144056,0.985683568315,reverse-z,0.05
0.763495901333,1,reverse-z,0
{"breakpoints": [0.572660755788, 0.763495901333], "slopes": [1.50039780608], "K": 1}
"""),
    "wide": (3, """\
epsilon,h,branch,filter_gamma
"""),
}


def golden_joint(name):
    """Joints of GOLDEN_HCURVE: trials 71 and 105 have kinks with small slope changes,
    "near" has P_c(X|Y) - P_c(X) = 1e-10, "revz" is on the reverse-Z branch with
    non-round parameters and "wide" has a Y alphabet above the cap."""
    from test_solver import MULTI_PIECE, seeded_trial
    return {
        "fig3": FIG3["joint"],
        "multi": (MULTI_PIECE / MULTI_PIECE.sum()).tolist(),
        "trial71": seeded_trial(71).tolist(),
        "trial105": seeded_trial(105).tolist(),
        "near": [[0.3 + 5e-11, 0.2 - 5e-11], [0.3 - 5e-11, 0.2 + 5e-11]],
        "revz": [[0.23858188962266413, 0.18875735458971277],
                 [0.04774674407690988, 0.5249140117107133]],
        "wide": [[1.0 / 14] * 7] * 2,
    }[name]


@pytest.mark.parametrize("name", list(GOLDEN_HCURVE))
def test_hcurve_golden_bytes(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"joint": golden_joint(name)}))
    code, out, _ = run_cli(capsys, ["hcurve", "--joint", str(path), "--points", "21", "--breakpoints"])
    assert (code, out) == GOLDEN_HCURVE[name]


def test_parser_is_reused_across_calls(capsys, fig3_file):
    argv = ["hcurve", "--joint", fig3_file, "--points", "21", "--breakpoints"]
    code, first, _ = run_cli(capsys, argv)
    assert (code, first) == GOLDEN_HCURVE["fig3"]
    code, out, err = run_cli(capsys, ["hcurve", "--joint", fig3_file, "--points", "1"])
    assert (code, out) == (2, "") and "--points" in err
    code, out, err = run_cli(capsys, ["hcurve", "--points", "21"])
    assert (code, out) == (2, "") and "--joint" in err
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0 and "hcurve" in out
    assert run_cli(capsys, argv) == (0, first, "")
    assert cli._build_parser() is cli._build_parser()


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

    def test_negative_seed_usage_error(self, capsys):
        # checked before the simulation, as --samples is, so NumPy's own
        # error for a negative seed is never reached
        code, _, err = run_cli(capsys, ["validate", "--scenario", "fig3", "--seed", "-1",
                                        "--samples", "10"])
        assert code == 2
        assert "--seed must be nonnegative" in err

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
