"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure); timings are included where a criterion carries a runtime budget.
Run them all with:

    pytest -v -s tests/test_acceptance.py
"""

import time

import numpy as np
from conftest import fig3_joint, random_bibo, random_channel, random_joint

from privguess import (
    Axis,
    BiboParams,
    Channel,
    SimConfig,
    VectorModel,
    best_filter,
    block_utility,
    brute_force_block_utility,
    certificate_threshold,
    closed_form_utility,
    compose,
    cond_guess_prob,
    gap_bounds,
    guess_prob,
    heuristic_threshold,
    memoryless_utility,
    perfect_privacy_utility,
    simulate,
    to_joint,
    trace_curve,
    validity_threshold,
    zn_filter,
)
from privguess.vector import compose_zn

GRID_201 = np.linspace(0.6, 0.8, 201)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_memoryless_line():
    start = time.perf_counter()
    model = VectorModel(10, 0.6, 0.2)
    err = max(abs(memoryless_utility(model, float(e)) - (1.4 * e - 0.12)) for e in GRID_201)
    dt = time.perf_counter() - start
    report(1, err <= 1e-9 and dt < 1.0,
           f"memoryless frontier vs 1.4*eps-0.12: max err {err:.2e}, {dt:.2f}s")


def test_criterion_02_block_curves():
    start = time.perf_counter()
    m2 = VectorModel(2, 0.6, 0.2)
    err2 = max(abs(block_utility(m2, float(e)) - np.sqrt(1.4 * e * e + 0.104))
               for e in GRID_201)
    m10 = VectorModel(10, 0.6, 0.2)
    err10 = max(abs(block_utility(m10, float(e)) - (4.67162 * e ** 10 + 0.498388) ** 0.1)
                for e in GRID_201)
    dt = time.perf_counter() - start
    report(2, err2 <= 1e-9 and err10 <= 5e-5 and dt < 1.0,
           f"block frontier n=2 err {err2:.2e} (tol 1e-9), n=10 err {err10:.2e} (tol 5e-5), {dt:.2f}s")


def test_criterion_03_solver_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(200):
        params = random_bibo(rng)
        joint = to_joint(params)
        for eps in np.linspace(params.p, params.pc_x_given_y, 9):
            want, _ = closed_form_utility(params, float(eps))
            got = best_filter(joint, float(eps)).utility
            worst = max(worst, abs(got - want))
    dt = time.perf_counter() - start
    report(3, worst <= 1e-7 and dt < 120.0,
           f"LP vs closed form on 200 instances x 9 thresholds: max diff {worst:.2e}, {dt:.1f}s")


def test_criterion_04_perfect_privacy_both_paths():
    closed = perfect_privacy_utility(BiboParams(0.6, 0.2, 0.2))
    solved = best_filter(fig3_joint(), 0.6).utility
    ok = abs(closed - 0.72) <= 1e-9 and abs(solved - closed) <= 1e-7
    report(4, ok, f"perfect privacy utility: closed form {closed:.9f}, LP {solved:.9f}")


def test_criterion_05_frontier_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(20241)
    problems = []
    for _ in range(50):
        problems.append(random_joint(rng, 2, 2))
    for _ in range(20):
        problems.append(random_joint(rng, 3, 3))
    ok = True
    detail = ""
    for joint in problems:
        curve = trace_curve(joint)
        slope_ok = all(b <= a + 1e-8 for a, b in zip(curve.slopes, curve.slopes[1:]))
        end_ok = (abs(curve.breakpoints[0] - guess_prob(joint, Axis.ROWS)) <= 1e-8
                  and abs(curve.breakpoints[-1] - cond_guess_prob(joint, Axis.ROWS)) <= 1e-8)
        top_ok = abs(curve.samples[-1][1] - 1.0) <= 1e-8
        if not (slope_ok and end_ok and top_ok):
            ok, detail = False, f"structure violated on joint {joint.matrix.tolist()}"
            break
    k_max = 0
    if ok:
        for _ in range(10):
            curve = trace_curve(to_joint(random_bibo(rng)))
            k_max = max(k_max, curve.k)
        ok = k_max == 1
        detail = "70 random joints structurally sound; binary-channel instances all K=1"
        if k_max != 1:
            detail = f"binary-channel instance reported K={k_max}"
    dt = time.perf_counter() - start
    report(5, ok and dt < 300.0, f"{detail}, {dt:.1f}s")


def test_criterion_06_gap_bounds_grid():
    start = time.perf_counter()
    worst_slack = np.inf
    for n in (2, 4, 8):
        for p in (0.55, 0.6, 0.7):
            for alpha in (0.05, 0.1, 0.2):
                model = VectorModel(n, p, alpha)
                lo = heuristic_threshold(model)
                for eps in np.linspace(lo, model.abar, 9):
                    gap = block_utility(model, float(eps)) - memoryless_utility(model, float(eps))
                    bound = gap_bounds(model, float(eps)).lower
                    worst_slack = min(worst_slack, gap - bound)
    upper_ok = True
    for n in (2, 4, 8):
        for alpha in (0.05, 0.1, 0.2):
            model = VectorModel(n, 0.5, alpha)
            lo = heuristic_threshold(model)
            cap = alpha / (2.0 * (1.0 - alpha))
            for eps in np.linspace(lo, model.abar, 9):
                gap = block_utility(model, float(eps)) - memoryless_utility(model, float(eps))
                upper_ok = upper_ok and gap <= cap + 1e-10
    dt = time.perf_counter() - start
    report(6, worst_slack >= -1e-10 and upper_ok,
           f"27 biased models: worst gap slack {worst_slack:.2e}; unbiased cap holds: {upper_ok}, {dt:.1f}s")


def test_criterion_07_zn_certificate():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        model = VectorModel(n, 0.6, 0.2)
        lo = certificate_threshold(model)
        for eps in np.linspace(lo, model.abar, 9):
            filt = zn_filter(model, float(eps))
            utility, privacy = compose_zn(model, filt)
            worst = max(worst,
                        abs(privacy - float(eps) ** n),
                        abs(utility - block_utility(model, float(eps)) ** n))
    dt = time.perf_counter() - start
    report(7, worst <= 1e-10,
           f"flip-channel composition n=1..10 x 9 thresholds: max drift {worst:.2e}, {dt:.1f}s")


def test_criterion_08_brute_force_certification():
    start = time.perf_counter()
    model = VectorModel(2, 0.6, 0.2)
    worst = max(abs(brute_force_block_utility(model, e) - block_utility(model, e))
                for e in (0.75, 0.78, 0.8))
    est = validity_threshold(model)
    dt = time.perf_counter() - start
    ok = worst <= 1e-6 and est.certified and 0.6 <= est.eps_l < 0.8 and dt < 300.0
    report(8, ok,
           f"4x4 block LP optimum vs formula: max diff {worst:.2e}; "
           f"certified threshold {est.eps_l:.6f}, {dt:.1f}s")


def test_criterion_09_monte_carlo():
    start = time.perf_counter()
    filt = Channel(np.array([[1.0, 0.0], [0.25, 0.75]]))
    report_1m = simulate(SimConfig(seed=1, samples=10 ** 6, joint=fig3_joint(), filter=filt))
    four_ok = (abs(report_1m.empirical_pc_y - 0.86) <= 4 * report_1m.stderr_y
               and abs(report_1m.empirical_pc_x - 0.70) <= 4 * report_1m.stderr_x)
    hits = 0
    for seed in range(50):
        rep = simulate(SimConfig(seed=seed, samples=10 ** 5, joint=fig3_joint(), filter=filt))
        ok_y = abs(rep.empirical_pc_y - 0.86) <= 3 * rep.stderr_y
        ok_x = abs(rep.empirical_pc_x - 0.70) <= 3 * rep.stderr_x
        hits += ok_y and ok_x
    dt = time.perf_counter() - start
    report(9, four_ok and hits >= 47,
           f"1e6-sample run within 4 stderr: {four_ok}; 3-sigma seeds {hits}/50, {dt:.1f}s")


def test_criterion_10_data_processing():
    start = time.perf_counter()
    rng = np.random.default_rng(20242)
    violations = 0
    for _ in range(1000):
        joint = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        filt = random_channel(rng, joint.shape[1], int(rng.integers(1, 6)))
        before = cond_guess_prob(joint, Axis.ROWS)
        after = cond_guess_prob(compose(joint, filt, Axis.COLS), Axis.ROWS)
        if after > before + 1e-12:
            violations += 1
    dt = time.perf_counter() - start
    report(10, violations == 0,
           f"1000 filtered joints, guessing never improved: {violations} violations, {dt:.1f}s")
