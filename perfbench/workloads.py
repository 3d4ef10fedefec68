"""Inputs and operations of the four benchmark workloads.

Input generation uses NumPy only; the program (``privguess``) is called only
inside the operations. Every random input is derived from a fixed pool seed
and a candidate index, so a candidate is the same on every machine and in
every run; the run's ``--seed`` chooses which candidates a run uses and in
which order. ``pool.json`` lists the candidates that the program fails on
today (see ``screen.py``); they are left out, so that the only failing
operation is the fixed reproducer of the frontier workload.

The operations look the program's functions up on their modules at call
time, so that the tracer's wrappers (``tracing.py``) see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
POOL_FILE = HERE / "pool.json"

#: entropy shared by every candidate generator; changing it changes the corpus
POOL_SEED = 20170607

#: frontier joints need P_c(X|Y) - P_c(X) above this, or best_filter skips the LP
FRONTIER_MARGIN = 0.02

#: multiplicative jitter (log-normal sigma) applied to the curve templates
CURVE_JITTER = 0.01

#: Monte Carlo samples per simulate operation
SIM_SAMPLES = 200_000

#: block lengths of one simulate round
SIM_BLOCK_LENGTHS = tuple(range(4, 11))

# frontier classes, one joint of each per round: name -> (generator id, shape,
# skewed). Skewed joints are rng.random(shape)**3. The cost of a point grows with
# |Y| (15, 56 and 210 LPs for 3, 4 and 5 columns); two 3-column and two
# 5-column classes around six 4-column ones (seven with the reproducer) put the
# median operation in the middle of the 4-column group. The ids are fixed, so
# that dropping a class leaves the other classes' candidates as they were.
FRONTIER_CLASSES: dict[str, tuple[int, tuple[int, int], bool]] = {
    "u3x3": (0, (3, 3), False), "s3x3": (1, (3, 3), True),
    "u3x4": (6, (3, 4), False), "s3x4": (7, (3, 4), True),
    "u4x4": (8, (4, 4), False), "s4x4": (9, (4, 4), True),
    "u5x4": (10, (5, 4), False), "s5x4": (11, (5, 4), True),
    "u5x5": (12, (5, 5), False), "s5x5": (13, (5, 5), True),
}

#: ROADMAP item 2 reproducer: lp.solve_lp fails its certificate on this input
REPRODUCER_JOINT = [
    [0.10254077521972826, 0.05444091096140368, 1.3507750791114549e-06, 0.27548437839541984],
    [0.00011648308778760545, 0.0008384290203021182, 0.12978168071627388, 0.20882279985212668],
    [0.18969633067644073, 0.03609595025162467, 0.002163760229318767, 1.7150814494695373e-05],
]
REPRODUCER_EPS = 0.5409353580505845

# curve templates (jittered per candidate); K is the number of linear pieces
CURVE_TEMPLATES: dict[str, list[list[float]]] = {
    # one piece
    "one2x3": [[0.108, 0.240, 0.223], [0.208, 0.098, 0.123]],
    "one3x2": [[0.092, 0.246], [0.236, 0.128], [0.120, 0.178]],
    # several pieces
    "multi3x3a": [[0.085, 0.168, 0.109], [0.185, 0.0002, 0.065], [0.148, 0.132, 0.108]],
    "multi3x3b": [[0.142, 0.015, 0.172], [0.174, 0.191, 0.027], [0.023, 0.177, 0.079]],
    "multi4x3": [[0.071, 0.105, 0.063], [0.087, 0.087, 0.020], [0.123, 0.016, 0.121],
                 [0.017, 0.112, 0.177]],
}

#: curve slots of one round. Most are small curves, so that the median operation
#: lies among many alike ones; the multi-piece curves carry most of the time.
CURVE_SLOTS = ("bibo",) * 5 + ("one3x2",) * 2 + ("one2x3", "multi3x3a", "multi3x3b", "multi4x3")

#: candidates per class in each screened pool
POOL_SIZES = {"frontier": 256, "curve": 64, "block": 24}

def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, *key])


def pc_x(p: np.ndarray) -> float:
    """Unconditional guessing probability of the row variable X."""
    return float(p.sum(axis=1).max())


def pc_x_given_y(p: np.ndarray) -> float:
    """Conditional guessing probability of X given the column variable Y."""
    return float(p.max(axis=0).sum())


def frontier_candidate(cls: str, index: int) -> tuple[np.ndarray, float]:
    """Joint and threshold of one frontier candidate; eps lies strictly inside."""
    class_id, shape, skew = FRONTIER_CLASSES[cls]
    rng = _rng(1, class_id, index)
    while True:
        w = rng.random(shape)
        if skew:
            w = w ** 3
        p = w / w.sum()
        lo, hi = pc_x(p), pc_x_given_y(p)
        if hi - lo > FRONTIER_MARGIN:
            return p, lo + rng.uniform(0.1, 0.9) * (hi - lo)


def bibo_candidate(index: int) -> np.ndarray:
    """Joint of X ~ Bernoulli(p) through a binary channel (alpha, beta), non-degenerate."""
    rng = _rng(2, index)
    while True:
        p = rng.uniform(0.5, 0.8)
        a, b = rng.uniform(0.02, 0.45, size=2)
        if (1.0 - a) * (1.0 - p) - b * p > 0.05:
            return np.array([[(1.0 - a) * (1.0 - p), a * (1.0 - p)],
                             [b * p, (1.0 - b) * p]])


def curve_candidate(template: str, index: int) -> np.ndarray:
    """A template joint with each entry jittered by a log-normal factor."""
    base = np.array(CURVE_TEMPLATES[template])
    rng = _rng(3, list(CURVE_TEMPLATES).index(template), index)
    w = base * np.exp(CURVE_JITTER * rng.standard_normal(base.shape))
    return w / w.sum()


def block_candidate(index: int) -> tuple[float, float]:
    """(p, alpha) of an i.i.d. binary model with 1 - alpha - p >= 0.05."""
    rng = _rng(4, index)
    while True:
        p = rng.uniform(0.55, 0.7)
        alpha = rng.uniform(0.1, 0.25)
        if 1.0 - alpha - p >= 0.05:
            return p, alpha


def zeta_n(n: int, p: float, alpha: float, eps: float) -> float:
    """Flip probability of the block channel at eps: (abar^n - eps^n) / ((abar p)^n - (alpha pbar)^n)."""
    abar = 1.0 - alpha
    return (abar ** n - eps ** n) / ((abar * p) ** n - (alpha * (1.0 - p)) ** n)


def block_formula(n: int, p: float, alpha: float, eps: float) -> float:
    """Per-symbol block utility (1 - zeta_n(eps) q^n)^(1/n)."""
    q = alpha * (1.0 - p) + (1.0 - alpha) * p
    return (1.0 - zeta_n(n, p, alpha, eps) * q ** n) ** (1.0 / n)


def certificate_eps(n: int, p: float, alpha: float) -> float:
    """Smallest eps at which the block channel provably attains the formula.

    zeta_n is decreasing in eps; the channel is certified once zeta_n is at
    most both ((abar pbar)^n - (alpha p)^n) / D and (qbar / q)^n, where
    D = (abar p)^n - (alpha pbar)^n.
    """
    abar, pbar = 1.0 - alpha, 1.0 - p
    q = alpha * pbar + abar * p
    d = (abar * p) ** n - (alpha * pbar) ** n
    caps = (((abar * pbar) ** n - (alpha * p) ** n) / d, ((1.0 - q) / q) ** n)
    eps = [max(abar ** n - cap * d, 0.0) ** (1.0 / n) for cap in caps]
    return max(p, *eps)


def simulate_inputs(seed: int) -> list[dict[str, Any]]:
    """One configuration per block length; eps lies above the certificate threshold."""
    rng = np.random.default_rng([POOL_SEED, 5, seed])
    out = []
    for n in SIM_BLOCK_LENGTHS:
        p = float(rng.uniform(0.55, 0.7))
        alpha = float(rng.uniform(0.1, 0.25))
        alpha = min(alpha, 0.95 - p)
        lo = certificate_eps(n, p, alpha)
        eps = lo + float(rng.uniform(0.2, 0.8)) * (1.0 - alpha - lo)
        out.append({"n": n, "p": p, "alpha": alpha, "eps": eps,
                    "gamma": zeta_n(n, p, alpha, eps),
                    "sim_seed": int(rng.integers(2 ** 31)), "samples": SIM_SAMPLES})
    return out


def load_pool() -> dict[str, dict[str, list[int]]]:
    """Screened-out candidate indices, by pool and class."""
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)["excluded"]


def usable(pool: str, cls: str, excluded: dict[str, dict[str, list[int]]]) -> list[int]:
    """Candidate indices of one class that the program does not fail on."""
    bad = set(excluded.get(pool, {}).get(cls, []))
    return [i for i in range(POOL_SIZES[pool]) if i not in bad]


@dataclass
class Op:
    """One operation: ``call`` runs the program, ``record`` makes its output JSON-able.

    ``probe_at`` (owner, attribute) names a function the operation calls many
    times; the timed loop also runs the speed probe before each such call and
    takes the probe's time out of the operation's, so that an operation of
    several seconds is calibrated by the speed during it, not only at its ends.
    """

    key: str
    call: Callable[[], Any]
    record: Callable[[Any], Any]
    probe_at: tuple[Any, str] | None = None


class Frontier:
    """One op is one best_filter(joint, eps) on a fresh joint; the reproducer closes each round."""

    def __init__(self, seed: int, pg) -> None:
        self.pg = pg
        excluded = load_pool()
        rng = np.random.default_rng([POOL_SEED, 6, seed])
        self.order = {c: rng.permutation(usable("frontier", c, excluded)).tolist()
                      for c in FRONTIER_CLASSES}
        self.ops: dict[str, dict[str, Any]] = {}

    def inputs(self) -> dict[str, Any]:
        return self.ops

    def _op(self, key: str, p: np.ndarray, eps: float) -> Op:
        self.ops[key] = {"joint": p.tolist(), "eps": eps}
        joint = self.pg.JointDistribution(p)
        solver = self.pg.solver
        return Op(key, lambda: solver.best_filter(joint, eps), _filter_record)

    def round(self, r: int) -> list[Op]:
        ops = []
        for c, order in self.order.items():
            index = order[r % len(order)]
            p, eps = frontier_candidate(c, index)
            ops.append(self._op(f"{c}/{index}", p, eps))
        ops.append(self._op("reproducer", np.array(REPRODUCER_JOINT), REPRODUCER_EPS))
        return ops


def _filter_record(sol) -> dict[str, Any]:
    return {"utility": sol.utility, "privacy": sol.privacy,
            "filter": sol.filter.matrix.tolist(), "saturated": sol.saturated}


class Curve:
    """One op is one in-process ``privguess hcurve --breakpoints`` on a joint file written at set-up."""

    def __init__(self, seed: int, pg, out_dir: Path) -> None:
        excluded = load_pool()
        rng = np.random.default_rng([POOL_SEED, 7, seed])
        # distinct candidates for the slots of one class
        picks = {cls: rng.permutation(usable("curve", cls, excluded)).tolist()
                 for cls in dict.fromkeys(CURVE_SLOTS)}
        self.items: dict[str, dict[str, Any]] = {}
        for slot, cls in enumerate(CURVE_SLOTS):
            index = picks[cls].pop()
            p = bibo_candidate(index) if cls == "bibo" else curve_candidate(cls, index)
            path = out_dir / f"curve{slot}.json"
            path.write_text(json.dumps({"joint": p.tolist()}), encoding="utf-8")
            self.items[f"{cls}/{index}"] = {"joint": p.tolist(), "file": str(path)}

        def run_cli(path: str) -> str:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = pg.cli.main(["hcurve", "--joint", path, "--points", "21", "--breakpoints"])
            if code != 0:
                raise pg.PrivguessError(f"hcurve exited {code}")
            return buf.getvalue()

        self._ops = [Op(key, (lambda f=item["file"]: run_cli(f)), str)
                     for key, item in self.items.items()]

    def inputs(self) -> dict[str, Any]:
        return self.items

    def round(self, r: int) -> list[Op]:
        return self._ops


class Block:
    """One op is one validity_threshold(VectorModel(2, p, alpha)); a fresh model per round."""

    def __init__(self, seed: int, pg) -> None:
        self.pg = pg
        rng = np.random.default_rng([POOL_SEED, 8, seed])
        self.order = rng.permutation(usable("block", "n2", load_pool())).tolist()
        self.models: dict[str, dict[str, Any]] = {}

    def inputs(self) -> dict[str, Any]:
        return self.models

    def round(self, r: int) -> list[Op]:
        index = self.order[r % len(self.order)]
        p, alpha = block_candidate(index)
        key = f"n2/{index}"
        self.models[key] = {"n": 2, "p": p, "alpha": alpha}
        vector = self.pg.vector
        model = vector.VectorModel(2, p, alpha)
        # about 19 bisection steps of about 0.35 s, each one lp_guess_max call
        return [Op(key, lambda: vector.validity_threshold(model),
                   lambda est: {"eps_l": est.eps_l, "certified": est.certified},
                   probe_at=(vector, "lp_guess_max"))]


class Simulate:
    """One op builds the block-channel simulation at one n, runs mc.simulate and compose_zn."""

    def __init__(self, seed: int, pg) -> None:
        self.configs = {f"n{c['n']}": c for c in simulate_inputs(seed)}
        mc, vector = pg.mc, pg.vector

        def run(c: dict[str, Any]):
            model = vector.VectorModel(c["n"], c["p"], c["alpha"])
            cfg = mc.vector_sim_config(c["sim_seed"], c["samples"], model, "block", c["gamma"])
            report = mc.simulate(cfg)
            zn = vector.compose_zn(model, vector.ZnChannel(gamma=c["gamma"], n=c["n"]))
            return report, zn

        def record(out) -> dict[str, Any]:
            report, (utility, privacy) = out
            return {"empirical_pc_y": report.empirical_pc_y, "empirical_pc_x": report.empirical_pc_x,
                    "analytic_pc_y": report.analytic_pc_y, "analytic_pc_x": report.analytic_pc_x,
                    "samples": report.samples, "zn_utility": utility, "zn_privacy": privacy}

        self._ops = [Op(key, (lambda c=c: run(c)), record) for key, c in self.configs.items()]

    def inputs(self) -> dict[str, Any]:
        return self.configs

    def round(self, r: int) -> list[Op]:
        return self._ops


def build(name: str, seed: int, pg, out_dir: Path):
    """The workload's inputs for ``seed``; ``round(r)`` gives round r's operations,
    ``inputs()`` the inputs used so far, keyed like the operations."""
    if name == "frontier":
        return Frontier(seed, pg)
    if name == "curve":
        return Curve(seed, pg, out_dir)
    if name == "block":
        return Block(seed, pg)
    if name == "simulate":
        return Simulate(seed, pg)
    raise ValueError(f"unknown workload {name!r}")

