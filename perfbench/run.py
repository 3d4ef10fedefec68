"""Benchmark of privguess: frontier points, curves, block certification and simulation.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 20 --trace 0

Each workload runs in one fresh single-threaded process as a closed loop:
the next operation starts when the previous one has returned. Set-up is
timed from the start of a fresh interpreter to the first operation being
ready, several times, and reported as the median. After the timed process
ends, ``check.py`` checks every output in another process. The last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a traced run, see ``tracing.py``) with ``--trace 1``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import PROBE_OF, REFERENCE_S  # noqa: E402

WORKLOADS = ("frontier", "curve", "block", "simulate")

#: fresh-interpreter set-ups timed per run (the last one goes on to the timed loop)
SETUPS = 5
SETUP_TIMEOUT_S = 60.0
#: the timed loop ends after whole rounds, so allow for the last one to finish
LOOP_GRACE_S = 90.0
CHECK_TIMEOUT_S = 120.0
#: a tail percentile needs this many operations beyond it
TAIL_SAMPLES = 10


class BenchError(Exception):
    pass


def setup_probe(proc: subprocess.Popen) -> float:
    """The ``probe <seconds>`` line a set-up-only worker prints after ``ready``."""
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "probe":
        raise BenchError(f"set-up worker printed {line!r} instead of its probe time")
    return float(line[1])


def start_worker(args, out_dir: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start the timed process and wait for its ``ready`` line; returns it and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup_s = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish in time") from None
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited {code}")


TIME_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s"}


def time_metrics(attempts: list[dict], setups: list[tuple[float, float]], ref: float | None) -> dict:
    """ops_per_s (median over rounds), op_p50_s and setup_s: scaled to the probe's
    reference time ``ref`` (see calibration.py), or wall-clock times if it is None."""
    key = "cal_s" if ref else "s"
    per_round: dict[int, list[float]] = {}
    for a in attempts:
        per_round.setdefault(a["round"], []).append(a[key])
    return {
        "ops_per_s": statistics.median(len(t) / sum(t) for t in per_round.values()),
        "op_p50_s": statistics.median(a[key] for a in attempts),
        "setup_s": statistics.median(s * ref / p if ref else s for s, p in setups),
    }


def run(args) -> dict:
    out_dir = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setups = []  # (seconds, probe seconds right after)
    for _ in range(SETUPS - 1 if not args.trace else 0):
        proc, s = start_worker(args, out_dir, setup_only=True)
        try:
            p = setup_probe(proc)
        finally:
            finish(proc, SETUP_TIMEOUT_S)
        setups.append((s, p))
    proc, s = start_worker(args, out_dir, setup_only=False)
    finish(proc, args.seconds + LOOP_GRACE_S)

    with open(out_dir / "result.json", encoding="utf-8") as fh:
        res = json.load(fh)
    attempts = res["attempts"]
    setups.append((s, attempts[0]["probe"]))
    check = subprocess.run([sys.executable, str(HERE / "check.py"), str(out_dir / "result.json")],
                           capture_output=True, text=True, timeout=CHECK_TIMEOUT_S)
    if check.returncode != 0:
        sys.stderr.write(check.stderr)
        raise BenchError(f"check.py exited {check.returncode}")
    verdict = json.loads(check.stdout.strip().splitlines()[-1])

    failed = [a for a in attempts if a["error"] is not None]
    plain = [a for a in attempts if not a["traced"]]
    summary = {"backend": res["backend"], "rounds": len(res["rounds"]), "ops": len(attempts),
               "loop_s": res["loop_s"], "probe": res["probe"],
               "probe_s": statistics.median(a["probe"] for a in attempts),
               "checked": verdict["checked"], "problems": verdict["problems"],
               "failures": sorted({f"{a['op']}: {a['error']}" for a in failed})}
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in res["layers"].items()}
    else:
        ref = REFERENCE_S[PROBE_OF[args.workload]]
        summary["wall_clock"] = time_metrics(plain, setups, None)
        metrics = {name: {"value": v, "unit": TIME_UNITS[name]}
                   for name, v in time_metrics(plain, setups, ref).items()}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        if len(plain) >= 10 * TAIL_SAMPLES:  # p90 only with TAIL_SAMPLES operations beyond it
            summary["op_p90_s"] = statistics.quantiles([a["cal_s"] for a in plain], n=10)[-1]
    print(json.dumps(summary))
    return {"correct": verdict["ok"], "attempted": len(attempts), "failed": len(failed),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
