"""The timed process: sets up one workload, then runs it as a closed loop.

Started by ``run.py`` in a fresh interpreter. It prints ``ready`` once its
inputs are built (``run.py`` times set-up up to that line), then, unless
``--setup-only`` is given, runs whole rounds of operations, one at a time,
until ``--seconds`` have passed, and writes ``result.json`` (and, when
tracing, ``spans.json``) to ``--out``.

The workload's probe (``calibration.py``) runs before every operation and
once after the last, so that each operation's time can be scaled to a
reference machine speed. A set-up-only worker runs the probe a few times after
``ready`` and prints ``probe <seconds>``.

With ``--trace 1`` every operation runs twice in a row, once plain and once
traced, alternating which goes first; the difference is the tracing
overhead.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXIT_NO_PROGRAM = 3
SETUP_PROBES = 5


def _import_program():
    """Import privguess from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import privguess
        import privguess.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        print(f"cannot import privguess from {src}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if src not in Path(privguess.__file__).resolve().parents:
        print(f"privguess came from {privguess.__file__}, not {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return privguess


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    pg = _import_program()
    import workloads
    from calibration import PROBE_OF, REFERENCE_S, probe
    from tracing import Tracer

    kind = PROBE_OF[args.workload]

    wl = workloads.build(args.workload, args.seed, pg, args.out)
    first = wl.round(0)
    print("ready", flush=True)
    if args.setup_only:
        print("probe", sorted(probe(kind) for _ in range(SETUP_PROBES))[SETUP_PROBES // 2], flush=True)
        return

    tracer = Tracer() if args.trace else None
    attempts: list[dict] = []
    outputs: dict[str, object] = {}
    mismatched: list[str] = []

    def attempt(op, traced: bool):
        probed = probe(kind)
        inner: list[float] = []  # probes run during the operation
        spent = 0.0  # wall time of those probes, taken out of the operation's

        def probing(fn):
            def wrapper(*args, **kwargs):
                nonlocal spent
                start = perf_counter()
                inner.append(probe(kind))
                spent += perf_counter() - start
                return fn(*args, **kwargs)
            return wrapper

        hook = op.probe_at if not traced else None
        if hook is not None:
            original = getattr(*hook)
            setattr(*hook, probing(original))
        t0 = perf_counter()
        try:
            result = tracer.run_op(len(attempts), op.call) if traced else op.call()
            error = None
        except Exception as exc:  # a failed operation is counted, and the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if hook is not None:
                setattr(*hook, original)
        dt = perf_counter() - t0 - spent
        attempts.append({"op": op.key, "round": len(rounds), "s": dt, "probe": probed,
                         "inner": inner, "error": error, "traced": traced})
        if error is None:
            out = op.record(result)
            if op.key not in outputs:
                outputs[op.key] = out
            elif outputs[op.key] != out:
                mismatched.append(op.key)

    begin = perf_counter()
    ops = first
    rounds: list[float] = []  # wall seconds of each round
    while True:
        start = perf_counter()
        for op in ops:
            if tracer is None:
                attempt(op, False)
            else:
                traced_first = len(attempts) % 4 == 0
                attempt(op, traced_first)
                attempt(op, not traced_first)
        rounds.append(perf_counter() - start)
        if perf_counter() - begin >= args.seconds:
            break
        ops = wl.round(len(rounds))
    loop_s = perf_counter() - begin
    # an operation's speed reference: the mean of the probes before, during and after it
    after = [a["probe"] for a in attempts[1:]] + [probe(kind)]
    for a, p_next in zip(attempts, after):
        probes = [a["probe"], *a["inner"], p_next]
        a["cal_s"] = a["s"] * REFERENCE_S[kind] * len(probes) / sum(probes)

    result = {
        "workload": args.workload, "seed": args.seed, "backend": pg.KERNEL_BACKEND,
        "probe": kind,
        "rounds": rounds, "loop_s": loop_s, "attempts": attempts, "inputs": wl.inputs(),
        "outputs": outputs, "mismatched": mismatched,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        n_traced = sum(1 for a in attempts if a["traced"])
        layers = tracer.layer_metrics(n_traced)
        # calibrated, so that the machine's drift between the two runs of an op cancels
        pairs = zip(attempts[0::2], attempts[1::2])
        extra = [(a["cal_s"] - b["cal_s"]) * (1 if a["traced"] else -1) for a, b in pairs]
        layers["trace.overhead_s"] = (sum(extra) / max(len(extra), 1), "s/op")
        result["layers"] = layers
        tracer.dump(args.out / "spans.json")
    with open(args.out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
