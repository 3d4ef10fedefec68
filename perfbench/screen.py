"""Regenerates ``pool.json``: the candidates the program fails on today.

Usage (from the root of a checkout):

    python3 perfbench/screen.py --pool frontier
    python3 perfbench/screen.py --pool curve
    python3 perfbench/screen.py --pool block

Runs every candidate of the named pool once through the program and
rewrites that pool's section of ``pool.json``: the indices that raised (or,
for curves, made ``hcurve`` exit non-zero) with their errors, and the number
of pieces K of each curve candidate. The benchmark leaves those indices out,
because an operation that fails on some seeds only would make the failed
share differ from run to run. Re-run it when the program's numerics change
(for instance once the pivot tolerance is mended), and say so in CHANGES.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import privguess as pg  # noqa: E402
import privguess.cli  # noqa: E402,F401  (not imported by the package itself)

import workloads as wl  # noqa: E402


def screen_frontier(cls: str, index: int) -> None:
    p, eps = wl.frontier_candidate(cls, index)
    pg.best_filter(pg.JointDistribution(p), eps)


def screen_curve(cls: str, index: int, tmp: Path) -> int:
    p = wl.bibo_candidate(index) if cls == "bibo" else wl.curve_candidate(cls, index)
    path = tmp / "joint.json"
    path.write_text(json.dumps({"joint": p.tolist()}), encoding="utf-8")
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = pg.cli.main(["hcurve", "--joint", str(path), "--points", "21", "--breakpoints"])
    if code != 0:
        raise pg.PrivguessError(f"hcurve exited {code}: {err.getvalue().strip()}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])["K"]


def screen_block(cls: str, index: int) -> None:
    p, alpha = wl.block_candidate(index)
    est = pg.validity_threshold(pg.VectorModel(2, p, alpha))
    if not est.certified:
        raise pg.PrivguessError("threshold not certified")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pool", required=True, choices=("frontier", "curve", "block"))
    args = ap.parse_args()
    classes = {"frontier": list(wl.FRONTIER_CLASSES),
               "curve": ["bibo", *wl.CURVE_TEMPLATES], "block": ["n2"]}[args.pool]
    excluded: dict[str, list[int]] = {}
    notes: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for cls in classes:
            errors: dict[int, str] = {}
            pieces: Counter[int] = Counter()
            for index in range(wl.POOL_SIZES[args.pool]):
                try:
                    if args.pool == "frontier":
                        screen_frontier(cls, index)
                    elif args.pool == "curve":
                        pieces[screen_curve(cls, index, Path(tmp))] += 1
                    else:
                        screen_block(cls, index)
                except pg.PrivguessError as exc:
                    errors[index] = f"{type(exc).__name__}: {exc}"[:160]
            excluded[cls] = sorted(errors)
            notes[cls] = {"tried": wl.POOL_SIZES[args.pool], "errors": errors}
            if pieces:
                notes[cls]["K"] = dict(sorted(pieces.items()))
            print(cls, f"{len(errors)}/{wl.POOL_SIZES[args.pool]} excluded", dict(pieces), flush=True)

    doc = {"excluded": {}, "notes": {}}
    if wl.POOL_FILE.exists():
        doc = json.loads(wl.POOL_FILE.read_text(encoding="utf-8"))
    doc["pool_seed"] = wl.POOL_SEED
    doc["backend"] = pg.KERNEL_BACKEND
    doc["excluded"][args.pool] = excluded
    doc["notes"][args.pool] = notes
    wl.POOL_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
