"""End-to-end benchmark of the repro library, broken down by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload lih_vqe_d16 --seed 1 --seconds 30 \\
        --trace 0

``--workload all`` runs the three in turn in one process and prints a
block, ending in its JSON line, for each.  Workloads (see
``perfbench/NOTES.md`` for why each was chosen):

* ``lih_vqe_d16`` - LiH MPS-VQE, Adam with adjoint gradients at D=16;
* ``hring_dmet_mps`` - DMET on an H12 ring with MPS-VQE fragment solvers
  on two process workers;
* ``serve_mix`` - an open-loop seeded request stream through ``JobService``.

``--trace 0`` measures with nothing instrumented and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload
once plainly and once with every layer's public calls timed, and reports
the per-layer metrics.  Human-readable lines (notes, every correctness
check with its verdict, every metric with its unit) come first; the last
line is the JSON result.  The library is imported from ``src/`` next to
this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("lih_vqe_d16", "hring_dmet_mps", "serve_mix")


def _import_library() -> float:
    """Import the library stack; returns seconds since this script began."""
    sys.path.insert(0, SRC)
    import repro.q2chem  # noqa: F401  (chem, operators, vqe, dmet)
    import repro.serve  # noqa: F401
    return time.perf_counter() - _START


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _report(name: str, outcome, declared: dict, trace: bool) -> None:
    """Print the human-readable block, then the JSON result line."""
    known = {**declared["end_to_end"], **declared["per_layer"]}
    unknown = sorted(set(outcome.metrics) - set(known))
    if unknown:
        raise SystemExit(f"error: undeclared metrics {unknown}")
    wanted = declared["per_layer" if trace else "end_to_end"]
    missing = sorted(m for m in wanted if m not in outcome.metrics)
    if missing and not trace:
        raise SystemExit(f"error: {name} produced no {missing}")
    print(f"workload {name}  trace {int(trace)}")
    for line in outcome.notes:
        print(line)
    for check, passed, detail in outcome.checks:
        print(f"check {check}: {'PASS' if passed else 'FAIL'}  ({detail})")
    for metric, value in sorted(outcome.metrics.items()):
        print(f"metric {metric} = {value:.6g} {known[metric]}")
    print(f"operations: {outcome.attempted} attempted, {outcome.failed} failed")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {m: {"value": float(outcome.metrics.get(m, 0.0)),
                        "unit": unit} for m, unit in wanted.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: library source not found under {SRC}",
              file=sys.stderr)
        return 2
    declared = _declared()
    import_s = _import_library()
    sys.path.insert(0, HERE)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        module = importlib.import_module(
            {"lih_vqe_d16": "lih", "hring_dmet_mps": "hring",
             "serve_mix": "serve_mix"}[name])
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
        if "setup_s" in outcome.metrics:
            # every workload's set-up includes the one-time library import
            outcome.metrics["setup_s"] += import_s
        _report(name, outcome, declared, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
