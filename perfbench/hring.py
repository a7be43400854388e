"""hring_dmet_mps: DMET on an H12 ring with MPS-VQE fragment solvers.

Single-atom fragments give 12 embedded problems of 4 qubits each, solved
by UCCSD-VQE on the MPS backend with COBYLA, inside the chemical-potential
fit, dispatched to two process workers.  Thousands of tiny MPS evaluations
make per-call overhead, not big kernels, the cost; this is the only
workload that uses DMET and level-1 fragment dispatch.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time

from common import Outcome, jittered, median, nearest_rank, peak_rss_mb, \
    rng_for
import layers

RING_ATOMS = 12
BASE_BOND = 1.0             # angstrom
BOND_HALF_WIDTH = 0.01      # the seed jitters the bond within +-0.01 A
WORKERS = 2
#: nominal seconds per operation (set-up, solve, check): a run does
#: seconds // OPERATION_S of them, so both sides of a comparison do the
#: same work however fast each is
OPERATION_S = 15.0
#: worker timing files live here, inside the checkout, while a run lasts
SCRATCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".perfbench")
#: DMET-VQE must reproduce DMET-FCI on the same fragments and mu fit; the
#: COBYLA-limited difference is ~1e-4 mHa
MAX_ERROR_MHA = 0.01


def _prepare(bond: float):
    from repro import Q2Chemistry
    from repro.chem.geometry import hydrogen_ring
    from repro.dmet.dmet import atoms_per_fragment

    job = Q2Chemistry.from_molecule(hydrogen_ring(RING_ATOMS, bond))
    return job, atoms_per_fragment(job.system, 1)


def _solve(job, fragments, solver):
    """One operation: (DMET result, wall seconds, [(t0, t1)] per mu sweep)."""
    from repro.dmet.dmet import DMET

    t0 = time.perf_counter()
    dmet = DMET(job.system, fragments, solver, n_workers=WORKERS,
                executor="process")
    sweeps = []
    evaluate = dmet.evaluate

    def timed_evaluate(mu):
        start = time.perf_counter()
        try:
            return evaluate(mu)
        finally:
            sweeps.append((start, time.perf_counter()))

    dmet.evaluate = timed_evaluate
    result = dmet.run()
    return result, time.perf_counter() - t0, sweeps


def _vqe_solver():
    from repro.dmet.solvers import make_fragment_solver

    return make_fragment_solver("vqe-mps")


def _check(out: Outcome, job, fragments, result) -> bool:
    from repro.dmet.dmet import DMET
    from repro.dmet.solvers import make_fragment_solver

    reference = DMET(job.system, fragments,
                     make_fragment_solver("fci")).run()
    error_mha = abs(result.energy - reference.energy) * 1e3
    out.metrics["check.energy_error_mha"] = max(
        error_mha, out.metrics.get("check.energy_error_mha", 0.0))
    residual = abs(result.n_electrons - result.n_electrons_target)
    ok = out.check("hring.electrons_converged",
                   result.converged and residual < 1e-5,
                   f"|N - N_target| = {residual:.2e} after "
                   f"{result.mu_iterations} mu iterations")
    ok &= out.check("hring.matches_dmet_fci", error_mha <= MAX_ERROR_MHA,
                    f"energy_error_mha = {error_mha:.3e} mHa (bound "
                    f"{MAX_ERROR_MHA}; E = {result.energy:.10f}, DMET-FCI = "
                    f"{reference.energy:.10f})")
    return ok


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    bonds = jittered(BASE_BOND, BOND_HALF_WIDTH, rng_for(seed, "hring"),
                     max(1, int(seconds // OPERATION_S)))
    if trace:
        return _traced(out, bonds[0])

    setup, solves, sweeps = [], [], []
    for bond in bonds:
        t0 = time.perf_counter()
        job, fragments = _prepare(bond)
        setup.append(time.perf_counter() - t0)
        out.attempted += 1
        try:
            result, wall, mu_sweeps = _solve(job, fragments, _vqe_solver())
        except Exception as exc:        # a failed operation, reported
            out.failed += 1
            out.notes.append(f"solve raised {type(exc).__name__}: {exc}")
            break
        solves.append(wall)
        sweeps.extend(b - a for a, b in mu_sweeps)
        out.notes.append(f"bond {bond:.5f} A: {wall:.3f} s, "
                         f"{result.mu_iterations} mu sweeps")
        if not _check(out, job, fragments, result):
            out.failed += 1
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.metrics["setup_s"] = median(setup)
    if solves:
        out.metrics["solve_s"] = median(solves)
        out.metrics["latency_p50_s"] = median(sweeps)
        out.metrics["latency_p95_s"] = nearest_rank(sweeps, 0.95)
    return out


def _traced(out: Outcome, bond: float) -> Outcome:
    from repro import obs

    job, fragments = _prepare(bond)
    out.attempted = 2
    _, untraced_s, _ = _solve(job, fragments, _vqe_solver())
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="hring-", dir=SCRATCH)
    try:
        with obs.collect(), layers.traced() as recorder:
            _prepare(bond)
            setup_tally = recorder.drain()
            solver = layers.TimedFragmentSolver(_vqe_solver(), run_dir)
            result, traced_s, mu_sweeps = _solve(job, fragments, solver)
            parent_tally = recorder.drain()
            counters = obs.REGISTRY.snapshot()
        solves = layers.read_worker_files(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)
    if not _check(out, job, fragments, result):
        out.failed += 1

    worker_tally = layers.merge_tallies(row["tally"] for row in solves)
    metrics = layers.layer_metrics(
        layers.merge_tallies([setup_tally, parent_tally, worker_tally]),
        counters)
    durations = [row["t1"] - row["t0"] for row in solves]
    metrics["dmet.fragment_solve_s.p50"] = median(durations)
    metrics["dmet.fragment_solve_s.max"] = max(durations)

    # level-1 dispatch: each mu sweep waits for its busiest worker
    busy_total = overhead = sweep_total = 0.0
    per_worker: dict[int, list] = {}
    for start, end in mu_sweeps:
        busy: dict[int, float] = {}
        for row in solves:
            if start <= row["t0"] <= end:
                busy[row["pid"]] = busy.get(row["pid"], 0.0) \
                    + row["t1"] - row["t0"]
                slot = per_worker.setdefault(row["pid"], [0.0, 0])
                slot[0] += row["t1"] - row["t0"]
                slot[1] += row["evals"]
        busy_total += sum(busy.values())
        overhead += (end - start) - max(busy.values(), default=0.0)
        sweep_total += end - start
    metrics["parallel.worker_busy_frac"] = \
        busy_total / (WORKERS * sweep_total)
    metrics["parallel.dispatch_overhead_s"] = overhead
    metrics["parallel.worker_busy_s.max"] = max(
        s[0] for s in per_worker.values())
    metrics["parallel.worker_busy_s.min"] = min(
        s[0] for s in per_worker.values())
    metrics["parallel.worker_evals.max"] = max(
        s[1] for s in per_worker.values())
    metrics["parallel.worker_evals.min"] = min(
        s[1] for s in per_worker.values())
    out.metrics.update(metrics)

    # coverage along the blocking path: parent layers, then per sweep the
    # dispatch overhead plus the busiest worker's solves
    parent_self = dict(parent_tally["self_s"])
    parent_self.pop("dmet.evaluate", None)
    explained = sum(parent_self.values()) + sweep_total
    out.metrics["trace.coverage"] = explained / traced_s
    out.metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    out.notes.append(f"untraced solve {untraced_s:.3f} s, traced solve "
                     f"{traced_s:.3f} s; {len(solves)} fragment solves on "
                     f"{len(per_worker)} worker processes")
    for pid, (busy, evals) in sorted(per_worker.items()):
        out.notes.append(f"worker {pid}: busy {busy:.3f} s, "
                         f"{evals} VQE evaluations")
    out.notes.append("parent layers (self time, share of solve):")
    out.notes.append(layers.share_table(parent_tally["self_s"], traced_s))
    out.notes.append("worker layers (self time summed over workers):")
    out.notes.append(layers.share_table(worker_tally["self_s"], traced_s))
    return out
