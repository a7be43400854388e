"""lih_vqe_d16: LiH/STO-3G MPS-VQE at a truncating bond dimension.

12 qubits, 44 UCCSD parameters, 631 Pauli terms.  One operation is a
two-iteration Adam run with adjoint gradients from the Hartree-Fock
reference at ``max_bond_dimension=16``, serial, with the default ``auto``
measurement path.  MPS state preparation and the adjoint sweep on truncated
states do almost all the work; DMET, the parallel layer and the service do
none.
"""

from __future__ import annotations

import time

from common import Outcome, jittered, median, nearest_rank, peak_rss_mb, \
    rng_for
import layers

BASE_BOND = 1.5949          # angstrom, the repo's LiH reference geometry
BOND_HALF_WIDTH = 0.01      # the seed jitters the bond within +-0.01 A
BOND_DIMENSION = 16
ITERATIONS = 2
SETUP_REPEATS = 3
#: nominal seconds per operation: a run does seconds // OPERATION_S of
#: them, so both sides of a comparison do the same work
OPERATION_S = 25.0
#: a re-evaluation of the same state on the exact MPO path must agree to
#: rounding; the gauge defect on truncated states is ~18 mHa
REEVAL_TOLERANCE_HA = 1e-9


def _prepare(bond: float):
    from repro import Q2Chemistry
    from repro.chem.geometry import lih
    from repro.circuits.uccsd import UCCSDAnsatz

    job = Q2Chemistry.from_molecule(lih(bond))
    mo = job.mo_integrals
    return job, job.qubit_hamiltonian(), UCCSDAnsatz(mo.n_orbitals,
                                                     mo.n_electrons)


class _IterationClock:
    """Energy-callable proxy stamping the end of every Adam iteration.

    Adam evaluates the energy exactly once per iteration, after the
    gradient step, so the gaps between those calls are iteration times.
    """

    def __init__(self, evaluator, start: float):
        self._inner = evaluator
        self.stamps = [start]

    def __call__(self, theta):
        energy = self._inner(theta)
        self.stamps.append(time.perf_counter())
        return energy

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def iteration_times(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


def _solve(hamiltonian, ansatz):
    """One operation: (result, wall seconds, per-iteration seconds)."""
    from repro.vqe.vqe import VQE

    t0 = time.perf_counter()
    with VQE(hamiltonian, ansatz, simulator="mps",
             max_bond_dimension=BOND_DIMENSION, optimizer="adam",
             grad="adjoint", max_iterations=ITERATIONS) as vqe:
        clock = _IterationClock(vqe.evaluator, t0)
        vqe.evaluator = clock
        result = vqe.run()
    return result, time.perf_counter() - t0, clock.iteration_times()


def _check(out: Outcome, job, hamiltonian, ansatz, result) -> bool:
    """The reported energy is the true <psi|H|psi> of the returned state."""
    from repro.vqe.vqe import VQE

    theta = result.parameters
    energy = result.energy
    mpo = VQE(hamiltonian, ansatz, simulator="mps",
              max_bond_dimension=BOND_DIMENSION,
              measurement="mpo").evaluator.energy(theta)
    exact = VQE(hamiltonian, ansatz,
                simulator="statevector").evaluator.energy(theta)
    fci = job.fci_energy()
    error_mha = abs(energy - exact) * 1e3
    out.metrics["check.energy_error_mha"] = error_mha
    out.notes.append(
        f"energy_error_mha = {error_mha:.6f} mHa  (E = {energy:.10f}, "
        f"untruncated <psi|H|psi> = {exact:.10f}, FCI = {fci:.10f})")
    ok = out.check("lih.reported_equals_mpo_reeval",
                   abs(energy - mpo) <= REEVAL_TOLERANCE_HA,
                   f"|E - E_mpo(theta)| = {abs(energy - mpo):.3e} Ha "
                   f"(tolerance {REEVAL_TOLERANCE_HA:g})")
    ok &= out.check("lih.at_or_above_fci", energy >= fci,
                    f"E - E_fci = {energy - fci:+.6e} Ha")
    ok &= out.check("lih.iterations_run",
                    result.n_iterations == ITERATIONS,
                    f"{result.n_iterations} of {ITERATIONS}")
    return ok


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    bond, = jittered(BASE_BOND, BOND_HALF_WIDTH, rng_for(seed, "lih"), 1)
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prepared = _prepare(bond)
        setup.append(time.perf_counter() - t0)
    out.metrics["setup_s"] = median(setup)
    job, hamiltonian, ansatz = prepared
    out.notes.append(f"LiH bond {bond:.5f} A, {len(hamiltonian.terms)} "
                     f"Pauli terms, {ansatz.n_parameters} parameters")

    if trace:
        return _traced(out, bond, job, hamiltonian, ansatz)

    solves, iterations, last = [], [], None
    for _ in range(max(1, int(seconds // OPERATION_S))):
        out.attempted += 1
        try:
            result, wall, per_iteration = _solve(hamiltonian, ansatz)
        except Exception as exc:        # a failed operation, reported
            out.failed += 1
            out.notes.append(f"solve raised {type(exc).__name__}: {exc}")
            break
        solves.append(wall)
        iterations.extend(per_iteration)
        if last is not None and result.energy != last.energy:
            out.failed += 1
            out.check("lih.repeat_identical", False,
                      f"{result.energy!r} != {last.energy!r}")
        last = result
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    if last is not None:
        out.metrics["solve_s"] = median(solves)
        out.metrics["latency_p50_s"] = median(iterations)
        out.metrics["latency_p95_s"] = nearest_rank(iterations, 0.95)
        if not _check(out, job, hamiltonian, ansatz, last):
            out.failed += 1
    out.notes.append(f"{len(solves)} solve(s): "
                     + ", ".join(f"{s:.3f} s" for s in solves))
    return out


def _traced(out: Outcome, bond: float, job, hamiltonian, ansatz) -> Outcome:
    from repro import obs

    out.attempted = 2
    _, untraced_s, _ = _solve(hamiltonian, ansatz)
    with obs.collect(), layers.traced() as recorder:
        _prepare(bond)
        setup_tally = recorder.drain()
        result, traced_s, _ = _solve(hamiltonian, ansatz)
        solve_tally = recorder.drain()
        counters = obs.REGISTRY.snapshot()
    if not _check(out, job, hamiltonian, ansatz, result):
        out.failed += 1
    out.metrics.update(layers.layer_metrics(
        layers.merge_tallies([setup_tally, solve_tally]), counters))
    out.metrics["trace.coverage"] = \
        sum(solve_tally["self_s"].values()) / traced_s
    out.metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    out.notes.append(f"untraced solve {untraced_s:.3f} s, traced solve "
                     f"{traced_s:.3f} s")
    out.notes.append(layers.share_table(solve_tally["self_s"], traced_s))
    return out
