"""Per-layer timing for the traced benchmark run.

The benchmark times the library from outside: :func:`traced` replaces each
layer's public function with a wrapper that records, per layer, the call
count and the *self* time (the call's wall time minus the part covered by
nested traced calls).  Self times of nested spans partition the time the
outermost spans cover, so their sum divided by a workload's wall time is
the share of that wall time the trace explains (``trace.coverage``).

Process workers are forked with the wrappers already installed.  A forked
worker starts a fresh tally (a fork hook resets it), and the
fragment-solver wrapper :class:`TimedFragmentSolver` appends the worker's
tally after every solve to a per-worker JSON-lines file that the parent
reads back: the library's ``repro.obs`` merge path carries counters only.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: (layer, owner, attribute) for every public call the traced run times.
#: ``owner`` is a module or class path; module-level functions are also
#: replaced in every ``repro`` module that imported them by name.
TRACED_CALLS = (
    ("chem.scf", "repro.q2chem:Q2Chemistry", "from_molecule"),
    ("chem.fci", "repro.q2chem:Q2Chemistry", "fci_energy"),
    ("chem.ccsd", "repro.q2chem:Q2Chemistry", "ccsd_energy"),
    ("operators.hamiltonian", "repro.operators.molecular",
     "molecular_qubit_hamiltonian"),
    ("circuits.fusion", "repro.circuits.fusion", "fuse_single_qubit_gates"),
    ("simulators.state_prep", "repro.simulators.mps_circuit:MPSSimulator",
     "run"),
    ("simulators.svd", "repro.simulators.kernels", "svd_truncated"),
    ("simulators.gemm", "repro.simulators.kernels", "tensordot_fused"),
    ("simulators.measure", "repro.simulators.mps_measure:MPSMeasurementEngine",
     "expectation"),
    ("vqe.energy", "repro.vqe.energy:EnergyEvaluator", "energy"),
    ("vqe.grad", "repro.vqe.gradients", "adjoint_gradient"),
    ("vqe.rdm", "repro.vqe.rdm", "measure_rdms"),
    ("vqe.optimizer", "repro.vqe.vqe:VQE", "run"),
    ("dmet.bath", "repro.dmet.bath", "build_bath"),
    ("dmet.embedding", "repro.dmet.embedding", "build_embedding_hamiltonian"),
    ("dmet.evaluate", "repro.dmet.dmet:DMET", "evaluate"),
)


class Recorder:
    """Per-layer call counts and self times, one tally per process."""

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def drain(self) -> dict:
        """This process's tally as plain dicts; the tally restarts at zero."""
        out = {"self_s": dict(self.self_s), "calls": dict(self.calls)}
        self.self_s.clear()
        self.calls.clear()
        return out

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` and charge its self time to ``layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            self.self_s[layer] += dt - child
            self.calls[layer] += 1
            if stack:
                stack[-1] += dt

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)

        return timed


RECORDER = Recorder()
# a forked worker inherits the parent's tally and open spans: start afresh
os.register_at_fork(after_in_child=RECORDER.reset)


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return module, (getattr(module, cls_name) if cls_name else None)


@contextlib.contextmanager
def traced():
    """Install the layer wrappers and record; restore the originals on exit."""
    undo: list[tuple[object, str, object]] = []
    for layer, owner, attr in TRACED_CALLS:
        module, cls = _resolve(owner)
        if cls is not None:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(RECORDER.wrap(layer, raw.__func__))
            else:
                new = RECORDER.wrap(layer, raw)
            # aliases such as ``EnergyEvaluator.__call__ = energy``
            for name, value in list(vars(cls).items()):
                if value is raw:
                    undo.append((cls, name, raw))
                    setattr(cls, name, new)
            continue
        original = getattr(module, attr)
        new = RECORDER.wrap(layer, original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, new)
    RECORDER.reset()
    RECORDER.enabled = True
    try:
        yield RECORDER
    finally:
        RECORDER.enabled = False
        for target, name, value in reversed(undo):
            setattr(target, name, value)


class TimedFragmentSolver:
    """Wraps a DMET fragment solver and ships per-solve timings to a file.

    Each solve appends one JSON line to ``<out_dir>/worker-<pid>.jsonl``:
    the solve's start/end on the shared monotonic clock, the VQE
    evaluation count, and the worker's layer tally since its last solve.
    Pickles to process workers like the solver it wraps.
    """

    picklable = True

    def __init__(self, inner, out_dir: str):
        self.inner = inner
        self.name = inner.name
        self.out_dir = out_dir

    def solve(self, problem, mu: float = 0.0):
        t0 = time.perf_counter()
        solution = RECORDER.span("dmet.fragment_solve", self.inner.solve,
                                 problem, mu)
        t1 = time.perf_counter()
        line = {
            "pid": os.getpid(), "t0": t0, "t1": t1,
            "evals": int((solution.details or {}).get("vqe_evaluations", 0)),
            "tally": RECORDER.drain(),
        }
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        return solution


def read_worker_files(out_dir: str) -> list[dict]:
    """Every per-solve line the workers wrote, in start-time order."""
    lines = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                lines.extend(json.loads(row) for row in fh if row.strip())
    return sorted(lines, key=lambda row: row["t0"])


def merge_tallies(tallies) -> dict:
    """Sum several drained tallies (e.g. set-up and solve, or workers)."""
    merged = {"self_s": defaultdict(float), "calls": defaultdict(int)}
    for tally in tallies:
        for key in ("self_s", "calls"):
            for layer, value in tally[key].items():
                merged[key][layer] += value
    return {key: dict(value) for key, value in merged.items()}


def _counter(counters: dict, name: str, **labels) -> float:
    """Total of a ``repro.obs`` counter, or of its slots matching labels."""
    inst = counters.get(name) or {}
    return float(sum(
        slot["value"] for slot in inst.get("values", ())
        if all(slot["labels"].get(k) == v for k, v in labels.items())))


def _gauge_max(counters: dict, name: str) -> float:
    inst = counters.get(name) or {}
    return float(max((slot["value"] for slot in inst.get("values", ())),
                     default=0.0))


def layer_metrics(tally: dict, counters: dict) -> dict:
    """Per-layer metrics from a timing tally and a ``repro.obs`` snapshot."""
    from repro.obs.cost import phase_costs

    self_s, calls = tally["self_s"], tally["calls"]
    out = {f"{layer}_s": self_s.get(layer, 0.0) for layer in (
        "chem.scf", "chem.fci", "chem.ccsd", "operators.hamiltonian",
        "circuits.fusion",
        "simulators.state_prep", "simulators.svd", "simulators.gemm",
        "simulators.measure", "vqe.energy", "vqe.grad", "vqe.rdm",
        "vqe.optimizer", "dmet.bath", "dmet.embedding")}
    out["operators.hamiltonian_calls"] = calls.get("operators.hamiltonian", 0)
    out["circuits.fusion_calls"] = calls.get("circuits.fusion", 0)
    out.update({
        "simulators.gate_2q": _counter(counters, "mps.gate_2q"),
        "simulators.swaps": _counter(counters, "mps.swap"),
        "simulators.svd_calls": _counter(counters, "kernels.svd_calls"),
        "simulators.gemm_calls": _counter(counters, "kernels.gemm_calls"),
        "simulators.discarded_weight":
            _counter(counters, "mps.discarded_weight"),
        "simulators.max_bond": _gauge_max(counters, "mps.max_bond_dimension"),
        "simulators.measure_evals":
            _counter(counters, "mps_measure.evaluations"),
        "vqe.energy_evals": _counter(counters, "vqe.energy_evaluations"),
        "vqe.grad_eval_equivalents":
            _counter(counters, "grad.eval_equivalents"),
        "dmet.fragment_solves": _counter(counters, "dmet.fragment_solves"),
        "dmet.mu_iterations": _counter(counters, "dmet.mu_iterations"),
    })
    for path in ("sweep", "mpo", "per_term"):
        out[f"simulators.measure_path.{path}"] = _counter(
            counters, "mps_measure.evaluations", path=path)
    # modeled flops (repro.obs.cost) over measured time: computed, not timed
    phases = phase_costs(counters)
    prep_s = (out["simulators.state_prep_s"] + out["simulators.svd_s"]
              + out["simulators.gemm_s"] + out["vqe.grad_s"])
    prep_flops = phases.get("state_prep", {}).get("flops", 0.0)
    out["simulators.state_prep_gflops"] = \
        prep_flops / prep_s / 1e9 if prep_s else 0.0
    measure_flops = phases.get("measurement_mps", {}).get("flops", 0.0)
    out["simulators.measure_gflops"] = \
        measure_flops / out["simulators.measure_s"] / 1e9 \
        if out["simulators.measure_s"] else 0.0
    return out


def share_table(self_s: dict, wall_s: float) -> str:
    """Printable per-layer self time with its share of ``wall_s``."""
    rows = [f"{'layer':<26}{'self s':>10}{'share':>8}"]
    for layer, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        rows.append(f"{layer:<26}{value:>10.4f}{value / wall_s:>8.1%}")
    rows.append(f"{'(sum)':<26}{sum(self_s.values()):>10.4f}"
                f"{sum(self_s.values()) / wall_s:>8.1%}")
    return "\n".join(rows)
