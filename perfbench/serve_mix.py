"""serve_mix: an open-loop, seeded request stream through ``JobService``.

The service is built the way ``python -m repro serve`` builds it without
``--metrics-out``: default cache budget, no per-request observation.  One
thread submits requests at a fixed rate; one thread collects completions
through ``JobService.wait``/``status``.  Requests mix closed-form energies,
small VQE runs and DMET-FCI over a small discrete set of geometries, so
results and prepared systems repeat: the queue, batching and the result and
system caches do the work, and the simulators do little.  Every distinct
request appears at least once (a cache miss) and the rest repeat one
(hits), so both paths are measured in every run.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from common import Outcome, median, nearest_rank, peak_rss_mb, rng_for
import layers

#: slow enough that nearly 1 request in 5 is a cache miss, so p95 falls on
#: the misses' own service times rather than on waits queued behind them,
#: which amplify drifts in CPU speed (see NOTES.md)
REQUESTS_PER_S = 10.0
SETUP_REPEATS = 3
#: the collector re-scans outstanding jobs at least this often, so a job
#: finishing before an older one is stamped at most this late
POLL_S = 0.002

_H2 = (0.70, 0.74, 0.78, 0.82)
_SMALL = (("lih", (1.55, 1.60)), ("ring:6", (1.0, 1.1)),
          ("chain:6", (1.0, 1.1)))
#: every distinct request: (template, molecule, bond lengths, popularity
#: weight of its repeats).  Sixteen statevector-VQE misses of nearly equal
#: cost form the top of the latency distribution under one MPS-VQE miss,
#: so p95 lands on that plateau rather than on waits behind a slow job.
CATALOG = (
    *(({"kind": "energy", "method": m}, mol, bonds, w)
      for m, w in (("hf", 4), ("fci", 3), ("ccsd", 2))
      for mol, bonds in (("h2", _H2), *_SMALL)),
    ({"kind": "vqe", "simulator": "fast"}, "h2", _H2, 2),
    ({"kind": "vqe", "simulator": "statevector"}, "h2",
     tuple(round(0.64 + 0.02 * i, 2) for i in range(16)), 1),
    ({"kind": "vqe", "simulator": "mps"}, "h2", (0.74,), 1),
    ({"kind": "dmet", "solver": "fci"}, "ring:6", (1.0, 1.1), 2),
    ({"kind": "dmet", "solver": "fci"}, "chain:6", (1.0, 1.1), 2),
)


def make_stream(seed: int, n_requests: int) -> list:
    """The seeded request sequence.

    Every distinct spec is introduced once, in a seeded order, one per
    equal stretch of the stream at a random place inside it, so cache
    misses arrive at a steady rate rather than in bursts; every other
    request repeats a spec already introduced, its class drawn by
    popularity weight.
    """
    from repro.serve import JobSpec

    rng = rng_for(seed, "serve_mix")
    classes = [[JobSpec(molecule=mol, bond=bond, **template)
                for bond in bonds]
               for template, mol, bonds, _ in CATALOG]
    distinct = [(c, spec) for c, specs in enumerate(classes)
                for spec in specs]
    order = rng.permutation(len(distinct))
    stride = n_requests / len(distinct)
    new_at = {0 if k == 0 else int((k + rng.random()) * stride):
              distinct[i] for k, i in enumerate(order)}
    weights = np.array([w for *_, w in CATALOG], dtype=float)
    seen: list[list] = [[] for _ in classes]
    stream = []
    for position in range(n_requests):
        if position in new_at:
            c, spec = new_at[position]
            seen[c].append(spec)
        else:
            live = np.array([bool(specs) for specs in seen])
            p = weights * live
            c = int(rng.choice(len(classes), p=p / p.sum()))
            spec = seen[c][int(rng.integers(len(seen[c])))]
        stream.append(spec)
    return stream


def _serve(stream: list, rate: float) -> dict:
    """Play the stream open-loop; returns per-request timings and stats."""
    from repro.serve import JobService

    n = len(stream)
    due = [0.0] * n
    submitted = [0.0] * n
    done_at = [0.0] * n
    ids: list = [None] * n
    failures: list = []
    with JobService(observe=False) as service:
        ready = threading.Semaphore(0)
        t0 = time.perf_counter() + 0.05

        def submit():
            try:
                for i, spec in enumerate(stream):
                    due[i] = t0 + i / rate
                    delay = due[i] - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    submitted[i] = time.perf_counter()
                    ids[i] = service.submit(spec)
                    ready.release()
            except Exception as exc:    # re-raised once both threads end
                failures.append(exc)

        def collect():
            outstanding: list[int] = []
            taken = 0
            while taken < n or outstanding:
                while ready.acquire(blocking=False):
                    outstanding.append(taken)
                    taken += 1
                if not outstanding:
                    if ready.acquire(timeout=0.1):
                        ready.release()
                    elif failures:
                        return
                    continue
                try:
                    service.wait([ids[outstanding[0]]], timeout=POLL_S)
                except TimeoutError:
                    pass
                now = time.perf_counter()
                still = []
                for i in outstanding:
                    if service.status(ids[i]) in ("done", "error"):
                        done_at[i] = now
                    else:
                        still.append(i)
                outstanding = still

        threads = [threading.Thread(target=submit, name="perfbench-submit"),
                   threading.Thread(target=collect, name="perfbench-collect")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        records = [service.record(job_id) for job_id in ids]
        stats = service.stats()
    return {"due": due, "submitted": submitted, "done": done_at,
            "records": records, "stats": stats,
            "wall_s": max(done_at) - t0}


def _direct(spec, systems: dict) -> dict:
    """The same computation as a direct ``Q2Chemistry`` call."""
    from repro import Q2Chemistry
    from repro.chem.geometry import molecule_from_spec

    key = spec.system_key()
    if key not in systems:
        systems[key] = Q2Chemistry.from_molecule(
            molecule_from_spec(spec.molecule, bond=spec.bond),
            basis=spec.basis)
    job = systems[key]
    if spec.kind == "energy":
        return {"energy": {"hf": job.hartree_fock_energy,
                           "fci": job.fci_energy,
                           "ccsd": job.ccsd_energy}[spec.method]()}
    if spec.kind == "vqe":
        res = job.vqe_energy(simulator=spec.simulator,
                             optimizer=spec.optimizer,
                             max_iterations=spec.max_iterations,
                             tolerance=spec.tolerance)
        return {"energy": res.energy,
                "parameters": [float(p) for p in res.parameters]}
    res = job.dmet_energy(solver=spec.solver,
                          atoms_per_group=spec.atoms_per_group)
    return {"energy": res.energy,
            "chemical_potential": res.chemical_potential}


def _check(out: Outcome, played: dict) -> None:
    """Every result equals the direct call; repeated specs agree exactly."""
    #: spec key -> (first served result, direct result)
    expected: dict = {}
    systems: dict = {}
    errors = mismatched = 0
    worst = 0.0
    for record in played["records"]:
        if record.status != "done":
            errors += 1
            out.failed += 1
            continue
        key = record.spec.spec_key()
        if key not in expected:
            expected[key] = (record.result, _direct(record.spec, systems))
        first, direct = expected[key]
        worst = max(worst, abs(record.result["energy"] - direct["energy"]))
        if record.result != first or any(
                record.result[k] != v for k, v in direct.items()):
            mismatched += 1
            out.failed += 1
    out.metrics["check.energy_error_mha"] = worst * 1e3
    out.check("serve.no_job_errors", errors == 0,
              f"{errors} of {len(played['records'])} jobs failed")
    out.check("serve.matches_direct_and_repeats", mismatched == 0,
              f"{mismatched} results differ from the direct call or from "
              f"an earlier result for the same spec ({len(expected)} "
              f"distinct specs)")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.serve import JobService

    out = Outcome()
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        service = JobService(observe=False)
        setup.append(time.perf_counter() - t0)
        service.close()
    out.metrics["setup_s"] = median(setup)
    stream = make_stream(seed, int(round(REQUESTS_PER_S * seconds)))
    out.attempted = len(stream)
    if trace:
        return _traced(out, stream)

    played = _serve(stream, REQUESTS_PER_S)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    latency = [d - s for d, s in zip(played["done"], played["due"])]
    out.metrics["solve_s"] = played["stats"]["busy_s"]
    out.metrics["latency_p50_s"] = median(latency)
    out.metrics["latency_p95_s"] = nearest_rank(latency, 0.95)
    out.notes.append(_summary(played))
    _check(out, played)
    return out


def _lag(played: dict) -> list[float]:
    """How late the generator submitted each request."""
    return [s - d for s, d in zip(played["submitted"], played["due"])]


def _summary(played: dict) -> str:
    stats = played["stats"]
    hits = stats["jobs"]["result_cache_hits"]
    return (f"{len(played['records'])} requests in {played['wall_s']:.2f} s "
            f"at {REQUESTS_PER_S:g}/s; {hits} result-cache hits; busy "
            f"{stats['busy_s']:.3f} s ({stats['busy_s'] / played['wall_s']:.1%}"
            f"); {stats['batches']} batches; generator lag max "
            f"{max(_lag(played)) * 1e3:.1f} ms")


def _traced(out: Outcome, stream: list) -> Outcome:
    from repro import obs

    plain = _serve(stream, REQUESTS_PER_S)
    with obs.collect(), layers.traced() as recorder:
        played = _serve(stream, REQUESTS_PER_S)
        tally = recorder.drain()
        counters = obs.REGISTRY.snapshot()
    _check(out, played)
    out.metrics.update(layers.layer_metrics(tally, counters))
    busy = played["stats"]["busy_s"]
    out.metrics["trace.coverage"] = sum(tally["self_s"].values()) / busy
    out.metrics["trace.overhead"] = busy / plain["stats"]["busy_s"] - 1.0

    records = played["records"]
    latency = [d - s for d, s in zip(played["done"], played["due"])]
    wait = [lat - r.wall_s for lat, r in zip(latency, records)]
    out.metrics["serve.queue_wait_s.p50"] = median(wait)
    out.metrics["serve.queue_wait_s.p95"] = nearest_rank(wait, 0.95)
    for kind, hit in (("hit", True), ("miss", False)):
        service = [r.wall_s for r in records if r.cache_hit is hit]
        out.metrics[f"serve.service_s.{kind}.p50"] = median(service)
        out.metrics[f"serve.service_s.{kind}.p95"] = \
            nearest_rank(service, 0.95)
    cache = played["stats"]["cache"]
    for name in ("result", "system"):
        tally_ns = cache["namespaces"].get(f"serve.{name}",
                                           {"hits": 0, "misses": 0})
        lookups = tally_ns["hits"] + tally_ns["misses"]
        out.metrics[f"serve.{name}_hit_ratio"] = \
            tally_ns["hits"] / lookups if lookups else 0.0
    out.metrics["serve.batches"] = played["stats"]["batches"]
    out.metrics["serve.cache_bytes"] = cache["bytes"]
    out.metrics["serve.cache_evictions"] = cache["totals"]["evictions"]
    out.metrics["serve.busy_frac"] = busy / played["wall_s"]
    lag = _lag(played)
    out.metrics["serve.gen_lag_s.max"] = max(lag)
    out.metrics["serve.gen_lag_s.p95"] = nearest_rank(lag, 0.95)
    out.notes.append(_summary(played))
    out.notes.append(f"untraced busy {plain['stats']['busy_s']:.3f} s, "
                     f"traced busy {busy:.3f} s")
    out.notes.append(layers.share_table(tally["self_s"], busy))
    return out
