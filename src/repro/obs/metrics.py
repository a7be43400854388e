"""The metrics registry: counters, gauges and histograms with labels.

Design constraints (in priority order):

1. **Free when disabled.**  Every instrument checks one shared boolean and
   returns before touching any other state, so instrumented hot paths -
   gate applications, batched GEMM sweeps, group dispatches - cost a
   single attribute load + branch per event when observability is off
   (the default).
2. **Deterministic when enabled.**  Counters record *algorithmic* event
   counts (gates applied, SVDs taken, tasks dispatched), never wall time,
   so their values are exact integers/floats reproducible across runs,
   machines and worker counts.  The regression suite pins them.
3. **Zero dependencies.**  Plain dicts and a :mod:`threading` lock; the
   JSON export is stdlib-only (:mod:`repro.obs.export`).

Instruments are created once at import time through the module-level
factories (:func:`counter` / :func:`gauge` / :func:`histogram`) and held
in module globals by the instrumented code, so the per-event path never
performs a registry lookup.  Labels are passed as keyword arguments:

>>> from repro import obs
>>> svds = obs.counter("demo.svd", "SVDs taken")
>>> with obs.collect() as reg:
...     svds.inc()
...     svds.inc(2, site=3)
>>> reg.value("demo.svd")
1
>>> reg.value("demo.svd", site=3)
2
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.common.errors import ValidationError

#: value key for the label-less slot of an instrument
_NO_LABELS: tuple = ()

#: histogram summaries keep these aggregate fields (no buckets: the use
#: cases here - batch sizes, reduction widths - need distribution shape,
#: not quantiles, and aggregates stay deterministic under any merge order)
_HIST_FIELDS = ("count", "sum", "min", "max")


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable form of a label set (sorted by label name)."""
    if not labels:
        return _NO_LABELS
    return tuple(sorted(labels.items()))


class Instrument:
    """Base class: one named metric with per-label-set values."""

    kind = "instrument"

    __slots__ = ("name", "description", "unit", "_registry", "_values")

    def __init__(self, name: str, description: str, unit: str,
                 registry: "MetricsRegistry"):
        self.name = name
        self.description = description
        self.unit = unit
        self._registry = registry
        self._values: dict[tuple, object] = {}

    # -- shared plumbing ------------------------------------------------------

    def _reset(self) -> None:
        self._values.clear()

    def items(self) -> Iterator[tuple[dict, object]]:
        """(labels dict, value) pairs in sorted label order."""
        for key in sorted(self._values, key=repr):
            yield dict(key), self._values[key]

    def snapshot(self) -> dict:
        """JSON-ready description of this instrument and its values."""
        return {
            "type": self.kind,
            "description": self.description,
            "unit": self.unit,
            "values": [
                {"labels": labels, "value": value}
                for labels, value in self.items()
            ],
        }


class Counter(Instrument):
    """Monotonically increasing event count (per label set)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, value: float = 1, **labels) -> None:
        """Add ``value`` (default 1) to the labelled slot; no-op when
        the registry is disabled."""
        reg = self._registry
        if not reg.enabled:
            return
        if value < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (got {value})"
            )
        key = _label_key(labels)
        with reg._lock:
            self._values[key] = self._values.get(key, 0) + value


class Gauge(Instrument):
    """Last-written value (per label set); also supports set-to-max."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels) -> None:
        """Overwrite the labelled slot; no-op when disabled."""
        reg = self._registry
        if not reg.enabled:
            return
        with reg._lock:
            self._values[_label_key(labels)] = value

    def set_max(self, value: float, **labels) -> None:
        """Keep the running maximum of the labelled slot."""
        reg = self._registry
        if not reg.enabled:
            return
        key = _label_key(labels)
        with reg._lock:
            cur = self._values.get(key)
            if cur is None or value > cur:
                self._values[key] = value


class Histogram(Instrument):
    """Aggregate distribution summary: count / sum / min / max."""

    kind = "histogram"
    __slots__ = ()

    def observe(self, value: float, **labels) -> None:
        """Fold one observation into the labelled summary."""
        reg = self._registry
        if not reg.enabled:
            return
        key = _label_key(labels)
        with reg._lock:
            slot = self._values.get(key)
            if slot is None:
                self._values[key] = {
                    "count": 1, "sum": value, "min": value, "max": value,
                }
            else:
                slot["count"] += 1
                slot["sum"] += value
                if value < slot["min"]:
                    slot["min"] = value
                if value > slot["max"]:
                    slot["max"] = value

    def observe_many(self, values, **labels) -> None:
        """Fold a batch of observations in one lock/lookup round trip.

        Bitwise-equivalent to calling :meth:`observe` once per value in
        order (the sum is folded left-to-right from the existing slot), but
        pays the label canonicalization, dict lookup and lock acquisition
        once per batch instead of once per event - the executor dispatch
        sites observe whole chunk layouts through this path.
        """
        reg = self._registry
        if not reg.enabled:
            return
        values = list(values)
        if not values:
            return
        key = _label_key(labels)
        with reg._lock:
            slot = self._values.get(key)
            if slot is None:
                # match observe(): the first value seeds the summary
                slot = {"count": 1, "sum": values[0],
                        "min": values[0], "max": values[0]}
                self._values[key] = slot
                rest = values[1:]
            else:
                rest = values
            acc = slot["sum"]
            lo, hi = slot["min"], slot["max"]
            for v in rest:
                acc += v
                if v < lo:
                    lo = v
                if v > hi:
                    hi = v
            slot["count"] += len(rest)
            slot["sum"] = acc
            slot["min"] = lo
            slot["max"] = hi


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Holds every instrument; one process-wide instance by default.

    ``enabled`` is the single switch every instrument checks first; it
    starts False so importing instrumented modules costs nothing.  The
    lock only guards *enabled* mutations (the thread executor increments
    counters from worker threads; without it increments could be lost).
    """

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}
        #: (name, label key) -> worker id of the last merged gauge write;
        #: maintained only by :meth:`merge` (last-write-by-worker-id)
        self._gauge_provenance: dict[tuple, int] = {}

    # -- instrument creation ---------------------------------------------------

    def _make(self, kind: str, name: str, description: str,
              unit: str) -> Instrument:
        hit = self._instruments.get(name)
        if hit is not None:
            if hit.kind != kind:
                raise ValidationError(
                    f"metric {name!r} already registered as {hit.kind}, "
                    f"cannot re-register as {kind}"
                )
            return hit
        inst = _KINDS[kind](name, description, unit, self)
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, description: str = "",
                unit: str = "1") -> Counter:
        """Create (or fetch) the counter called ``name``."""
        return self._make("counter", name, description, unit)

    def gauge(self, name: str, description: str = "",
              unit: str = "1") -> Gauge:
        """Create (or fetch) the gauge called ``name``."""
        return self._make("gauge", name, description, unit)

    def histogram(self, name: str, description: str = "",
                  unit: str = "1") -> Histogram:
        """Create (or fetch) the histogram called ``name``."""
        return self._make("histogram", name, description, unit)

    # -- lifecycle -------------------------------------------------------------

    def enable(self) -> None:
        """Start recording (values accumulate from here)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (instruments return immediately again)."""
        self.enabled = False

    def reset(self) -> None:
        """Zero every instrument's values (registrations survive)."""
        with self._lock:
            for inst in self._instruments.values():
                inst._reset()
            self._gauge_provenance.clear()

    # -- cross-process merging ---------------------------------------------------

    def merge(self, metrics, *, worker: int | None = None) -> float:
        """Fold another registry's values into this one, deterministically.

        ``metrics`` is a :class:`MetricsRegistry` or a metrics snapshot
        mapping (``{name: instrument snapshot}``, the shape
        :meth:`snapshot` produces and worker processes ship back through
        the executor reduction path).  Merge semantics are
        **merge-order invariant** so the parent's totals do not depend on
        which worker's delta lands first:

        * **counters add** - totals equal the serial run's for any worker
          count (extends the bitwise-determinism guarantee to telemetry);
        * **gauges are last-write-by-worker-id** - among merged snapshots
          the write from the highest ``worker`` id wins (tracked per slot
          in ``_gauge_provenance``); an unattributed merge
          (``worker=None``) plainly overwrites;
        * **histograms combine aggregate fields** - counts and sums add,
          mins/maxes extremize.

        When ``worker`` is given the merge is also recorded in two
        built-in per-worker counters - ``obs.merges{worker=w}`` (snapshots
        merged) and ``obs.merged_events{worker=w}`` (counter series, i.e.
        label slots, merged - a count, never a sum of counter values, so
        float counters such as flop totals cannot inflate it) - which
        make per-worker load imbalance visible without disturbing the
        merged totals of any other metric.

        Values are written directly (bypassing the ``enabled`` flag): a
        merge is deterministic bookkeeping of already-recorded data, not a
        hot-path event.  Returns the total counter increment merged.
        """
        if isinstance(metrics, MetricsRegistry):
            metrics = metrics.snapshot()
        counter_delta = 0.0
        counter_series = 0
        with self._lock:
            for name in sorted(metrics):
                snap = metrics[name]
                kind = snap.get("type")
                if kind not in _KINDS:
                    raise ValidationError(
                        f"cannot merge metric {name!r} of kind {kind!r}"
                    )
                inst = self._instruments.get(name)
                if inst is None:
                    inst = _KINDS[kind](name, snap.get("description", ""),
                                        snap.get("unit", "1"), self)
                    self._instruments[name] = inst
                elif inst.kind != kind:
                    raise ValidationError(
                        f"metric {name!r} is a {inst.kind} here but a "
                        f"{kind} in the merged snapshot"
                    )
                for slot in snap.get("values", ()):
                    key = _label_key(dict(slot.get("labels") or {}))
                    value = slot["value"]
                    if kind == "counter":
                        inst._values[key] = inst._values.get(key, 0) + value
                        counter_delta += value
                        counter_series += 1
                    elif kind == "gauge":
                        pkey = (name, key)
                        prev = self._gauge_provenance.get(pkey)
                        if worker is None:
                            inst._values[key] = value
                        elif prev is None or worker >= prev:
                            inst._values[key] = value
                            self._gauge_provenance[pkey] = worker
                    else:  # histogram
                        cur = inst._values.get(key)
                        if cur is None:
                            inst._values[key] = {
                                "count": value["count"], "sum": value["sum"],
                                "min": value["min"], "max": value["max"],
                            }
                        else:
                            cur["count"] += value["count"]
                            cur["sum"] += value["sum"]
                            if value["min"] < cur["min"]:
                                cur["min"] = value["min"]
                            if value["max"] > cur["max"]:
                                cur["max"] = value["max"]
            if worker is not None:
                wkey = _label_key({"worker": int(worker)})
                merges = self._make(
                    "counter", "obs.merges",
                    "worker metric snapshots merged, labelled by worker "
                    "slot", "1")
                merges._values[wkey] = merges._values.get(wkey, 0) + 1
                events = self._make(
                    "counter", "obs.merged_events",
                    "counter series (label slots) merged from worker "
                    "snapshots, labelled by worker slot", "1")
                events._values[wkey] = \
                    events._values.get(wkey, 0) + counter_series
        return counter_delta

    # -- reading ---------------------------------------------------------------

    def names(self) -> list[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._instruments)

    def get(self, name: str) -> Instrument:
        """Instrument by name; raises listing what exists."""
        inst = self._instruments.get(name)
        if inst is None:
            raise ValidationError(
                f"unknown metric {name!r}; registered: "
                f"{', '.join(self.names()) or '(none)'}"
            )
        return inst

    def value(self, name: str, default=0, **labels):
        """Current value of one labelled slot (``default`` if unwritten)."""
        return self.get(name)._values.get(_label_key(labels), default)

    def snapshot(self) -> dict:
        """JSON-ready ``{name: instrument snapshot}`` of non-empty metrics."""
        with self._lock:
            return {
                name: inst.snapshot()
                for name, inst in sorted(self._instruments.items())
                if inst._values
            }


#: the process-wide registry every module-level factory binds to
REGISTRY = MetricsRegistry()


def counter(name: str, description: str = "", unit: str = "1") -> Counter:
    """Create (or fetch) a counter on the global registry."""
    return REGISTRY.counter(name, description, unit)


def gauge(name: str, description: str = "", unit: str = "1") -> Gauge:
    """Create (or fetch) a gauge on the global registry."""
    return REGISTRY.gauge(name, description, unit)


def histogram(name: str, description: str = "", unit: str = "1") -> Histogram:
    """Create (or fetch) a histogram on the global registry."""
    return REGISTRY.histogram(name, description, unit)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
]
