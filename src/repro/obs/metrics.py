"""Structured counters, gauges and monotonic per-phase timers.

The registry is deliberately tiny: metric objects are plain
``__slots__`` holders that hot paths mutate directly (``counter.value
+= n`` is one attribute store), and the registry itself is only touched
at creation and snapshot time.  Engines that batch work (the batched
replay loop) accumulate into locals and flush into these objects at
batch boundaries.

Names are dotted strings (``replay.blocks``, ``harness.dbt``); the
snapshot groups metrics by kind, not by prefix, so consumers can apply
their own namespace conventions.
"""

import time


class Counter:
    """A monotonically growing event count.

    ``value`` is public on purpose: the replayer's batch loop adds to it
    directly, and :class:`~repro.core.replay.ReplayStats` exposes it
    through attribute properties.
    """

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def __repr__(self):
        return "<Counter %s=%s>" % (self.name, self.value)


class Gauge:
    """A last-value-wins measurement (sizes, heights, ratios)."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = None

    def set(self, value):
        self.value = value

    def __repr__(self):
        return "<Gauge %s=%s>" % (self.name, self.value)


class PhaseTimer:
    """Accumulates monotonic wall-clock time spent in one named phase.

    Usable as a context manager (re-entrant starts are rejected so
    nested misuse fails loudly instead of double-counting)::

        with registry.timer("harness.dbt"):
            ...  # the phase
    """

    __slots__ = ("name", "elapsed", "count", "_started")

    def __init__(self, name):
        self.name = name
        self.elapsed = 0.0
        self.count = 0
        self._started = None

    def start(self):
        if self._started is not None:
            raise RuntimeError("timer %r already running" % self.name)
        self._started = time.perf_counter()

    def stop(self):
        if self._started is None:
            raise RuntimeError("timer %r is not running" % self.name)
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        self.count += 1

    @property
    def running(self):
        return self._started is not None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    def __repr__(self):
        return "<PhaseTimer %s %.6fs x%d>" % (self.name, self.elapsed, self.count)


class Histogram:
    """A bounded-reservoir view of a value distribution (latencies).

    Keeps the most recent ``capacity`` observations in a ring buffer
    plus an exact running count and total; percentiles are computed
    over the retained window at read time.  Overwriting the oldest
    sample (rather than random replacement) keeps the metric fully
    deterministic, so tests and benchmarks can assert on p50/p95/p99.
    """

    __slots__ = ("name", "count", "total", "capacity", "_samples",
                 "_cursor")

    DEFAULT_CAPACITY = 4096

    def __init__(self, name, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("histogram capacity must be >= 1")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.capacity = int(capacity)
        self._samples = []
        self._cursor = 0

    def observe(self, value):
        self.count += 1
        self.total += value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.capacity

    def percentile(self, p):
        """Nearest-rank percentile over the retained window.

        ``p`` is in [0, 100]; returns ``None`` when nothing has been
        observed yet.
        """
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        if p <= 0:
            return ordered[0]
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
        return ordered[min(int(rank), len(ordered)) - 1]

    def extend(self, samples, count=None, total=None):
        """Fold raw samples (another histogram's window) into this one.

        ``count``/``total`` override the exact running totals when the
        sample window is itself a truncation (registry merge).
        """
        n_before = self.count
        t_before = self.total
        for value in samples:
            self.observe(value)
        if count is not None:
            self.count = n_before + count
        if total is not None:
            self.total = t_before + total

    def snapshot(self):
        return {
            "count": self.count,
            "total": self.total,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": max(self._samples) if self._samples else None,
        }

    @property
    def samples(self):
        """The retained window (a copy, unsorted)."""
        return list(self._samples)

    def __repr__(self):
        return "<Histogram %s n=%d>" % (self.name, self.count)


class MetricsRegistry:
    """One consistent store for counters, gauges, timers and histograms.

    ``counter`` / ``gauge`` / ``timer`` / ``histogram`` create on first
    use and return the same object thereafter, so independently wired
    components that agree on a name share a metric.
    """

    __slots__ = ("_counters", "_gauges", "_timers", "_histograms")

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._timers = {}
        self._histograms = {}

    # -- creation / access --------------------------------------------

    def counter(self, name):
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name):
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def timer(self, name):
        found = self._timers.get(name)
        if found is None:
            found = self._timers[name] = PhaseTimer(name)
        return found

    def histogram(self, name, capacity=Histogram.DEFAULT_CAPACITY):
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, capacity)
        return found

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    # -- introspection ------------------------------------------------

    def counters(self):
        """Name -> value mapping for all counters (sorted by name)."""
        return {name: self._counters[name].value
                for name in sorted(self._counters)}

    def snapshot(self):
        """JSON-able dict of everything the registry holds."""
        snap = {
            "counters": self.counters(),
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "timers": {
                name: {
                    "seconds": self._timers[name].elapsed,
                    "count": self._timers[name].count,
                }
                for name in sorted(self._timers)
            },
        }
        if self._histograms:
            snap["histograms"] = {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            }
        return snap

    def merge(self, other):
        """Fold another registry (or a snapshot of one) into this one.

        ``other`` may be a :class:`MetricsRegistry`, the dict produced by
        :meth:`snapshot`, or a full ``Observability`` snapshot (the
        wrapper dict with a ``"metrics"`` section).  Counter values and
        timer totals (elapsed seconds and completion counts) add;
        gauges adopt the other side's value when it is not ``None``
        (last writer wins, matching :meth:`Gauge.set` semantics).

        This is how the sharded harness folds per-worker registries
        into the parent's: each worker ships ``snapshot()`` across the
        process boundary and the parent merges them in completion
        order.  Merging is commutative for counters and timers, so the
        completion order does not change the totals.  Returns ``self``
        so merges chain.
        """
        if isinstance(other, MetricsRegistry):
            # Registry-to-registry merges carry the raw histogram
            # windows across; dict snapshots only carry the summary
            # (count/total), folded below.
            for name, histogram in other._histograms.items():
                self.histogram(name, histogram.capacity).extend(
                    histogram._samples, count=histogram.count,
                    total=histogram.total,
                )
            other = other.snapshot()
            other.pop("histograms", None)
        elif "metrics" in other and isinstance(other.get("metrics"), dict):
            other = other["metrics"]
        for name, summary in other.get("histograms", {}).items():
            self.histogram(name).extend(
                (), count=summary.get("count", 0),
                total=summary.get("total", 0.0),
            )
        for name, value in other.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in other.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).value = value
        for name, timing in other.get("timers", {}).items():
            timer = self.timer(name)
            timer.elapsed += timing["seconds"]
            timer.count += timing["count"]
        return self

    def reset(self):
        """Zero every metric (timers must not be running)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = None
        for timer in self._timers.values():
            if timer.running:
                raise RuntimeError("cannot reset running timer %r" % timer.name)
            timer.elapsed = 0.0
            timer.count = 0
        for histogram in self._histograms.values():
            histogram.count = 0
            histogram.total = 0.0
            histogram._samples = []
            histogram._cursor = 0

    def __len__(self):
        return (len(self._counters) + len(self._gauges)
                + len(self._timers) + len(self._histograms))

    def __repr__(self):
        return "<MetricsRegistry %d counters, %d gauges, %d timers, %d histograms>" % (
            len(self._counters), len(self._gauges), len(self._timers),
            len(self._histograms),
        )
