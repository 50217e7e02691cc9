"""Mergeable, deterministic metrics registry (``repro-metrics-snapshot/1``).

Three instrument kinds, all designed so that snapshots taken on different
shards/workers can be merged *exactly* — the merged snapshot serializes to
the same bytes regardless of merge order:

* :class:`Counter` — monotonic non-negative integer; merge = integer sum.
* :class:`Gauge` — last-set integer level (queue depth, resident tenants);
  merge = integer sum, so the merged gauge reads as the fleet-wide total.
* :class:`LogHistogram` — bounded log-bucketed value sketch (DDSketch-style)
  for latencies and sizes.  Memory is O(buckets), never O(observations):
  values are clamped into ``[1e-9, 1e9]`` and mapped to at most
  :data:`MAX_BUCKETS` geometric buckets, so a shard can observe billions of
  events without its snapshot growing.

**Relative-error bound.** A histogram built with relative accuracy
``alpha`` (default :data:`DEFAULT_ALPHA` = 0.05) maps a value ``v`` to
bucket ``ceil(log(v) / log(gamma))`` with ``gamma = (1+alpha)/(1-alpha)``
and reports the bucket midpoint ``2*gamma**i / (gamma+1)`` — guaranteed
within ``alpha`` (5%) *relative* error of any value in the bucket.  Hence
every quantile estimate ``q_est`` satisfies ``|q_est - q_exact| <= alpha *
q_exact`` for values inside the clamp range, and ``quantile(1.0)`` returns
the exact observed maximum (the sketch tracks exact min/max alongside the
buckets).  This is the bound documented in DESIGN.md §3.13 and relied on
by the ``latency_summary`` keys in ``repro-service-metrics/1``.

**Merge determinism.** Counters, gauges and bucket counts are integers;
the histogram sum is tracked in integer *nano-units* (``sum_units`` =
``round(v * 1e9)`` per observation, rounded from the exact product, not
a float one) because float addition is not associative; min/max are
order-independent.  Integer addition is exactly
commutative and associative, so ``merge_snapshots(perm)`` yields identical
``snapshot_bytes`` for every permutation — property-tested in
``tests/test_metrics_registry.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .records import PathLike

#: Schema identifier embedded in every serialized snapshot.
SNAPSHOT_SCHEMA = "repro-metrics-snapshot/1"

#: Default relative-accuracy parameter of :class:`LogHistogram` (5%).
DEFAULT_ALPHA = 0.05

#: Histogram value clamp range.  Observations outside are clamped, keeping
#: the bucket-index range (and therefore memory) bounded by construction.
MIN_TRACKABLE = 1e-9
MAX_TRACKABLE = 1e9

#: Scale for the exactly-merged integer sum: one unit = 1e-9 of a value.
SUM_UNIT = 10 ** 9


def _nano_units(value: float) -> int:
    """``round(value * SUM_UNIT)`` of the exact product (half to even).

    The float product rounds once more above 2**53 nano-units (about
    9e6 s), which would make the mean inexact; the integer ratio does not.
    """
    numerator, denominator = value.as_integer_ratio()
    units, rest = divmod(numerator * SUM_UNIT, denominator)
    if 2 * rest > denominator or (2 * rest == denominator and units & 1):
        units += 1
    return units


class Counter:
    """Monotonic non-negative integer counter; merge = sum."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = int(value)

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += int(amount)


class Gauge:
    """Integer level (queue depth, resident tenants); merge = sum.

    Summing is the right merge for per-shard levels: the merged gauge is
    the fleet-wide total at snapshot time.  Ratios (utilisation etc.) are
    for the *reader* to derive, never stored.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = int(value)

    def set(self, value: int) -> None:
        self.value = int(value)

    def inc(self, amount: int = 1) -> None:
        self.value += int(amount)


class LogHistogram:
    """Bounded log-bucketed sketch with an ``alpha`` relative-error bound.

    See the module docstring for the bucket mapping and the error
    guarantee.  All merge-relevant state is integral (bucket counts,
    ``sum_units``) or order-independent (min/max), so merging histograms
    in any order produces identical state.
    """

    __slots__ = ("alpha", "gamma", "_log_gamma", "count", "zero_count",
                 "sum_units", "min", "max", "buckets")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self.count = 0
        self.zero_count = 0
        self.sum_units = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"histogram value must be finite and >= 0, got {value}")
        self.count += 1
        self.sum_units += _nano_units(value)
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value < MIN_TRACKABLE:
            self.zero_count += 1
            return
        index = self._bucket_index(min(value, MAX_TRACKABLE))
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def _bucket_index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._log_gamma))

    def _bucket_value(self, index: int) -> float:
        # Midpoint of (gamma**(i-1), gamma**i] in the relative-error sense.
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    # -- reading -------------------------------------------------------------

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile; within ``alpha`` relative error.

        ``quantile(1.0)`` (and any rank that lands on the final
        observation) returns the exact maximum; every estimate is clamped
        into ``[min, max]`` so the sketch never reports a value outside
        the observed range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        if rank >= self.count:
            return self.max
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        estimate = self.max
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                estimate = self._bucket_value(index)
                break
        assert self.min is not None and self.max is not None
        return min(max(estimate, self.min), self.max)

    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.sum_units / (SUM_UNIT * self.count)

    def summary(self) -> dict:
        """``latency_summary``-compatible digest (count/p50_s/p99_s/max_s).

        Byte-compatible with the list-based
        :func:`repro.service.server.latency_summary` output keys; values
        agree within the documented ``alpha`` relative-error bound.
        """
        if self.count == 0:
            return {"count": 0, "p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
        return {
            "count": self.count,
            "p50_s": round(self.quantile(0.5), 6),
            "p99_s": round(self.quantile(0.99), 6),
            "max_s": round(self.max, 6),
        }

    # -- snapshot / merge ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "count": self.count,
            "zero_count": self.zero_count,
            "sum_units": self.sum_units,
            "min": self.min,
            "max": self.max,
            # JSON object keys are strings; sorted numerically on read.
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        hist = cls(alpha=float(data["alpha"]))
        hist.count = int(data["count"])
        hist.zero_count = int(data["zero_count"])
        hist.sum_units = int(data["sum_units"])
        hist.min = None if data["min"] is None else float(data["min"])
        hist.max = None if data["max"] is None else float(data["max"])
        hist.buckets = {int(k): int(v) for k, v in data["buckets"].items()}
        return hist

    def merge(self, other: "LogHistogram") -> None:
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge histograms with alpha {self.alpha} and {other.alpha}"
            )
        self.count += other.count
        self.zero_count += other.zero_count
        self.sum_units += other.sum_units
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count


class MetricsRegistry:
    """Named instruments + versioned snapshot/merge.

    Instrument names are flat dotted strings (``shard.batches``,
    ``server.latency_seconds``); a name is bound to one kind for the
    registry's lifetime — re-registering under a different kind raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LogHistogram] = {}

    # -- instrument accessors (create-on-first-use) --------------------------

    def counter(self, name: str) -> Counter:
        self._check_kind(name, "counter")
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        self._check_kind(name, "gauge")
        if name not in self._gauges:
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(self, name: str, alpha: float = DEFAULT_ALPHA) -> LogHistogram:
        self._check_kind(name, "histogram")
        if name not in self._histograms:
            self._histograms[name] = LogHistogram(alpha=alpha)
        return self._histograms[name]

    def _check_kind(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serialize every instrument as a ``repro-metrics-snapshot/1`` dict."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold one serialized snapshot into this registry (exact merge)."""
        validate_snapshot(snapshot)
        for name, value in snapshot["counters"].items():
            self.counter(name).inc(int(value))
        for name, value in snapshot["gauges"].items():
            self.gauge(name).inc(int(value))
        for name, data in snapshot["histograms"].items():
            incoming = LogHistogram.from_dict(data)
            self.histogram(name, alpha=incoming.alpha).merge(incoming)


def validate_snapshot(snapshot: dict) -> None:
    """Raise ``ValueError`` unless ``snapshot`` is a well-formed snapshot."""
    if not isinstance(snapshot, dict):
        raise ValueError(f"snapshot must be a dict, got {type(snapshot).__name__}")
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"snapshot schema must be {SNAPSHOT_SCHEMA!r}, "
            f"got {snapshot.get('schema')!r}"
        )
    for section in ("counters", "gauges", "histograms"):
        table = snapshot.get(section)
        if not isinstance(table, dict):
            raise ValueError(f"snapshot section {section!r} missing or not a dict")
    for name, value in snapshot["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"counter {name!r} must be a non-negative int")
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"gauge {name!r} must be an int")
    for name, data in snapshot["histograms"].items():
        if not isinstance(data, dict):
            raise ValueError(f"histogram {name!r} must be a dict")
        missing = {"alpha", "count", "zero_count", "sum_units",
                   "min", "max", "buckets"} - set(data)
        if missing:
            raise ValueError(f"histogram {name!r} missing {sorted(missing)}")
        if not isinstance(data["buckets"], dict):
            raise ValueError(f"histogram {name!r} buckets must be a dict")
        _check_histogram(name, data)


def _check_histogram(name: str, data: dict) -> None:
    """Range, memory-bound and bucket-sum invariants of one histogram."""
    alpha, count, zeros = data["alpha"], data["count"], data["zero_count"]
    if not 0.0 < alpha < 1.0 or not count >= zeros >= 0:
        raise ValueError(f"histogram {name!r}: alpha {alpha}, count "
                         f"{count}, zero_count {zeros}")
    # The documented memory bound: no more buckets than the index span
    # of the trackable range at this alpha.
    gamma = (1.0 + alpha) / (1.0 - alpha)
    most = math.ceil(math.log(MAX_TRACKABLE / MIN_TRACKABLE)
                     / math.log(gamma)) + 2
    if len(data["buckets"]) > most:
        raise ValueError(f"histogram {name!r}: {len(data['buckets'])} "
                         f"buckets exceeds bound {most}")
    total = zeros + sum(data["buckets"].values())
    if total != count:
        raise ValueError(f"histogram {name!r}: buckets sum to {total}, "
                         f"count says {count}")
    if count and not (data["min"] is not None and data["max"] is not None
                      and data["min"] <= data["max"]):
        raise ValueError(f"histogram {name!r}: min {data['min']} / max "
                         f"{data['max']}")


def validate_snapshot_file(path: PathLike) -> Tuple[dict, str]:
    """Registry validator of ``repro-metrics-snapshot/1`` (``repro verify``)."""
    snapshot = json.loads(Path(path).read_text())
    validate_snapshot(snapshot)
    return snapshot, (f"{len(snapshot['counters'])} counter(s), "
                      f"{len(snapshot['gauges'])} gauge(s), "
                      f"{len(snapshot['histograms'])} histogram(s)")


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge serialized snapshots; result is order-independent byte-exact."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


def snapshot_bytes(snapshot: dict) -> bytes:
    """Canonical serialized form (sorted keys) used for byte-identity tests."""
    return json.dumps(snapshot, sort_keys=True).encode("utf-8")


def counter_names(snapshot: dict) -> List[str]:
    """Sorted counter names of a snapshot (convenience for renderers)."""
    return sorted(snapshot.get("counters", {}))
