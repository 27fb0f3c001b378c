"""Labeled metrics registry with Prometheus-style text exposition.

The simulator's observability story needs one place where every layer --
the unified-memory driver, the interconnect, the CUDA runtime, the
XPlacer tracer -- can increment named series without knowing how they are
exported.  :class:`MetricsRegistry` provides the three classic instrument
kinds (counter, gauge, histogram), each with optional label dimensions,
plus two read-side views: :meth:`MetricsRegistry.snapshot` for
machine-readable dicts and :meth:`MetricsRegistry.to_prometheus` for the
text exposition format scraped by Prometheus-compatible tooling.

Everything is in-process and dependency-free; "scraping" a simulated run
means writing the exposition to ``metrics.prom`` next to the other run
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds-oriented, log-spaced).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, float("inf"),
)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name {name!r} must not start with a digit")
    return name


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    def esc(v: str) -> str:
        return v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    return "{" + ",".join(f'{k}="{esc(v)}"' for k, v in key) + "}"


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` value per the exposition format.

    Backslashes and newlines are the only characters escaped on HELP
    lines (label values additionally escape quotes -- see
    ``_format_labels``).
    """
    return text.replace("\\", "\\\\").replace("\n", "\\n")


@dataclass
class _Series:
    """One (metric, label-set) time series."""

    value: float = 0.0


class _Instrument:
    """Common machinery: a named family of labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _validate_name(name)
        self.help = help
        self._series: dict[tuple[tuple[str, str], ...], _Series] = {}
        #: Label items as passed -> series, so a repeated call skips the
        #: sort in ``_label_key``.  Only all-``str`` label sets are kept:
        #: ``True == 1 == 1.0`` hash alike but ``str()`` to three series.
        self._by_items: dict[tuple, _Series] = {}

    def _child(self, labels: Mapping[str, str]) -> _Series:
        items = tuple(labels.items())
        series = self._by_items.get(items)
        if series is None:
            key = _label_key(labels)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._new_series()
            if all(type(k) is str and type(v) is str for k, v in items):
                self._by_items[items] = series
        return series

    def _new_series(self) -> _Series:
        return _Series()

    def series(self) -> dict[tuple[tuple[str, str], ...], float]:
        """Label-key -> current value."""
        return {k: s.value for k, s in self._series.items()}

    def expose(self) -> Iterable[str]:
        """Lines of Prometheus text exposition for this family."""
        yield f"# HELP {self.name} {_escape_help(self.help or self.name)}"
        yield f"# TYPE {self.name} {self.kind}"
        for key, s in sorted(self._series.items()):
            yield f"{self.name}{_format_labels(key)} {_format_value(s.value)}"


class Counter(_Instrument):
    """A monotonically increasing value (events, pages, bytes)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (finite, >= 0) to the labeled series."""
        if not 0 <= amount < math.inf:
            raise ValueError(
                f"counter {self.name} cannot increase by {amount}")
        self._child(labels).value += amount

    def value(self, **labels: str) -> float:
        """Current value of the labeled series (0 if never incremented)."""
        return self._series.get(_label_key(labels), _Series()).value


class Gauge(_Instrument):
    """A value that can go up and down (residency, queue depth)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the labeled series to ``value``."""
        self._child(labels).value = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the labeled series."""
        self._child(labels).value += amount

    def value(self, **labels: str) -> float:
        """Current value of the labeled series (0 if never set)."""
        return self._series.get(_label_key(labels), _Series()).value


@dataclass
class _HistSeries(_Series):
    buckets: list[int] = field(default_factory=list)
    count: int = 0

    # ``value`` doubles as the running sum.


class Histogram(_Instrument):
    """A distribution with cumulative buckets (latencies, sizes)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds or bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.bounds: tuple[float, ...] = tuple(bounds)

    def _new_series(self) -> _HistSeries:
        return _HistSeries(buckets=[0] * len(self.bounds))

    def observe(self, value: float, **labels: str) -> None:
        """Record one finite observation."""
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name} cannot observe {value}")
        s = self._child(labels)
        assert isinstance(s, _HistSeries)
        s.count += 1
        s.value += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                s.buckets[i] += 1
                break

    def expose(self) -> Iterable[str]:  # noqa: D102
        yield f"# HELP {self.name} {_escape_help(self.help or self.name)}"
        yield f"# TYPE {self.name} histogram"
        for key, s in sorted(self._series.items()):
            assert isinstance(s, _HistSeries)
            cumulative = 0
            for bound, n in zip(self.bounds, s.buckets):
                cumulative += n
                bkey = key + (("le", _format_value(bound)),)
                yield (f"{self.name}_bucket{_format_labels(bkey)} "
                       f"{cumulative}")
            yield f"{self.name}_sum{_format_labels(key)} {_format_value(s.value)}"
            yield f"{self.name}_count{_format_labels(key)} {s.count}"

    def series(self) -> dict[tuple[tuple[str, str], ...], float]:
        """Label-key -> observation count (sum lives in snapshot())."""
        return {k: float(s.count) for k, s in self._series.items()}  # type: ignore[union-attr]


class MetricsRegistry:
    """A namespace of instruments, created on first use.

    >>> reg = MetricsRegistry()
    >>> reg.counter("faults_total", "fault groups").inc(3, proc="GPU")
    >>> reg.counter("faults_total").value(proc="GPU")
    3.0
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._instruments: dict[str, _Instrument] = {}

    def _get(self, cls, name: str, help: str, *, absolute: bool = False,
             **kwargs) -> _Instrument:
        if self.prefix and not absolute:
            name = self.prefix + name
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name, help, **kwargs)
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"not {cls.kind}")
        return inst

    def counter(self, name: str, help: str = "", *,
                absolute: bool = False) -> Counter:
        """Get or create a counter family.

        :param absolute: register ``name`` verbatim, skipping the
            registry prefix (cross-package series with a fixed contract
            name, e.g. ``repro_events_dropped_total``).
        """
        return self._get(Counter, name, help, absolute=absolute)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", *,
              absolute: bool = False) -> Gauge:
        """Get or create a gauge family (``absolute`` skips the prefix)."""
        return self._get(Gauge, name, help, absolute=absolute)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS, *,
                  absolute: bool = False) -> Histogram:
        """Get or create a histogram family (``absolute`` skips the prefix)."""
        return self._get(Histogram, name, help, buckets=buckets,
                         absolute=absolute)  # type: ignore[return-value]

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Nested dict: metric name -> {label string -> value}.

        Histogram families report observation counts; their sums appear
        only in the exposition (keeps the snapshot shape uniform).
        """
        out: dict[str, dict[str, float]] = {}
        for name, inst in sorted(self._instruments.items()):
            out[name] = {
                _format_labels(key) or "": value
                for key, value in inst.series().items()
            }
        return out

    def to_prometheus(self) -> str:
        """Full text exposition (``metrics.prom`` content)."""
        lines: list[str] = []
        for _, inst in sorted(self._instruments.items()):
            lines.extend(inst.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return ((self.prefix + name) if self.prefix else name) in self._instruments
