"""Unified telemetry for the simulated CPU/GPU stack.

The paper's central claim is that *observing* driver-level memory
behaviour is what lets a tool explain heterogeneous performance; this
package is the reproduction's observation pipeline.  One
:class:`TelemetryRecorder` subscribes to the simulated CUDA runtime (like
the XPlacer tracer), taps the unified-memory driver's event log and
metric hooks, and fans everything out to three sinks:

* :mod:`repro.telemetry.metrics` -- labeled counters/gauges/histograms
  with Prometheus-style text exposition (``metrics.prom``);
* :mod:`repro.telemetry.timeline` -- Chrome trace-event JSON for
  Perfetto / ``chrome://tracing`` (``timeline.json``);
* :mod:`repro.telemetry.events_jsonl` -- manifest-led structured event
  streaming (``events.jsonl``).

:mod:`repro.telemetry.overhead` measures what this and every other
observation layer costs (the shape of the paper's Table III), and
:mod:`repro.telemetry.cli` is the ``repro-trace`` command that replays
any workload with telemetry on.
"""

from .context import current_recorder, install, uninstall
from .events_jsonl import (
    SCHEMA_VERSION,
    JsonlWriter,
    StringJsonl,
    encode_driver_event,
    read_jsonl,
    run_manifest,
)
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .recorder import TelemetryRecorder

# NOTE: repro.telemetry.cli and repro.telemetry.overhead import
# repro.workloads.registry, whose package consults repro.telemetry.context;
# overhead also imports the heatmap and signature layers it prices.  They
# are intentionally NOT imported here -- import them as submodules.
from .timeline import (
    TRACK_DRIVER,
    TRACK_GPU,
    TRACK_HOST,
    TRACK_LINK,
    TRACK_MARKS,
    TimelineBuilder,
)

__all__ = [
    "current_recorder",
    "install",
    "uninstall",
    "SCHEMA_VERSION",
    "JsonlWriter",
    "StringJsonl",
    "encode_driver_event",
    "read_jsonl",
    "run_manifest",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetryRecorder",
    "TRACK_DRIVER",
    "TRACK_GPU",
    "TRACK_HOST",
    "TRACK_LINK",
    "TRACK_MARKS",
    "TimelineBuilder",
]
