"""Temporal heat profiling: access-count heatmaps with source attribution.

Where the shadow memory (:mod:`repro.runtime.shadow`) freezes *boolean*
per-word masks per epoch, this package records **access-count heat**: how
often each region of an allocation was read and written, by which
processor, in which epoch -- and which source line did it.  The heat store
is the data model; three renderers sit on top:

* :mod:`repro.heatmap.ansi`   -- terminal heatmap strips (intensity ramp,
  epoch scrubbing, ``NO_COLOR``-aware),
* :mod:`repro.heatmap.html`   -- a self-contained single-file HTML run
  report (heat strips, anti-pattern overlays, metrics, Perfetto link),
* :func:`HeatStore.to_csv` / :func:`HeatStore.to_npz` -- machine-readable
  exports for external plotting.

Heat recording is **off by default**: the code that creates a
:class:`HeatStore` installs it as a :class:`~repro.runtime.tracer.Tracer`'s
``heat`` and writes it (:meth:`HeatStore.write`).
"""

from .attribution import caller_site, site_from_frame
from .store import (
    CHANNELS,
    AllocationHeat,
    EpochHeat,
    HeatStore,
    SourceSite,
)

__all__ = [
    "CHANNELS",
    "AllocationHeat",
    "EpochHeat",
    "HeatStore",
    "SourceSite",
    "caller_site",
    "site_from_frame",
]
