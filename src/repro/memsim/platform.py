"""Platform presets: the paper's three testbeds as simulator configurations.

The paper evaluates on:

* an Intel E5-2695 v4 + Nvidia **Pascal** over PCIe,
* an Intel E5-2698 v3 + Nvidia **Volta** over PCIe,
* an IBM **Power9** + Nvidia Volta connected by **NVLink**.

Each preset wires the devices, link, unified-memory driver, clock and event
log into one :class:`Platform`.  The parameters are mechanistic (per-element
throughputs, link speeds, fault latencies), not fitted to the paper's
absolute runtimes; the relative shapes of the evaluation figures emerge
from the mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .address_space import AddressSpace
from .clock import SimClock, Stream
from .devices import DeviceSpec, Processor
from .events import EventLog
from .interconnect import Link, nvlink2, pcie3
from .unified_memory import UMCostParams, UnifiedMemoryDriver

__all__ = ["Platform", "intel_pascal", "intel_volta", "power9_volta", "PLATFORMS"]


@dataclass
class Platform:
    """A fully wired simulated heterogeneous node."""

    name: str
    cpu: DeviceSpec
    gpu: DeviceSpec
    link: Link
    um_params: UMCostParams = field(default_factory=UMCostParams)
    #: Host-side cost of issuing one async copy + event sync on a stream
    #: (pageable staging, driver call, event wait).  Markedly higher on
    #: the Power9 stack -- the reason Fig 11's overlap optimization loses
    #: there while winning on the Intel nodes.
    stream_op_overhead: float = 0.12e-3

    def __post_init__(self) -> None:
        self.clock = SimClock()
        self.events = EventLog()
        self.address_space = AddressSpace()
        self.um = UnifiedMemoryDriver(
            self.link, self.gpu.memory_bytes, self.clock, self.events, self.um_params
        )

    def device(self, proc: Processor) -> DeviceSpec:
        """The :class:`DeviceSpec` for ``proc``."""
        return self.cpu if proc is Processor.CPU else self.gpu

    def new_stream(self, name: str = "stream") -> Stream:
        """Create an asynchronous stream bound to this platform's clock."""
        return Stream(self.clock, name=name)


def _cpu(name: str, element_time: float) -> DeviceSpec:
    return DeviceSpec(
        name=name,
        processor=Processor.CPU,
        memory_bytes=256 << 30,
        element_time=element_time,
        launch_overhead=0.2e-6,
    )


def _gpu(name: str, element_time: float, memory_bytes: int) -> DeviceSpec:
    return DeviceSpec(
        name=name,
        processor=Processor.GPU,
        memory_bytes=memory_bytes,
        element_time=element_time,
        launch_overhead=15e-6,  # kernel launch latency incl. RAJA dispatch
    )


def intel_pascal(*, gpu_memory_bytes: int = 16 << 30) -> Platform:
    """Intel E5-2695 v4 (2.1 GHz) + Nvidia Pascal P100, PCIe gen3 x16."""
    return Platform(
        name="intel-pascal",
        cpu=_cpu("Intel E5-2695 v4", element_time=1.2e-9),
        gpu=_gpu("Nvidia Pascal P100", element_time=0.045e-9, memory_bytes=gpu_memory_bytes),
        link=pcie3(),
        um_params=UMCostParams(fault_service=25e-6, replay_per_block=0.70e-6,
                               remote_per_accessor=0.08e-6),
    )


def intel_volta(*, gpu_memory_bytes: int = 16 << 30) -> Platform:
    """Intel E5-2698 v3 (2.3 GHz) + Nvidia Volta V100, PCIe gen3 x16."""
    return Platform(
        name="intel-volta",
        cpu=_cpu("Intel E5-2698 v3", element_time=1.1e-9),
        gpu=_gpu("Nvidia Volta V100", element_time=0.030e-9, memory_bytes=gpu_memory_bytes),
        link=pcie3(),
        um_params=UMCostParams(fault_service=22e-6, replay_per_block=0.65e-6,
                               remote_per_accessor=0.08e-6),
    )


def power9_volta(*, gpu_memory_bytes: int = 16 << 30) -> Platform:
    """IBM Power9 (2.3 GHz) + Nvidia Volta V100 over NVLink 2.0."""
    return Platform(
        name="power9-volta",
        cpu=_cpu("IBM Power9", element_time=1.0e-9),
        gpu=_gpu("Nvidia Volta V100", element_time=0.030e-9, memory_bytes=gpu_memory_bytes),
        link=nvlink2(),
        # ATS-mediated faults on Power9 are not cheap -- NVLink wins by
        # avoiding them via coherent mappings, not by faulting faster.
        um_params=UMCostParams(fault_service=60e-6, replay_per_block=0.02e-6,
                               remote_per_accessor=0.002e-6),
        stream_op_overhead=0.7e-3,
    )


#: Factory registry keyed by the names used throughout the eval harness.
PLATFORMS = {
    "intel-pascal": intel_pascal,
    "intel-volta": intel_volta,
    "power9-volta": power9_volta,
}
