"""Multi-granularity power telemetry (Section II-B, Case 7).

The Data Collector gathers power metrics "across a spectrum of
granularity, including the racks, machines, hardware components, CPU
sockets, and individual physical cores".  This module models that
hierarchy: core readings are generated, each higher level aggregates
its children plus a level-specific overhead (PSU losses, fans, ...),
so cross-level consistency checks are possible — exactly the check
that would have caught Case 7's zero-reading sensors early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.engine.retry import stable_hash
from repro.telemetry.faults import Fault, FaultKind


@dataclass(frozen=True, slots=True)
class PowerNode:
    """One node in the power topology (rack → machine → socket → core)."""

    node_id: str
    level: str
    children: tuple["PowerNode", ...] = ()
    overhead_watts: float = 0.0

    def walk(self) -> Iterator["PowerNode"]:
        """This node and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_power_topology(*, racks: int = 1, machines_per_rack: int = 2,
                         sockets_per_machine: int = 2,
                         cores_per_socket: int = 8) -> list[PowerNode]:
    """A rack/machine/socket/core tree with realistic overheads."""
    if min(racks, machines_per_rack, sockets_per_machine,
           cores_per_socket) < 1:
        raise ValueError("all topology counts must be >= 1")
    rack_nodes = []
    for r in range(racks):
        machine_nodes = []
        for m in range(machines_per_rack):
            socket_nodes = []
            for s in range(sockets_per_machine):
                core_nodes = tuple(
                    PowerNode(
                        node_id=f"rack-{r}/machine-{m}/socket-{s}/core-{c}",
                        level="core",
                    )
                    for c in range(cores_per_socket)
                )
                socket_nodes.append(PowerNode(
                    node_id=f"rack-{r}/machine-{m}/socket-{s}",
                    level="socket", children=core_nodes,
                    overhead_watts=8.0,   # uncore/memory controller
                ))
            machine_nodes.append(PowerNode(
                node_id=f"rack-{r}/machine-{m}", level="machine",
                children=tuple(socket_nodes),
                overhead_watts=60.0,      # fans, disks, NIC, PSU loss
            ))
        rack_nodes.append(PowerNode(
            node_id=f"rack-{r}", level="rack",
            children=tuple(machine_nodes),
            overhead_watts=120.0,         # rack switching/cooling
        ))
    return rack_nodes


class PowerTelemetry:
    """Generates consistent power readings for a whole topology.

    Core powers follow a seasonal utilization curve with noise;
    higher-level readings equal the sum of their children plus the
    node's overhead.  ``POWER_SENSOR_ZERO`` faults zero out the
    affected node's *own* reported reading (children keep reporting),
    which is how the Case 7 bug broke cross-level consistency.
    """

    def __init__(self, seed: int = 0, *, core_base: float = 4.0,
                 core_amplitude: float = 2.0, noise: float = 0.2) -> None:
        self._seed = seed
        self._core_base = core_base
        self._core_amplitude = core_amplitude
        self._noise = noise

    def _core_series(self, node_id: str, times: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(
            stable_hash((self._seed, node_id)) % (2**32)
        )
        phase = 2.0 * np.pi * (times % 86400.0) / 86400.0
        seasonal = self._core_amplitude * np.sin(phase - np.pi / 2)
        return np.maximum(
            0.5, self._core_base + seasonal + rng.normal(0, self._noise,
                                                         times.shape)
        )

    def readings(self, roots: Sequence[PowerNode], times: np.ndarray,
                 faults: Sequence[Fault] = ()) -> dict[str, np.ndarray]:
        """True-consistency readings per node id, faults applied."""
        zeroed: dict[str, list[Fault]] = {}
        for fault in faults:
            if fault.kind is FaultKind.POWER_SENSOR_ZERO:
                zeroed.setdefault(fault.target, []).append(fault)

        readings: dict[str, np.ndarray] = {}

        def compute(node: PowerNode) -> np.ndarray:
            if node.level == "core":
                true_power = self._core_series(node.node_id, times)
            else:
                children_sum = np.zeros_like(times, dtype=float)
                for child in node.children:
                    children_sum = children_sum + compute(child)
                true_power = children_sum + node.overhead_watts
            reported = true_power.copy()
            for fault in zeroed.get(node.node_id, ()):
                mask = (times >= fault.start) & (times < fault.end)
                reported[mask] = 0.0
            readings[node.node_id] = reported
            return true_power  # children aggregation uses true values

        for root in roots:
            compute(root)
        return readings


@dataclass(frozen=True, slots=True)
class ConsistencyViolation:
    """A parent reading inconsistent with its children's sum."""

    node_id: str
    time_index: int
    parent_reading: float
    children_sum: float


def check_consistency(roots: Sequence[PowerNode],
                      readings: Mapping[str, np.ndarray],
                      *, tolerance: float = 0.05
                      ) -> list[ConsistencyViolation]:
    """Flag parents whose reading deviates from children + overhead.

    ``tolerance`` is relative to the expected value.  This is the data
    -quality monitor Case 7 motivated: a zeroed parent sensor is
    instantly inconsistent with its still-reporting children.
    """
    violations: list[ConsistencyViolation] = []
    for root in roots:
        for node in root.walk():
            if not node.children:
                continue
            children_sum = sum(
                readings[child.node_id] for child in node.children
            ) + node.overhead_watts
            parent = readings[node.node_id]
            with np.errstate(divide="ignore", invalid="ignore"):
                deviation = np.abs(parent - children_sum) / np.maximum(
                    children_sum, 1e-9
                )
            for index in np.flatnonzero(deviation > tolerance):
                violations.append(ConsistencyViolation(
                    node_id=node.node_id,
                    time_index=int(index),
                    parent_reading=float(parent[index]),
                    children_sum=float(children_sum[index]),
                ))
    return violations
