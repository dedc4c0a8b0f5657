"""Determinism guarantees: same seed, same experiment, always.

Reproducibility is the whole point of simulator-backed experiments;
every scenario must be a pure function of its seed.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.scenarios.architecture import simulate_architecture_comparison
from repro.scenarios.event_level import simulate_event_level_curves
from repro.scenarios.fiscal_year import simulate_fiscal_year
from repro.scenarios.incidents import simulate_incident_days


@pytest.mark.slow
class TestScenarioDeterminism:
    def test_incidents(self):
        a = simulate_incident_days(seed=11, vm_count=100)
        b = simulate_incident_days(seed=11, vm_count=100)
        for day in a:
            assert a[day].cdi == b[day].cdi
            assert a[day].air == b[day].air

    def test_incidents_seed_sensitivity(self):
        a = simulate_incident_days(seed=11, vm_count=100)
        b = simulate_incident_days(seed=12, vm_count=100)
        assert a["daily"].cdi != b["daily"].cdi

    def test_fiscal_year(self):
        a = simulate_fiscal_year(seed=5, vm_count=64, months=6)
        b = simulate_fiscal_year(seed=5, vm_count=64, months=6)
        assert [m.report for m in a] == [m.report for m in b]

    def test_architecture(self):
        a = simulate_architecture_comparison(seed=3, days=10, bug_onset=5,
                                             rollback_start=8)
        b = simulate_architecture_comparison(seed=3, days=10, bug_onset=5,
                                             rollback_start=8)
        assert a == b

    def test_event_level(self):
        a = simulate_event_level_curves(seed=4, days=12, spike_day=6,
                                        dip_start=5, dip_end=8, vm_count=40)
        b = simulate_event_level_curves(seed=4, days=12, spike_day=6,
                                        dip_start=5, dip_end=8, vm_count=40)
        assert a.allocation_failed == b.allocation_failed
        assert a.power_tdp == b.power_tdp


#: Prints everything that used to be seeded from builtin ``hash``.
HASH_SEEDED_SCRIPT = """
import json
from repro.scenarios.architecture import simulate_architecture_comparison
from repro.telemetry.metrics import MetricGenerator
from repro.telemetry.power import PowerTelemetry, build_power_topology

curve = simulate_architecture_comparison(
    seed=0, days=4, bug_onset=2, rollback_start=3, vms_per_arm=16)
times = MetricGenerator(seed=0).sample_times(0, 180)
roots = build_power_topology(machines_per_rack=1, sockets_per_machine=1,
                             cores_per_socket=2)
power = PowerTelemetry(seed=0).readings(roots, times)
print(json.dumps({
    "architecture": [[d.day, d.homogeneous, d.hybrid] for d in curve],
    "metrics": MetricGenerator(seed=0).series_for(
        "vm-000", "cpu_freq", times).tolist(),
    "power": {node: values.tolist() for node, values in power.items()},
}, sort_keys=True))
"""


class TestHashSeedIndependence:
    """Seeds derived from names go through ``stable_hash``: builtin
    ``hash`` of a string differs per process, which made Fig. 8 and
    the metric/power streams change from run to run."""

    def run_under(self, hash_seed: str) -> bytes:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", HASH_SEEDED_SCRIPT],
                              env=env, capture_output=True, check=True)
        return done.stdout

    def test_same_bytes_under_two_hash_seeds(self):
        first, second = self.run_under("1"), self.run_under("2")
        assert first == second
        golden = json.loads(first)
        exact = pytest.approx
        assert golden["architecture"] == [
            [1, exact(0.0010918965209811289), exact(0.00047046769540473637)],
            [2, exact(0.0001963646442378734), exact(0.021584607239070176)],
            [3, exact(0.0005989649556301539), exact(0.0010918965209811289)],
            [4, exact(0.000259092343655744), exact(0.0001963646442378734)],
        ]
        assert golden["metrics"] == exact(
            [2.7243502986319865, 2.7006810506058256, 2.7385433771405587]
        )
        assert golden["power"]["rack-0/machine-0/socket-0/core-0"] == exact(
            [1.9138898633216783, 1.9251150295771755, 2.0776461070799783]
        )
        assert golden["power"]["rack-0"] == exact(
            [192.1062881983795, 192.2530985670534, 191.8453519646515]
        )
