"""Shared fixtures for the serving-layer suite.

One deterministic dataset builder used everywhere: a topology-aware
synthetic fleet (so group-by queries have real dimensions), per-day
fault events from the baseline injector, and the daily CDI job backfilled
over a few partitions.  Tests pick the compute path via the job's
``use_fastpath`` flag.
"""

from __future__ import annotations

import pytest

from repro.core.events import default_catalog
from repro.core.indicator import ServicePeriod
from repro.engine.dataset import EngineContext
from repro.pipeline.backfill import run_days
from repro.pipeline.daily import DailyCdiJob
from repro.scenarios.common import default_weights
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore
from repro.telemetry.topology import build_fleet

# The per-day event source now lives in tests.strategies; re-exported
# here because the serving tests import it from this conftest.
from tests.strategies import DAY, events_factory  # noqa: F401

SEED = 7
DAYS = 3


def build_dataset(*, use_fastpath: bool = True,
                  days: int = DAYS, seed: int = SEED):
    """A backfilled daily job plus its fleet, on one compute path."""
    catalog = default_catalog()
    fleet = build_fleet(seed=seed, regions=2, azs_per_region=2,
                        clusters_per_az=1, ncs_per_cluster=2, vms_per_nc=2)
    vm_ids = sorted(fleet.vms)
    services = {vm: ServicePeriod(0.0, DAY) for vm in vm_ids}
    job = DailyCdiJob(EngineContext(parallelism=2), TableStore(),
                      ConfigDB(), catalog,
                      use_fastpath=use_fastpath)
    job.store_weights(default_weights())
    run_days(job, events_factory(vm_ids, catalog, seed), services, days)
    return job, fleet, services


@pytest.fixture(scope="module")
def dataset():
    """The default-path dataset, built once per test module."""
    return build_dataset()
