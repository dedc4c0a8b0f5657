"""Batched fleet-wide CDI kernel (the daily job's compute path).

The production Spark job (Section V) computes Algorithm 1 for millions
of VMs per day.  The straightforward reproduction runs one pure-Python
boundary sweep per VM per category — and then re-runs the whole sweep
once more *per event name* for the drill-down table.  This module
replaces all of those sweeps with **one** vectorized pass over the
entire fleet:

1. :func:`fleet_cdi_columns_columnar` — the one kernel assembly, shared
   by the daily job and the streaming state — clips every weighted
   interval of every VM and tags it with an integer *group id*: one
   group per ``(vm, category)`` for the per-VM sub-metrics and one per
   ``(vm, event_name)`` for the drill-down table;
2. :func:`grouped_damage_integrals` computes the damage integral of
   every group simultaneously via a group-major ``lexsort`` boundary
   sweep combined with the quantized-weight level decomposition
   (weights come from a small set of levels, Formulas 1-3), so the
   per-segment max weight is recovered with one exact coverage cumsum
   per distinct level instead of a per-VM heap.

The kernel is **bit-identical** to :func:`repro.core.indicator.
damage_integral`: per group it forms the same boundary segments, the
same per-segment max weight, the same ``weight * length`` products,
and accumulates them in the same left-to-right time order (via
``np.bincount``, which sums in index order), so every float rounding
step matches the reference heap sweep.

:class:`WeightTable` precomputes the ``(event name, severity) →
weight`` resolution once per job (satellite of the same optimisation:
``CdiCalculator`` used to call ``WeightConfig.resolve`` per period).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.events import EventCatalog, EventCategory, EventKind, Severity
from repro.core.weights import WeightConfig

#: Fixed category order of the per-VM output row.
CATEGORY_ORDER: tuple[EventCategory, ...] = (
    EventCategory.UNAVAILABILITY,
    EventCategory.PERFORMANCE,
    EventCategory.CONTROL_PLANE,
)

_CATEGORY_INDEX = {category: i for i, category in enumerate(CATEGORY_ORDER)}


@dataclass(frozen=True)
class WeightTable:
    """Precomputed ``(name, severity) → (weight, category index)`` lookup.

    Built once per daily job from the event catalog and the weight
    configuration; the per-period dict lookup replaces a
    ``WeightConfig.resolve`` call (Formulas 1-3 re-evaluated per
    period) with a single hash probe.  The cached weights are the exact
    floats ``resolve`` returns, so downstream CDI numbers are
    unchanged.
    """

    entries: Mapping[tuple[str, Severity], tuple[float, int]]

    @classmethod
    def from_config(cls, catalog: EventCatalog,
                    config: WeightConfig) -> "WeightTable":
        """Resolve every (catalog name, severity) combination once."""
        entries: dict[tuple[str, Severity], tuple[float, int]] = {}
        for spec in catalog:
            category_index = _CATEGORY_INDEX[spec.category]
            for level in Severity:
                weight = config.resolve(spec.name, level, spec.category)
                entries[(spec.name, level)] = (weight, category_index)
        return cls(entries=entries)

    def lookup(self, name: str,
               level: Severity) -> tuple[float, int] | None:
        """Weight and category index, or ``None`` for unknown names."""
        return self.entries.get((name, level))


@dataclass(frozen=True)
class ResolverIndex:
    """Per-raw-event-name dispatch for fused period resolution.

    The hot path of the daily job resolves stateless events (the vast
    majority) straight from table rows to weighted intervals without
    materializing :class:`~repro.core.events.Event` or
    :class:`~repro.core.periods.EventPeriod` objects.  This index
    pre-answers, once per job, the two questions that loop would
    otherwise ask the catalog and weight config per event:

    * ``stateless`` — raw stateless name → ``(detection window,
      {int severity level: (weight, category index)})``;
    * ``stateful_names`` — every raw name (detail or logical) owned by
      a stateful spec; those events take the slow pairing path.

    Names in neither map are unknown and skipped, exactly like
    :func:`~repro.core.periods.resolve_periods`.
    """

    stateless: Mapping[str, tuple[float, Mapping[int, tuple[float, int]]]]
    stateful_names: frozenset[str]

    @classmethod
    def build(cls, catalog: EventCatalog,
              weight_table: WeightTable) -> "ResolverIndex":
        """Index every name of ``catalog`` against ``weight_table``."""
        stateless: dict[str, tuple[float, dict[int, tuple[float, int]]]] = {}
        stateful: set[str] = set()
        for spec in catalog:
            if spec.kind is EventKind.STATEFUL:
                stateful.add(spec.name)
                stateful.add(spec.start_name)
                stateful.add(spec.end_name)
                continue
            levels = {}
            for level in Severity:
                entry = weight_table.entries.get((spec.name, level))
                if entry is not None:
                    levels[int(level)] = entry
            stateless[spec.name] = (spec.window, levels)
        return cls(stateless=stateless, stateful_names=frozenset(stateful))


def grouped_damage_integrals(starts: np.ndarray, ends: np.ndarray,
                             weights: np.ndarray, group_ids: np.ndarray,
                             num_groups: int) -> np.ndarray:
    """Damage integral of every group in one vectorized sweep.

    Inputs are parallel arrays of already-clipped intervals: every
    entry must have ``end > start`` and ``weight > 0`` (callers filter
    exactly like :func:`~repro.core.indicator.damage_integral` does).
    Groups need not be sorted.  Returns ``num_groups`` integrals;
    groups with no intervals get ``0.0``.

    Algorithm: each interval contributes a ``+1`` boundary at its start
    and a ``-1`` at its end.  After a group-major time ``lexsort``,
    the per-level coverage of every inter-boundary segment is an exact
    integer cumsum (each group's deltas net to zero, so no cross-group
    correction is needed), and the per-segment max weight is filled in
    by walking the distinct weight levels in descending order — the
    grouped generalization of the quantized-weight decomposition in
    :func:`~repro.core.indicator.damage_integral_quantized`.  Summing
    ``max_weight * segment_length`` per group in index order
    (``np.bincount``) reproduces the reference heap sweep's float
    operations exactly.
    """
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    ends = np.ascontiguousarray(ends, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    group_ids = np.ascontiguousarray(group_ids, dtype=np.int64)
    n = starts.size
    if n == 0:
        return np.zeros(num_groups, dtype=np.float64)

    # Boundary stream: (time, group, weight, coverage delta).
    times = np.concatenate((starts, ends))
    groups = np.concatenate((group_ids, group_ids))
    bweights = np.concatenate((weights, weights))
    deltas = np.concatenate(
        (np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64))
    )
    total = 2 * n
    # Group-major time sort.  ``lexsort`` is a stable mergesort per key;
    # packing (group, time-rank) into one int64 and quicksorting that is
    # ~5x faster at fleet sizes.  Time ranks break ties among equal
    # timestamps arbitrarily, which is harmless: equal-time boundaries
    # delimit zero-length segments whose products are exactly 0.0, and
    # coverage counts at any later segment are order-independent sums.
    if num_groups <= (2**62) // max(total, 1):
        time_rank = np.empty(total, dtype=np.int64)
        time_rank[np.argsort(times)] = np.arange(total, dtype=np.int64)
        order = np.argsort(groups * total + time_rank)
    else:  # pragma: no cover - astronomically many groups
        order = np.lexsort((times, groups))
    times = times[order]
    groups = groups[order]
    bweights = bweights[order]
    deltas = deltas[order]

    # Segment i spans [times[i], times[i+1]) and is valid only inside
    # one group; zero-length segments contribute an exact 0.0, matching
    # the reference's deduplicated boundary set.
    seg_len = np.zeros(total, dtype=np.float64)
    seg_len[:-1] = times[1:] - times[:-1]
    same_group = np.zeros(total, dtype=bool)
    same_group[:-1] = groups[1:] == groups[:-1]

    # Per-segment max active weight via descending weight levels: a
    # segment's max is the highest level with positive coverage.
    seg_max = np.zeros(total, dtype=np.float64)
    unset = np.ones(total, dtype=bool)
    for level in np.unique(weights)[::-1]:
        coverage = np.cumsum(np.where(bweights >= level, deltas, 0))
        hit = unset & (coverage > 0)
        seg_max[hit] = level
        unset &= ~hit
        if not unset.any():
            break

    products = np.where(same_group, seg_max * seg_len, 0.0)
    return np.bincount(groups, weights=products, minlength=num_groups)


@dataclass(frozen=True, slots=True)
class FleetColumns:
    """Column-major output of one fleet sweep.

    The daily job's two tables (``vm_cdi`` and ``event_cdi``) as column
    value lists, already in the canonical output order (VMs sorted;
    event rows by ``(vm, event)``) — ready for a columnar partition
    write with no row-dict materialization in between.
    """

    vm_columns: dict[str, list]
    event_columns: dict[str, list]


#: Flat resolved interval: ``(name, weight, category index, start, end)``.
#: Plain tuples instead of :class:`~repro.core.periods.EventPeriod`
#: objects — at fleet scale the dataclass construction cost alone
#: dominates the kernel, so the hot path never materializes periods.
FlatInterval = tuple[str, float, int, float, float]


def flat_interval_arrays(
    vm_flats: Iterable[tuple[int, Iterable[FlatInterval]]],
    name_of: dict[str, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray]:
    """``(vm index, flat intervals)`` pairs → the kernel's parallel arrays.

    Returns ``(vm_idx, name_ids, weights, cats, starts, ends)`` as
    :func:`fleet_cdi_columns_columnar` takes them.  Event names are
    interned into ``name_of`` (name → id in first-seen order, so
    ``list(name_of)`` is the matching ``names_list``); the caller may
    pass a dict that already holds names from other array parts.
    """
    vm_idx: list[int] = []
    name_ids: list[int] = []
    weights: list[float] = []
    cats: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    for vm_index, flat in vm_flats:
        for name, weight, category_index, start, end in flat:
            vm_idx.append(vm_index)
            name_ids.append(name_of.setdefault(name, len(name_of)))
            weights.append(weight)
            cats.append(category_index)
            starts.append(start)
            ends.append(end)
    return (
        np.array(vm_idx, dtype=np.int64),
        np.array(name_ids, dtype=np.int64),
        np.array(weights, dtype=np.float64),
        np.array(cats, dtype=np.int64),
        np.array(starts, dtype=np.float64),
        np.array(ends, dtype=np.float64),
    )


def fleet_cdi_columns_columnar(
    vm_list: Sequence[str],
    svc_starts: np.ndarray,
    svc_ends: np.ndarray,
    vm_idx: np.ndarray,
    name_ids: np.ndarray,
    names_list: Sequence[str],
    weights: np.ndarray,
    cats: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> FleetColumns:
    """Array-native kernel assembly: both output tables from one sweep.

    Inputs are parallel arrays of weight-resolved, **unclipped**
    intervals — straight out of the daily job's column-block resolution
    stage, or built by :func:`flat_interval_arrays` from flat interval
    tuples: ``vm_idx`` indexes into ``vm_list`` (sorted; every VM to
    report on, eventless ones included — they come back as zero rows),
    ``name_ids`` into ``names_list`` (distinct resolved event names),
    and ``svc_starts``/``svc_ends`` are the per-VM service bounds
    aligned with ``vm_list``.  Clipping, drill-down group registration,
    and filtering are vectorized, and the output stays column-major end
    to end — no row dicts anywhere.  Every value is exact per group:
    the grouped kernel is insertion-order independent (reordering
    intervals only permutes zero-length boundary segments, whose
    products are exactly ``0.0``) and the normalizations are elementwise
    IEEE divisions, so any partition of the fleet into calls — VM
    shards, or one tick's dirty VMs — yields the same bytes per VM.
    """
    durations_arr = svc_ends - svc_starts
    durations = durations_arr.tolist()
    name_count = max(len(names_list), 1)
    # Drill-down groups exist for every resolved interval, clipped-out
    # or zero-weight occurrences included (their CDI is then 0.0) —
    # matching the reference per-name re-sweep.
    pair = vm_idx * name_count + name_ids
    uniq_pairs, name_gids_all = np.unique(pair, return_inverse=True)
    group_vms = uniq_pairs // name_count
    group_names = [names_list[i] for i in (uniq_pairs % name_count).tolist()]
    clipped_starts = np.maximum(starts, svc_starts[vm_idx])
    clipped_ends = np.minimum(ends, svc_ends[vm_idx])
    keep = (clipped_ends > clipped_starts) & (weights > 0.0)

    vm_count = len(vm_list)
    cat_group_count = 3 * vm_count
    # One kernel sweep over both group spaces: each kept interval sits
    # in its (vm, category) sub-metric group and in its (vm, event-name)
    # drill-down group, so the coordinates are doubled while the gids
    # differ (drill-down gids are offset past the category block).
    kept_starts = clipped_starts[keep]
    kept_ends = clipped_ends[keep]
    kept_weights = np.ascontiguousarray(weights, dtype=np.float64)[keep]
    name_gids = np.ascontiguousarray(name_gids_all, dtype=np.int64)[keep]
    integral_arr = grouped_damage_integrals(
        np.concatenate((kept_starts, kept_starts)),
        np.concatenate((kept_ends, kept_ends)),
        np.concatenate((kept_weights, kept_weights)),
        np.concatenate((3 * vm_idx[keep] + cats[keep],
                        name_gids + cat_group_count)),
        cat_group_count + len(uniq_pairs),
    )

    cat_cdi = integral_arr[:cat_group_count].reshape(vm_count, 3)
    cat_cdi = cat_cdi / durations_arr[:, None] if vm_count else cat_cdi
    vm_columns = {
        "vm": list(vm_list),
        "unavailability": cat_cdi[:, 0].tolist(),
        "performance": cat_cdi[:, 1].tolist(),
        "control_plane": cat_cdi[:, 2].tolist(),
        "service_time": durations,
    }

    if len(uniq_pairs):
        name_cdi = (integral_arr[cat_group_count:]
                    / durations_arr[group_vms]).tolist()
    else:
        name_cdi = []
    group_vm_list = group_vms.tolist()
    # Canonical event-table order: (vm, event) lexicographic.  vm_list
    # is sorted, so ordering by vm index == ordering by vm string; the
    # groups arrive sorted by (vm index, name *id*), which is not
    # alphabetical in the name — resort by the actual string.
    order = sorted(
        range(len(group_names)),
        key=lambda i: (group_vm_list[i], group_names[i]),
    )
    event_columns = {
        "vm": [vm_list[group_vm_list[i]] for i in order],
        "event": [group_names[i] for i in order],
        "cdi": [name_cdi[i] for i in order],
        "service_time": [durations[group_vm_list[i]] for i in order],
    }
    return FleetColumns(vm_columns=vm_columns, event_columns=event_columns)
