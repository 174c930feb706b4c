"""Tenant population model: placement, traffic weights, lifecycle.

A fleet campaign simulates hundreds of small devices serving a large
multi-tenant population.  This module turns the fleet-level description
(:class:`FleetConfig`) into per-device work:

* **Traffic weights** are heavy-tailed (Zipf with exponent ``zipf_s``):
  tenant *t* carries weight ``1 / (t + 1) ** s``, so a handful of hot
  tenants dominate while millions idle -- the regime where per-tenant
  deletion cost actually matters.
* **Placement** hash-shards tenants onto devices over a consistent-hash
  ring (``vnodes`` virtual nodes per device).  Growing the fleet from
  *k* to *k + 1* devices therefore moves only ~1/(k+1) of tenants, all
  of them onto the new device -- the stability property the placement
  tests assert.  The ``spread`` knob widens each tenant's candidate set
  to the next ``spread`` distinct devices clockwise (chosen by a second
  hash), trading placement stability for load spreading.
* **Lifecycle** -- arrival, churn, account deletion -- is driven by the
  storm schedule (:mod:`repro.fleet.storms`) plus replacement arrivals,
  all derived from the master seed so every shard agrees.

:func:`compile_fleet` is compile-time: pure, O(tenants) hashing, no
simulation.  Each device gets a frozen :class:`DeviceSpec` whose seed is
*variant-independent* -- every FTL variant replays the identical host
trace per device, the paper's methodology.  Devices model their top
``max_active_tenants`` tenants individually and aggregate the rest into
one *tail* pseudo-tenant, bounding generator state while conserving the
device's total traffic weight.

:class:`TenantWorkload` then renders a device's trace at run time: a
:class:`~repro.workloads.base.WorkloadGenerator` that picks a tenant per
operation by cumulative weight and applies the base workload's Table-2
mix (write sizes, read ratio, create/append/delete vs. overwrite) to
that tenant's own files.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

from repro.analysis.parallel import derive_seed
from repro.fleet.storms import (
    STORM_KINDS,
    StormEvent,
    build_schedule,
    storm_affects,
)
from repro.host.trace import TraceOp, append, create, delete, read, write
from repro.workloads import WORKLOADS
from repro.workloads.base import WorkloadGenerator

__all__ = [
    "TAIL_TENANT",
    "FleetConfig",
    "TenantSlot",
    "DeviceSpec",
    "compile_fleet",
    "place_tenant",
    "tenant_weight",
    "tenant_secure",
    "TenantWorkload",
]

#: pseudo-tenant id aggregating every tenant beyond ``max_active_tenants``.
TAIL_TENANT = -1


@dataclass(frozen=True)
class FleetConfig:
    """Frozen description of one fleet campaign (picklable, hashable)."""

    devices: int = 16
    tenants: int = 2000
    seed: int = 1
    variants: tuple[str, ...] = ("baseline", "erSSD", "scrSSD", "secSSD")
    base_workload: str = "MailServer"
    zipf_s: float = 1.1
    spread: int = 1
    secure_fraction: float = 1.0
    storm: str = "none"
    storm_count: int = 1
    storm_fraction: float = 0.25
    device_blocks: int = 8
    device_wordlines: int = 4
    write_multiplier: float = 0.6
    queue_depth: int = 16
    devices_per_shard: int = 8
    max_active_tenants: int = 64
    vnodes: int = 64

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if not self.variants:
            raise ValueError("need at least one variant")
        if self.base_workload not in WORKLOADS:
            raise ValueError(f"unknown base workload {self.base_workload!r}")
        if not 0.0 < self.zipf_s < math.inf:
            raise ValueError("zipf_s must be finite and positive")
        if self.spread < 1:
            raise ValueError("spread must be >= 1")
        if not 0.0 <= self.secure_fraction <= 1.0:
            raise ValueError("secure_fraction must be in [0, 1]")
        if self.storm != "none" and self.storm not in STORM_KINDS:
            raise ValueError(
                f"unknown storm kind {self.storm!r}; "
                f"choose 'none' or one of {STORM_KINDS}"
            )
        if self.storm_count < 0:
            raise ValueError("storm_count must be >= 0")
        if not 0.0 < self.storm_fraction <= 1.0:
            raise ValueError("storm_fraction must be in (0, 1]")
        if not 0.0 < self.write_multiplier < math.inf:
            raise ValueError("write_multiplier must be finite and positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.devices_per_shard < 1:
            raise ValueError("devices_per_shard must be >= 1")
        if self.max_active_tenants < 1:
            raise ValueError("max_active_tenants must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")

    def schedule(self) -> tuple[StormEvent, ...]:
        """The campaign's storm schedule (empty for ``storm="none"``)."""
        return build_schedule(
            self.storm, self.storm_count, self.storm_fraction
        )

    def fingerprint(self) -> str:
        """Short stable hash of every campaign parameter.

        Embedded in each shard's cache key so a resume directory can
        never silently serve shards from a differently-parameterized
        campaign.
        """
        text = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class TenantSlot:
    """One individually-modeled tenant on one device."""

    tenant: int
    weight: float
    secure: bool


@dataclass(frozen=True)
class DeviceSpec:
    """Everything one device's shard needs to render its workload."""

    device_id: int
    #: variant-independent trace seed: every variant replays the same
    #: host traffic against this device.
    seed: int
    slots: tuple[TenantSlot, ...]
    tail_weight: float
    tail_tenants: int
    #: device write budget multiplier relative to the fleet mean load.
    traffic_scale: float
    storms: tuple[StormEvent, ...] = ()

    @property
    def tenants(self) -> int:
        return len(self.slots) + self.tail_tenants

    @property
    def weight(self) -> float:
        return sum(s.weight for s in self.slots) + self.tail_weight


# ----------------------------------------------------------------------
# compile-time placement
# ----------------------------------------------------------------------
def _hash_fraction(seed: int, *coordinates: object) -> float:
    """A deterministic draw in [0, 1) from fleet-domain coordinates."""
    return derive_seed(seed, *coordinates, domain="fleet") / 2.0**63


def tenant_weight(cfg: FleetConfig, tenant: int) -> float:
    """Zipf traffic weight: rank == tenant id, hottest first."""
    return 1.0 / float(tenant + 1) ** cfg.zipf_s


def tenant_secure(cfg: FleetConfig, tenant: int) -> bool:
    """Whether a tenant's data is security-sensitive (account-level)."""
    return _hash_fraction(cfg.seed, "secure", tenant) < cfg.secure_fraction


def _build_ring(cfg: FleetConfig) -> tuple[list[int], list[int]]:
    """The consistent-hash ring as parallel (hash, device) lists."""
    points = []
    for device in range(cfg.devices):
        for vnode in range(cfg.vnodes):
            points.append(
                (
                    derive_seed(
                        cfg.seed, "ring", device, vnode, domain="fleet"
                    ),
                    device,
                )
            )
    points.sort()
    return [h for h, _ in points], [d for _, d in points]


def place_tenant(
    cfg: FleetConfig, ring: tuple[list[int], list[int]], tenant: int
) -> int:
    """The device a tenant lives on under the current ring."""
    hashes, devices = ring
    start = bisect.bisect_left(
        hashes, derive_seed(cfg.seed, "tenant", tenant, domain="fleet")
    )
    candidates: list[int] = []
    want = min(cfg.spread, cfg.devices)
    i = start
    while len(candidates) < want:
        device = devices[i % len(devices)]
        if device not in candidates:
            candidates.append(device)
        i += 1
    if len(candidates) == 1:
        return candidates[0]
    pick = derive_seed(cfg.seed, "spread", tenant, domain="fleet")
    return candidates[pick % len(candidates)]


def compile_fleet(cfg: FleetConfig) -> tuple[DeviceSpec, ...]:
    """Compile the tenant population into per-device workload specs.

    Pure function of ``cfg``: placement over the consistent-hash ring,
    Zipf weights, per-tenant secure flags, top-``max_active_tenants``
    slot selection with tail aggregation, and per-device traffic scale
    (total device weight over the fleet mean, clamped to [0.25, 4.0] so
    one hot device cannot stretch the campaign unboundedly).
    """
    ring = _build_ring(cfg)
    placed: list[list[TenantSlot]] = [[] for _ in range(cfg.devices)]
    for tenant in range(cfg.tenants):
        placed[place_tenant(cfg, ring, tenant)].append(
            TenantSlot(
                tenant=tenant,
                weight=tenant_weight(cfg, tenant),
                secure=tenant_secure(cfg, tenant),
            )
        )
    totals = [sum(s.weight for s in slots) for slots in placed]
    mean = sum(totals) / cfg.devices
    schedule = cfg.schedule()
    specs = []
    for device, slots in enumerate(placed):
        slots.sort(key=lambda s: (-s.weight, s.tenant))
        active = tuple(slots[: cfg.max_active_tenants])
        tail = slots[cfg.max_active_tenants:]
        scale = totals[device] / mean if mean > 0.0 else 1.0
        specs.append(
            DeviceSpec(
                device_id=device,
                seed=derive_seed(cfg.seed, "device", device, domain="fleet"),
                slots=active,
                tail_weight=sum(s.weight for s in tail),
                tail_tenants=len(tail),
                traffic_scale=min(4.0, max(0.25, scale)),
                storms=schedule,
            )
        )
    return tuple(specs)


# ----------------------------------------------------------------------
# run-time trace rendering
# ----------------------------------------------------------------------
@dataclass
class _LiveSlot:
    """Mutable per-tenant state while rendering one device's trace."""

    tenant: int
    weight: float
    secure: bool
    files: list[str] = field(default_factory=list)


class TenantWorkload(WorkloadGenerator):
    """Multi-tenant trace generator for one device of the fleet.

    Applies the base workload's Table-2 mix per *tenant*: each operation
    first draws a tenant by cumulative traffic weight, then acts on that
    tenant's own files (create / append-or-overwrite / expire-oldest at
    the mail-server ratios, read debt at the profile's read:write
    ratio).  Storms fire at fixed fractions of the steady write budget;
    membership comes from :func:`repro.fleet.storms.storm_affects` on
    the *campaign* seed, so every shard deletes the same accounts.
    """

    def __init__(
        self, cfg: FleetConfig, spec: DeviceSpec, capacity_pages: int
    ) -> None:
        self.profile = WORKLOADS[cfg.base_workload].profile
        super().__init__(
            capacity_pages,
            seed=spec.seed,
            secure_fraction=cfg.secure_fraction,
        )
        self.cfg = cfg
        self.spec = spec
        self._slots: list[_LiveSlot] = [
            _LiveSlot(s.tenant, s.weight, s.secure) for s in spec.slots
        ]
        if spec.tail_tenants > 0:
            # the aggregated cold tail; per-file secure flags are drawn
            # like the base generators' (it stands for many tenants).
            self._slots.append(
                _LiveSlot(TAIL_TENANT, spec.tail_weight, True)
            )
        self._by_tenant = {slot.tenant: slot for slot in self._slots}
        self._cum: list[float] = []
        self._rebuild_cum()
        self._arrival_serial = 0
        #: storm accounting surfaced in the fleet report.
        self.storms_fired = 0
        self.storm_tenants_hit = 0
        self.storm_files_deleted = 0
        self.storm_pages_deleted = 0

    # -- tenant selection ----------------------------------------------
    def _rebuild_cum(self) -> None:
        total = 0.0
        self._cum = []
        for slot in self._slots:
            total += slot.weight
            self._cum.append(total)

    def _pick_slot(self) -> _LiveSlot:
        total = self._cum[-1] if self._cum else 0.0
        if total <= 0.0:
            # everyone was deleted: a replacement tenant arrives, so the
            # device keeps serving traffic (and the loop keeps moving).
            return self._spawn_arrival()
        draw = self.rng.random() * total
        return self._slots[
            min(bisect.bisect_right(self._cum, draw), len(self._slots) - 1)
        ]

    def _spawn_arrival(self) -> _LiveSlot:
        self._arrival_serial += 1
        tenant = derive_seed(
            self.cfg.seed,
            "arrival",
            self.spec.device_id,
            self._arrival_serial,
            domain="fleet",
        )
        slot = _LiveSlot(
            tenant=tenant,
            weight=1.0,
            secure=tenant_secure(self.cfg, tenant),
        )
        self._slots.append(slot)
        self._by_tenant[tenant] = slot
        self._rebuild_cum()
        return slot

    def _insec_for(self, slot: _LiveSlot) -> bool:
        if slot.tenant == TAIL_TENANT:
            return self._pick_insec()
        return not slot.secure

    # -- file operations ------------------------------------------------
    def _create_file(self, slot: _LiveSlot) -> Iterator[TraceOp]:
        name = self._new_name(f"t{slot.tenant}")
        self._track_create(name)
        slot.files.append(name)
        yield create(name, insec=self._insec_for(slot))
        pages = 0
        for _ in range(self.rng.randint(1, 2)):
            size = self._write_size()
            self._track_grow(name, size)
            yield append(name, size)
            pages += size
            yield from self._emit_reads()
        return pages

    def _delete_file(self, slot: _LiveSlot, name: str) -> Iterator[TraceOp]:
        slot.files.remove(name)
        pages = self._track_delete(name)
        yield delete(name)
        return pages

    def _emit_reads(self, writes: int = 1) -> Iterator[TraceOp]:
        for _ in range(self._reads_due(writes)):
            name = self._random_file()
            if name is None or self._sizes[name] == 0:
                continue
            npages = min(self._sizes[name], self.rng.randint(1, 2))
            yield read(name, 0, npages)

    def _trim_overall_oldest(self) -> Iterator[TraceOp]:
        name = self._oldest()
        if name is None:
            return
        # the global creation-order deque spans all tenants; find the
        # owner from the name prefix ("t<tenant>-<serial>").
        owner = int(name[1:].rsplit("-", 1)[0])
        yield from self._delete_file(self._by_tenant[owner], name)

    def _tenant_op(self, slot: _LiveSlot) -> Iterator[TraceOp]:
        roll = self.rng.random()
        overwrite = "overwrite" in self.profile.write_pattern
        if roll < 0.55 or not slot.files:
            pages = yield from self._create_file(slot)
            return pages
        if roll < 0.80:
            name = slot.files[self.rng.randrange(len(slot.files))]
            size = self._write_size()
            if overwrite and self._sizes[name] > 0:
                size = min(size, self._sizes[name])
                yield write(name, 0, size)
            else:
                self._track_grow(name, size)
                yield append(name, size)
            yield from self._emit_reads()
            return size
        yield from self._delete_file(slot, slot.files[0])
        return 0

    # -- storms ----------------------------------------------------------
    def _fire_storm(self, storm: StormEvent) -> Iterator[TraceOp]:
        self.storms_fired += 1
        changed = False
        for slot in list(self._slots):
            if slot.tenant == TAIL_TENANT:
                yield from self._storm_tail(storm, slot)
                continue
            if not storm_affects(self.cfg.seed, storm, slot.tenant):
                continue
            self.storm_tenants_hit += 1
            changed = True
            for name in list(slot.files):
                self.storm_files_deleted += 1
                self.storm_pages_deleted += yield from self._delete_file(
                    slot, name
                )
            self._slots.remove(slot)
            del self._by_tenant[slot.tenant]
            if storm.kind == "churn":
                # account closes, a fresh tenant arrives with the same
                # traffic share; identity hashed so re-churn stays unique.
                tenant = derive_seed(
                    self.cfg.seed,
                    "churn",
                    storm.index,
                    slot.tenant,
                    domain="fleet",
                )
                fresh = _LiveSlot(
                    tenant=tenant,
                    weight=slot.weight,
                    secure=tenant_secure(self.cfg, tenant),
                )
                self._slots.append(fresh)
                self._by_tenant[tenant] = fresh
        if changed:
            self._rebuild_cum()

    def _storm_tail(
        self, storm: StormEvent, slot: _LiveSlot
    ) -> Iterator[TraceOp]:
        """The aggregate tail loses its oldest ``tenant_fraction`` share."""
        victims = slot.files[: int(len(slot.files) * storm.tenant_fraction)]
        for name in list(victims):
            self.storm_files_deleted += 1
            self.storm_pages_deleted += yield from self._delete_file(
                slot, name
            )
        if storm.kind == "deletion":
            slot.weight *= 1.0 - storm.tenant_fraction
            self._rebuild_cum()

    # -- WorkloadGenerator interface -------------------------------------
    def setup(self) -> Iterator[TraceOp]:
        target = int(self.capacity_pages * self.fill_fraction)
        while self._used < target:
            yield from self._create_file(self._pick_slot())

    def steady(self, total_write_pages: int) -> Iterator[TraceOp]:
        written = 0
        next_storm = 0
        storms = self.spec.storms
        while written < total_write_pages:
            while (
                next_storm < len(storms)
                and written
                >= storms[next_storm].at_fraction * total_write_pages
            ):
                yield from self._fire_storm(storms[next_storm])
                next_storm += 1
            if self._used > self.capacity_pages * self.high_water:
                yield from self._trim_overall_oldest()
                continue
            written += yield from self._tenant_op(self._pick_slot())
        # storms scheduled past the last write still fire (at_fraction
        # is < 1 but integer write granularity can overshoot).
        while next_storm < len(storms):
            yield from self._fire_storm(storms[next_storm])
            next_storm += 1

    def storm_counters(self) -> dict[str, int]:
        """Storm accounting for the fleet report (JSON-ready)."""
        return {
            "storms_fired": self.storms_fired,
            "storm_tenants_hit": self.storm_tenants_hit,
            "storm_files_deleted": self.storm_files_deleted,
            "storm_pages_deleted": self.storm_pages_deleted,
        }
