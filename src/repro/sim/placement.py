"""Heterogeneous spot pools and the placement plugin layer.

The paper's economics hinge on spot price/reliability trade-offs, yet a
single sweep historically assumed one VM type with one lifetime law and
one price.  This module adds the missing **pool axis** plus the plugin
pair that decomposes placement, following the accasim split the ROADMAP
names as the model (``scheduler_class`` picks *who* runs,
``allocator_class`` picks *where*):

``PoolSpec``
    One homogeneous slice of the fleet: a name, a slot count, and the
    pool's price, boot latency, and lifetime law.  A fleet is an ordered
    catalog of pools whose sizes partition the fleet cap; both backends
    consume the same resolved catalog, so pool indices (and hence the
    round-protocol draw mapping) agree exactly.

``Scheduler`` plugins (fifo / keyed / backfill)
    Ordering and admission: which queued job is eligible next, and
    whether the manager may scan past a stuck head.  These wrap the
    queue semantics that used to be hard-coded flags on
    :class:`~repro.sim.cluster.ClusterManager`.

``Allocator`` plugins (first-fit / best-fit-price / reliability / affinity)
    Pool choice: a deterministic *ranking* of the pool catalog that
    governs where fresh boots land, which free VM is grabbed first, and
    which unsuitable VM a stalled queue evicts.  Rankings are static per
    (catalog, tenant) and computed identically by the event-driven
    oracle and the vectorized kernels — pool choice happens *before*
    the lifetime draw, so replications stay paired draw-for-draw.

Cross-pool hot-spare substitution falls out of ranked-headroom
replacement: when a dead VM's own pool has no headroom left, the
replacement boots in the next ranked pool that does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.distributions.base import LifetimeDistribution

__all__ = [
    "PoolSpec",
    "resolve_pools",
    "pool_ranking",
    "Scheduler",
    "FifoScheduler",
    "KeyedScheduler",
    "BackfillScheduler",
    "Allocator",
    "FirstFitAllocator",
    "BestFitByPriceAllocator",
    "ReliabilityAwareAllocator",
    "TenantAffinityAllocator",
    "ALLOCATORS",
    "SCHEDULERS",
    "make_allocator",
    "make_scheduler",
]


# ----------------------------------------------------------------------
# Pool catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PoolSpec:
    """One homogeneous pool of a heterogeneous spot fleet.

    Attributes
    ----------
    name:
        Human-readable pool label (unique within a catalog).
    size:
        Slot count.  Pool sizes must partition the fleet cap
        (``pool_size`` / ``max_vms``) exactly.
    dist:
        Lifetime law of VMs booted in this pool; ``None`` inherits the
        sweep's distribution.
    price:
        Hourly price, in the sweep's rate unit.  Per-pool VM-hours are
        accumulated separately (``pool_vm_hours``) so cost is always
        ``hours @ prices``.
    boot_latency:
        Provisioning delay for this pool's boots, hours.  ``None``
        inherits the config-level ``provision_latency``.  The cluster
        boots instantaneously, so ``ClusterConfig`` accepts only
        ``None`` or ``0`` here.
    """

    name: str
    size: int
    dist: LifetimeDistribution | None = None
    price: float = 1.0
    boot_latency: float | None = None


def resolve_pools(
    pools: Sequence[PoolSpec] | None,
    *,
    dist: LifetimeDistribution,
    n_slots: int,
    provision_latency: float = 0.0,
) -> tuple[PoolSpec, ...]:
    """Normalise a pool catalog against a sweep's defaults.

    ``None`` resolves to the single implicit pool every pre-pool sweep
    ran on: the whole fleet under ``dist`` at unit price with the
    config-level boot latency.  Explicit catalogs are validated (unique
    names, positive sizes, sizes partitioning ``n_slots``) and have
    their ``dist``/``boot_latency`` defaults filled, so downstream code
    never branches on "pools or not".
    """
    if pools is None:
        return (
            PoolSpec(
                name="default",
                size=int(n_slots),
                dist=dist,
                price=1.0,
                boot_latency=float(provision_latency),
            ),
        )
    catalog = tuple(pools)
    if not catalog:
        raise ValueError("pools must be a non-empty sequence of PoolSpec")
    names = [p.name for p in catalog]
    if len(set(names)) != len(names):
        raise ValueError(f"pool names must be unique, got {names}")
    for p in catalog:
        if int(p.size) <= 0:
            raise ValueError(f"pool {p.name!r} size must be positive, got {p.size}")
        if p.price < 0.0:
            raise ValueError(f"pool {p.name!r} price must be >= 0, got {p.price}")
        if p.boot_latency is not None and p.boot_latency < 0.0:
            raise ValueError(
                f"pool {p.name!r} boot_latency must be >= 0, got {p.boot_latency}"
            )
    total = sum(int(p.size) for p in catalog)
    if total != int(n_slots):
        raise ValueError(
            f"pool sizes must sum to the fleet cap ({n_slots}), got {total}"
        )
    return tuple(
        PoolSpec(
            name=p.name,
            size=int(p.size),
            dist=p.dist if p.dist is not None else dist,
            price=float(p.price),
            boot_latency=(
                float(p.boot_latency)
                if p.boot_latency is not None
                else float(provision_latency)
            ),
        )
        for p in catalog
    )


# ----------------------------------------------------------------------
# Scheduler plugins: ordering / admission
# ----------------------------------------------------------------------

class Scheduler:
    """Queue-ordering policy: which queued job is eligible next.

    ``keyed`` switches the manager to priority-key ordering (tenancy
    fair/weighted queues); ``backfill`` lets it scan past a stuck head
    for a narrower startable job.  Plain FIFO is both flags off.
    """

    name = "fifo"
    keyed = False
    backfill = False


class FifoScheduler(Scheduler):
    """Strict arrival-order head-of-line scheduling (the default)."""

    name = "fifo"


class KeyedScheduler(Scheduler):
    """Priority-key ordering: the queue pops the minimum-key job."""

    name = "keyed"
    keyed = True


class BackfillScheduler(Scheduler):
    """FIFO head-of-line plus backfill past a stuck head."""

    name = "backfill"
    backfill = True


SCHEDULERS: dict[str, type[Scheduler]] = {
    "fifo": FifoScheduler,
    "keyed": KeyedScheduler,
    "backfill": BackfillScheduler,
}


def make_scheduler(spec: str | Scheduler | None) -> Scheduler:
    """Coerce a scheduler name (or instance, or ``None``) to a plugin."""
    if spec is None:
        return FifoScheduler()
    if isinstance(spec, Scheduler):
        return spec
    try:
        return SCHEDULERS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {spec!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None


# ----------------------------------------------------------------------
# Allocator plugins: pool choice
# ----------------------------------------------------------------------

class Allocator:
    """Pool-choice policy, expressed as a deterministic catalog ranking.

    ``rank(pools)`` returns the pool indices best-first; ties always
    break on catalog index so both backends (and every shard layout)
    agree bit-for-bit.  The ranking drives three decisions: where a
    fresh boot lands (first ranked pool with headroom), which free VM a
    job grabs first (rank is the primary sort key, age the secondary),
    and which unsuitable VM a stalled queue evicts.  ``rank_for``
    refines the ranking per tenant; the base class ignores the tenant.
    """

    name = "first_fit"

    def rank(self, pools: Sequence[PoolSpec]) -> tuple[int, ...]:
        return tuple(range(len(pools)))

    def rank_for(
        self, pools: Sequence[PoolSpec], tenant: int | None = None
    ) -> tuple[int, ...]:
        return self.rank(pools)


class FirstFitAllocator(Allocator):
    """Catalog order: the first pool with headroom wins (the default)."""

    name = "first_fit"


class BestFitByPriceAllocator(Allocator):
    """Cheapest pool first; price ties break on catalog index."""

    name = "best_fit_price"

    def rank(self, pools: Sequence[PoolSpec]) -> tuple[int, ...]:
        return tuple(
            sorted(range(len(pools)), key=lambda k: (pools[k].price, k))
        )


class ReliabilityAwareAllocator(Allocator):
    """Longest expected lifetime first; ties break on catalog index."""

    name = "reliability"

    def rank(self, pools: Sequence[PoolSpec]) -> tuple[int, ...]:
        means = [p.dist.mean() if p.dist is not None else 0.0 for p in pools]
        return tuple(
            sorted(range(len(pools)), key=lambda k: (-means[k], k))
        )


class TenantAffinityAllocator(Allocator):
    """Per-tenant pool affinity: tenant ``t`` prefers pool ``t mod P``.

    Job-independent decisions (idle-reaper ordering, pre-traffic boots)
    fall back to catalog order via the tenant-less ``rank``.
    """

    name = "tenant_affinity"

    def rank_for(
        self, pools: Sequence[PoolSpec], tenant: int | None = None
    ) -> tuple[int, ...]:
        P = len(pools)
        if tenant is None or P == 0:
            return self.rank(pools)
        home = int(tenant) % P
        return (home, *(k for k in range(P) if k != home))


ALLOCATORS: dict[str, type[Allocator]] = {
    "first_fit": FirstFitAllocator,
    "best_fit_price": BestFitByPriceAllocator,
    "reliability": ReliabilityAwareAllocator,
    "tenant_affinity": TenantAffinityAllocator,
}


def make_allocator(spec: str | Allocator | None) -> Allocator:
    """Coerce an allocator name (or instance, or ``None``) to a plugin."""
    if spec is None:
        return FirstFitAllocator()
    if isinstance(spec, Allocator):
        return spec
    try:
        return ALLOCATORS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown allocator {spec!r}; expected one of {sorted(ALLOCATORS)}"
        ) from None


def pool_ranking(
    pools: Sequence[PoolSpec],
    allocator: str | Allocator | None,
    tenant: int | None = None,
) -> tuple[int, ...]:
    """The allocator's deterministic pool ranking for one decision site."""
    return make_allocator(allocator).rank_for(pools, tenant)
