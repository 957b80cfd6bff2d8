"""Pre-wired instrument sets binding the metric registry to the system layers.

This module owns the **process-global registry** (the one the service's
``metrics`` endpoint serves) and the instrument facades the hot paths call:

- :func:`admission_instruments` — allocator-side tracing and counters
  (DP phase timings, table-cache hit rates, rejection reasons);
- :func:`outage_monitor` — the empirical Eq.-(1) violation counter fed by
  the simulation engine's data plane;
- :func:`bind_network_gauges` — pull gauges over a live ``NetworkManager``
  (per-level occupancy ``O_L``, headroom ``S_L - sum mu_i``, tenant count).

Everything is cheap-by-default: counters are O(1) increments, phase timing
only happens on sampled traces, and :func:`configure` can disable the whole
layer (swapping in no-op facades) for overhead A/B measurements —
``benchmarks/bench_obs_overhead.py`` gates the difference at <= 5%.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import SpanTracer, Trace

__all__ = [
    "global_registry",
    "reset_global_registry",
    "configure",
    "enabled",
    "admission_instruments",
    "AdmissionInstruments",
    "service_instruments",
    "ServiceInstruments",
    "record_fault",
    "experiment_instruments",
    "ExperimentInstruments",
    "outage_monitor",
    "OutageMonitor",
    "bind_network_gauges",
    "cluster_instruments",
    "ClusterInstruments",
    "PHASE_PRUNE",
    "PHASE_TABLE_BUILD",
    "PHASE_BATCH_OCCUPANCY",
    "PHASE_COMBINE",
    "PHASE_ALLOC",
    "REASON_NO_FREE_SLOTS",
    "REASON_NO_FEASIBLE_SUBTREE",
]

#: Buckets for allocate/phase timings: 20us .. 10s.
_ALLOC_BUCKETS: Tuple[float, ...] = (
    0.00002, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)

#: Buckets for admission batch sizes (requests per dispatch).
_BATCH_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# Fast-DP phase names (Algorithm 1 stages, see DESIGN.md).
PHASE_PRUNE = "prune"
PHASE_TABLE_BUILD = "table_build"
PHASE_BATCH_OCCUPANCY = "batch_occupancy"
PHASE_COMBINE = "combine"
PHASE_ALLOC = "alloc"

# Allocator-level rejection reasons.
REASON_NO_FREE_SLOTS = "no_free_slots"
REASON_NO_FEASIBLE_SUBTREE = "no_feasible_subtree"

_REGISTRY = MetricsRegistry()
_ENABLED = True
_SAMPLE_EVERY = 64
_SAMPLE_PHASE = 0


def global_registry() -> MetricsRegistry:
    """The process-wide registry served by the ``metrics`` endpoint."""
    return _REGISTRY


def enabled() -> bool:
    return _ENABLED


def configure(
    enabled: Optional[bool] = None,
    sample_every: Optional[int] = None,
    sample_phase: Optional[int] = None,
) -> None:
    """Flip instrumentation on/off or retune trace sampling at runtime.

    Disabling swaps the admission facade for a shared no-op object, so the
    allocator hot path pays a single global read and nothing else — the
    baseline side of the overhead benchmark.

    ``sample_phase`` staggers the deterministic every-Nth sampler between
    processes: spawned shard workers seed it from their shard index so the
    cluster does not sample the same startup-biased Nth calls on every
    shard.  Applying it resets the live tracer's call counter to the phase.
    """
    global _ENABLED, _SAMPLE_EVERY, _SAMPLE_PHASE, _ADMISSION
    if enabled is not None:
        _ENABLED = bool(enabled)
    if sample_every is not None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        _SAMPLE_EVERY = int(sample_every)
        if _ADMISSION is not None:
            _ADMISSION.tracer.sample_every = _SAMPLE_EVERY
    if sample_phase is not None:
        if sample_phase < 0:
            raise ValueError(f"sample_phase must be >= 0, got {sample_phase}")
        _SAMPLE_PHASE = int(sample_phase)
        if _ADMISSION is not None:
            _ADMISSION.tracer._calls = _SAMPLE_PHASE
            _ADMISSION.tracer._phase = _SAMPLE_PHASE


def reset_global_registry() -> MetricsRegistry:
    """Fresh global registry (tests only — live gauges are left behind)."""
    global _REGISTRY, _ADMISSION, _OUTAGE, _SERVICE, _EXPERIMENT, _CLUSTER
    _REGISTRY = MetricsRegistry()
    _ADMISSION = None
    _OUTAGE = None
    _SERVICE = None
    _EXPERIMENT = None
    _CLUSTER = None
    return _REGISTRY


# ----------------------------------------------------------------------
# Admission (allocator) instruments
# ----------------------------------------------------------------------


class AdmissionInstruments:
    """Counters + sampled tracer for the allocator admission path.

    One instance serves every allocator in the process; per-allocator and
    per-reason children are resolved once and cached in plain dicts so the
    per-request cost is a couple of dict lookups and integer adds.
    """

    enabled = True

    def __init__(
        self, registry: MetricsRegistry, sample_every: int = 64, phase: int = 0
    ) -> None:
        self.registry = registry
        self.tracer = SpanTracer(sample_every=sample_every, phase=phase)
        self._requests: Dict[str, Counter] = {}
        self._admitted: Dict[str, Counter] = {}
        self._rejected: Dict[Tuple[str, str], Counter] = {}
        self._allocate_hist: Dict[str, Histogram] = {}
        self._phase_hist: Dict[str, Histogram] = {}
        self._cache_lookups: Dict[str, Counter] = {}
        self._cache_hits: Dict[str, Counter] = {}
        # Touch the stable families once so the exposition carries them from
        # process start (schema checks rely on presence, not traffic).
        for cache in ("machine", "vertex"):
            self._cache_counter(cache)
        for phase in (
            PHASE_PRUNE, PHASE_TABLE_BUILD, PHASE_BATCH_OCCUPANCY,
            PHASE_COMBINE, PHASE_ALLOC,
        ):
            self._phase(phase)

    # -- child resolution (cached) -------------------------------------

    def _for_allocator(self, name: str) -> None:
        registry = self.registry
        self._requests[name] = registry.counter(
            "repro_admission_requests_total",
            "Admission (allocate) attempts per allocator.",
            allocator=name,
        )
        self._admitted[name] = registry.counter(
            "repro_admission_admitted_total",
            "Successful placements per allocator.",
            allocator=name,
        )
        self._allocate_hist[name] = registry.histogram(
            "repro_admission_allocate_seconds",
            "Wall time of one allocate() decision.",
            buckets=_ALLOC_BUCKETS,
            allocator=name,
        )

    def _rejection_counter(self, allocator: str, reason: str) -> Counter:
        key = (allocator, reason)
        counter = self._rejected.get(key)
        if counter is None:
            counter = self.registry.counter(
                "repro_admission_rejected_total",
                "Rejected placements per allocator and reason.",
                allocator=allocator,
                reason=reason,
            )
            self._rejected[key] = counter
        return counter

    def _phase(self, phase: str) -> Histogram:
        hist = self._phase_hist.get(phase)
        if hist is None:
            hist = self.registry.histogram(
                "repro_admission_phase_seconds",
                "Per-request wall time of one fast-DP phase (sampled traces).",
                buckets=_ALLOC_BUCKETS,
                phase=phase,
            )
            self._phase_hist[phase] = hist
        return hist

    def _cache_counter(self, cache: str) -> Tuple[Counter, Counter]:
        lookups = self._cache_lookups.get(cache)
        if lookups is None:
            lookups = self.registry.counter(
                "repro_admission_cache_lookups_total",
                "DP table cache probes (machine = per-free-slot tables, "
                "vertex = per-signature rack tables).",
                cache=cache,
            )
            self._cache_lookups[cache] = lookups
            self._cache_hits[cache] = self.registry.counter(
                "repro_admission_cache_hits_total",
                "DP table cache probes answered by a shared table.",
                cache=cache,
            )
        return lookups, self._cache_hits[cache]

    # -- hot-path API ---------------------------------------------------

    def start(self, allocator: str) -> Optional[Trace]:
        """Begin one admission decision; a Trace only when sampled."""
        if allocator not in self._requests:
            self._for_allocator(allocator)
        self._requests[allocator].inc()
        return self.tracer.start(allocator)

    def done(
        self,
        allocator: str,
        duration_s: float,
        admitted: bool,
        reason: Optional[str] = None,
        trace: Optional[Trace] = None,
        n_vms: int = 0,
    ) -> None:
        """Finish one admission decision started with :meth:`start`."""
        self._allocate_hist[allocator].observe(duration_s)
        if admitted:
            self._admitted[allocator].inc()
        else:
            self._rejection_counter(
                allocator, reason or REASON_NO_FEASIBLE_SUBTREE
            ).inc()
        if trace is not None:
            for phase, seconds in trace.phases.items():
                self._phase(phase).observe(seconds)
            trace.annotate(
                allocator=allocator,
                admitted=admitted,
                reason=reason,
                n_vms=n_vms,
            )
            self.tracer.finish(trace)

    def cache(self, cache: str, lookups: int, hits: int) -> None:
        """Fold one request's cache statistics in (O(1) per request)."""
        if lookups <= 0:
            return
        lookup_counter, hit_counter = self._cache_counter(cache)
        lookup_counter.inc(lookups)
        if hits > 0:
            hit_counter.inc(hits)


class _NullAdmission:
    """Shape-compatible no-op facade used while instrumentation is disabled."""

    enabled = False
    tracer = None

    def start(self, allocator: str) -> None:
        return None

    def done(self, *args, **kwargs) -> None:
        pass

    def cache(self, *args, **kwargs) -> None:
        pass


_NULL_ADMISSION = _NullAdmission()
_ADMISSION: Optional[AdmissionInstruments] = None


def admission_instruments():
    """The live admission facade, or the shared no-op when disabled."""
    global _ADMISSION
    if not _ENABLED:
        return _NULL_ADMISSION
    if _ADMISSION is None:
        _ADMISSION = AdmissionInstruments(
            _REGISTRY, sample_every=_SAMPLE_EVERY, phase=_SAMPLE_PHASE
        )
    return _ADMISSION


# ----------------------------------------------------------------------
# Service-layer instruments
# ----------------------------------------------------------------------


class ServiceInstruments:
    """Counters, latency histogram and live gauges for the admission service.

    The service's legacy ``stats()`` integers stay authoritative for the
    line-JSON ``stats`` op; this mirrors every increment onto the registry
    so the ``metrics`` endpoint and Prometheus scrapers see the same story
    with standard metric semantics.
    """

    #: Mirror of :class:`repro.service.concurrency.ServiceCounters` fields.
    EVENTS = (
        "submitted",
        "admitted",
        "rejected",
        "expired",
        "released",
        "retries",
        "errors",
        "shed",
        "deduped",
        "batches",
        "coalesced",
        "resized",
        "resize_rejected",
    )

    #: Resize outcome label values (mirror of the manager's tallies).
    RESIZE_OUTCOMES = ("in_place", "replaced", "rejected")

    #: Load-shedding reasons (the typed error codes a shed maps to).
    SHED_REASONS = ("overloaded", "read_only", "unavailable", "over_quota")

    #: Degradation-ladder states a transition can land in.
    DEGRADATION_STATES = ("full", "read_only", "fast_fail")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._events: Dict[str, Counter] = {
            name: registry.counter(
                "repro_service_events_total",
                "Admission-service lifecycle events (submit/decision/release).",
                event=name,
            )
            for name in self.EVENTS
        }
        self._latency = registry.histogram(
            "repro_service_admission_latency_seconds",
            "End-to-end admission latency: enqueue to decision, queueing included.",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self._batch_size = registry.histogram(
            "repro_service_batch_size",
            "Coalesced requests dispatched per admission batch.",
            buckets=_BATCH_BUCKETS,
        )
        # Presence-before-traffic: all three outcome series exist from the
        # first scrape, so dashboards can rate() them without gaps.
        self._resize_outcomes: Dict[str, Counter] = {
            outcome: registry.counter(
                "repro_resize_total",
                "Elastic resize operations, by outcome.",
                outcome=outcome,
            )
            for outcome in self.RESIZE_OUTCOMES
        }
        self._resize_latency = registry.histogram(
            "repro_service_resize_latency_seconds",
            "End-to-end resize latency under the service lock.",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self._tenant_sheds: Dict[str, Counter] = {
            "none": registry.counter(
                "repro_service_tenant_shed_total",
                "Over-quota sheds, by tenant.",
                tenant="none",
            )
        }
        self._tenant_depths: Dict[str, object] = {}
        # Presence-before-traffic for the per-tenant depth gauge family.
        registry.gauge(
            "repro_service_tenant_queue_depth",
            "Waiting requests (ready + parked) per tenant.",
            tenant="none",
        )
        self._shed: Dict[str, Counter] = {
            reason: registry.counter(
                "repro_service_shed_total",
                "Requests refused with a typed load-shedding error, by reason.",
                reason=reason,
            )
            for reason in self.SHED_REASONS
        }
        self._transitions: Dict[str, Counter] = {
            state: registry.counter(
                "repro_service_degradation_transitions_total",
                "Degradation-ladder transitions, by destination state.",
                to=state,
            )
            for state in self.DEGRADATION_STATES
        }
        # Presence-before-traffic: the fault counter family must appear in
        # the exposition even in processes that never inject a fault.
        registry.counter(
            "repro_faults_injected_total",
            "Failpoint triggers, by failpoint name.",
            failpoint="none",
        )
        # Same for the flight recorder, whose writes are lazy best-effort.
        registry.counter(
            "repro_flight_events_total",
            "Flight-recorder events recorded, by kind.",
            kind="none",
        )
        registry.counter(
            "repro_flight_dumps_total",
            "Flight-recorder dumps written, by trigger.",
            trigger="none",
        )
        # The metrics endpoint must always carry the guarantee-health
        # families, even before any simulation ran in this process.
        outage_monitor()

    def event(self, name: str, amount: int = 1) -> None:
        if amount > 0:
            self._events[name].inc(amount)

    def observe_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def observe_batch(self, size: int) -> None:
        """Record one batch dispatch and how many requests rode in it."""
        self._batch_size.observe(float(size))

    def resize(self, outcome: str, seconds: float) -> None:
        """Record one resize decision and its latency."""
        counter = self._resize_outcomes.get(outcome)
        if counter is None:
            counter = self.registry.counter(
                "repro_resize_total",
                "Elastic resize operations, by outcome.",
                outcome=outcome,
            )
            self._resize_outcomes[outcome] = counter
        counter.inc()
        self._resize_latency.observe(seconds)

    def tenant_shed(self, tenant: str) -> None:
        counter = self._tenant_sheds.get(tenant)
        if counter is None:
            counter = self.registry.counter(
                "repro_service_tenant_shed_total",
                "Over-quota sheds, by tenant.",
                tenant=tenant,
            )
            self._tenant_sheds[tenant] = counter
        counter.inc()

    def bind_tenant_depth(self, tenant: str, read) -> None:
        """Register (or refresh) the pull gauge for one tenant's queue depth."""
        gauge = self._tenant_depths.get(tenant)
        if gauge is None:
            gauge = self.registry.gauge(
                "repro_service_tenant_queue_depth",
                "Waiting requests (ready + parked) per tenant.",
                tenant=tenant,
            )
            self._tenant_depths[tenant] = gauge
        gauge.set_function(read)

    def shed_reason(self, reason: str) -> None:
        counter = self._shed.get(reason)
        if counter is None:
            counter = self.registry.counter(
                "repro_service_shed_total",
                "Requests refused with a typed load-shedding error, by reason.",
                reason=reason,
            )
            self._shed[reason] = counter
        counter.inc()

    def degradation_transition(self, to_state: str) -> None:
        counter = self._transitions.get(to_state)
        if counter is None:
            counter = self.registry.counter(
                "repro_service_degradation_transitions_total",
                "Degradation-ladder transitions, by destination state.",
                to=to_state,
            )
            self._transitions[to_state] = counter
        counter.inc()

    def bind_service(self, service) -> None:
        """Register pull gauges over one live ``AdmissionService``.

        Also binds the network guarantee-health gauges over its manager.
        Re-binding (a fresh service in the same process) replaces the
        callbacks, so the exposition always follows the newest instance.
        """
        registry = self.registry
        for queue_name, read in (
            ("ready", lambda: float(service.queue_depths()[0])),
            ("parked", lambda: float(service.queue_depths()[1])),
        ):
            registry.gauge(
                "repro_service_queue_depth",
                "Requests waiting in the admission queue.",
                queue=queue_name,
            ).set_function(read)
        registry.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the admission service instance started.",
        ).set_function(lambda: max(0.0, service.clock() - service.started_at))
        registry.gauge(
            "repro_service_degradation_state",
            "Degradation ladder position: 0=full, 1=read_only, 2=fast_fail.",
        ).set_function(lambda: float(service.degradation_code()))
        registry.gauge(
            "repro_service_coalesce_ratio",
            "Fraction of processed requests that shared a batch leader's "
            "DP tables (0 = batching off or never coalesced).",
        ).set_function(lambda: float(service.coalesce_ratio()))
        bind_network_gauges(registry, service.manager)


class _NullService:
    """No-op facade used while instrumentation is disabled."""

    def event(self, name: str, amount: int = 1) -> None:
        pass

    def observe_latency(self, seconds: float) -> None:
        pass

    def observe_batch(self, size: int) -> None:
        pass

    def resize(self, outcome: str, seconds: float) -> None:
        pass

    def tenant_shed(self, tenant: str) -> None:
        pass

    def bind_tenant_depth(self, tenant: str, read) -> None:
        pass

    def shed_reason(self, reason: str) -> None:
        pass

    def degradation_transition(self, to_state: str) -> None:
        pass

    def bind_service(self, service) -> None:
        pass


_NULL_SERVICE = _NullService()
_SERVICE: Optional[ServiceInstruments] = None


def service_instruments():
    """The live service facade, or the shared no-op when disabled."""
    global _SERVICE
    if not _ENABLED:
        return _NULL_SERVICE
    if _SERVICE is None:
        _SERVICE = ServiceInstruments(_REGISTRY)
    return _SERVICE


def record_fault(failpoint: str) -> None:
    """Count one failpoint trigger (called by ``repro.faults``, best effort)."""
    if not _ENABLED:
        return
    _REGISTRY.counter(
        "repro_faults_injected_total",
        "Failpoint triggers, by failpoint name.",
        failpoint=failpoint,
    ).inc()


# ----------------------------------------------------------------------
# Experiment harness instruments
# ----------------------------------------------------------------------

#: Buckets for sweep-cell wall times: 10ms (tiny cells) .. 1h (paper scale).
_CELL_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)


class ExperimentInstruments:
    """Progress counters for the (parallel) experiment harness.

    One counter/histogram pair per experiment, resolved once and cached —
    the harness records one observation per completed sweep cell, so the
    cost is negligible next to the cell itself.  Resumed-from-checkpoint
    cells are *not* recorded: the metrics describe compute performed by
    this process, which is what a progress dashboard wants.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._completed: Dict[str, Counter] = {}
        self._seconds: Dict[str, Histogram] = {}
        # Presence-before-traffic: both families must appear in the
        # exposition even in processes that never run an experiment.
        self._for_experiment("none")

    def _for_experiment(self, experiment: str) -> Tuple[Counter, Histogram]:
        counter = self._completed.get(experiment)
        if counter is None:
            counter = self.registry.counter(
                "repro_experiment_cells_completed_total",
                "Sweep cells computed by this process, per experiment.",
                experiment=experiment,
            )
            self._completed[experiment] = counter
            self._seconds[experiment] = self.registry.histogram(
                "repro_experiment_cell_seconds",
                "Wall time to compute one sweep cell.",
                buckets=_CELL_BUCKETS,
                experiment=experiment,
            )
        return counter, self._seconds[experiment]

    def cell_completed(self, experiment: str, seconds: float) -> None:
        """Record one freshly-computed cell and its wall time."""
        counter, histogram = self._for_experiment(experiment)
        counter.inc()
        histogram.observe(seconds)


class _NullExperiment:
    """No-op facade used while instrumentation is disabled."""

    def cell_completed(self, experiment: str, seconds: float) -> None:
        pass


_NULL_EXPERIMENT = _NullExperiment()
_EXPERIMENT: Optional[ExperimentInstruments] = None


def experiment_instruments():
    """The live harness facade, or the shared no-op when disabled."""
    global _EXPERIMENT
    if not _ENABLED:
        return _NULL_EXPERIMENT
    if _EXPERIMENT is None:
        _EXPERIMENT = ExperimentInstruments(_REGISTRY)
    return _EXPERIMENT


# ----------------------------------------------------------------------
# Empirical outage monitor (Eq. 1 validation signal)
# ----------------------------------------------------------------------


class OutageMonitor:
    """Counts empirical violations of the probabilistic guarantee.

    The data plane reports, per simulated second, how many directed links
    carried stochastic load and on how many of those the *offered* demand
    exceeded capacity.  ``rate()`` — outage link-seconds over loaded
    link-seconds — is the measured counterpart of the per-link outage
    probability Eq. (1) bounds by ``epsilon``.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.outage = registry.counter(
            "repro_outage_link_seconds_total",
            "(directed link, second) pairs whose offered demand exceeded capacity.",
        )
        self.loaded = registry.counter(
            "repro_loaded_link_seconds_total",
            "(directed link, second) pairs that carried stochastic load.",
        )
        self._epsilon = registry.gauge(
            "repro_outage_epsilon",
            "Configured SLA risk factor epsilon of Eq. (1).",
        )
        rate = registry.gauge(
            "repro_outage_empirical_rate",
            "Measured outage frequency; the guarantee holds while <= epsilon.",
        )
        rate.set_function(self.rate)

    def record(self, outage_seconds: int, loaded_seconds: int) -> None:
        if loaded_seconds:
            self.loaded.inc(loaded_seconds)
        if outage_seconds:
            self.outage.inc(outage_seconds)

    def set_epsilon(self, epsilon: float) -> None:
        self._epsilon.set(epsilon)

    @property
    def epsilon(self) -> float:
        return self._epsilon.value

    def rate(self) -> float:
        loaded = self.loaded.value
        return self.outage.value / loaded if loaded else 0.0

    def within_bound(self, epsilon: Optional[float] = None) -> bool:
        """Is the measured rate within the configured (or given) epsilon?"""
        bound = self._epsilon.value if epsilon is None else epsilon
        return self.rate() <= bound


class _NullOutage:
    def record(self, outage_seconds: int, loaded_seconds: int) -> None:
        pass

    def set_epsilon(self, epsilon: float) -> None:
        pass

    def rate(self) -> float:
        return 0.0

    def within_bound(self, epsilon: Optional[float] = None) -> bool:
        return True


_NULL_OUTAGE = _NullOutage()
_OUTAGE: Optional[OutageMonitor] = None


def outage_monitor():
    """The live outage monitor, or a no-op when instrumentation is off."""
    global _OUTAGE
    if not _ENABLED:
        return _NULL_OUTAGE
    if _OUTAGE is None:
        _OUTAGE = OutageMonitor(_REGISTRY)
    return _OUTAGE


# ----------------------------------------------------------------------
# Cluster (sharded admission) instruments
# ----------------------------------------------------------------------


class ClusterInstruments:
    """Counters, latency histograms and gauges for the sharded coordinator.

    Same discipline as the other facades: counter children resolved once
    and cached, gauges are pull-based over the live coordinator, and every
    family is touched at construction so the exposition carries the
    cluster story from process start even before the first request.
    """

    #: Routing decisions (mirrors repro.cluster.coordinator ROUTE_*).
    DECISIONS = ("local", "cross_shard", "spill", "reject", "dedup")

    #: Two-phase reservation lifecycle events on the core-link ledger.
    RESERVATION_EVENTS = (
        "reserve", "reserve_denied", "commit", "abort", "expire", "mirror",
    )

    #: Coordinator paths timed end to end.
    PATHS = ("local", "cross")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._routing: Dict[str, Counter] = {
            decision: registry.counter(
                "repro_cluster_routing_total",
                "Coordinator routing decisions (local/cross_shard/spill/"
                "reject/dedup).",
                decision=decision,
            )
            for decision in self.DECISIONS
        }
        self._reservations: Dict[str, Counter] = {
            event: registry.counter(
                "repro_cluster_reservations_total",
                "Core-link ledger reservation lifecycle events of the "
                "two-phase protocol.",
                event=event,
            )
            for event in self.RESERVATION_EVENTS
        }
        self._latency: Dict[str, Histogram] = {
            path: registry.histogram(
                "repro_cluster_coordinator_latency_seconds",
                "End-to-end coordinator decision latency, by admission path.",
                buckets=DEFAULT_TIME_BUCKETS,
                path=path,
            )
            for path in self.PATHS
        }
        # Presence-before-traffic for the gauge families; bind_coordinator
        # replaces these placeholders with live per-shard/per-link children.
        registry.gauge(
            "repro_cluster_shard_free_slots",
            "Free VM slots per shard, read from the coordinator replica.",
            shard="none",
        )
        registry.gauge(
            "repro_cluster_shard_queue_depth",
            "Queued requests per shard (last collected shard summary).",
            shard="none",
        )
        registry.gauge(
            "repro_cluster_core_link_occupancy",
            "Ledger occupancy O_L per shared core link, committed + reserved.",
            link="none",
        )
        registry.gauge(
            "repro_cluster_pending_reservations",
            "Live (uncommitted, unexpired) core-link reservations.",
        )
        # Federation + distributed tracing families (presence-before-traffic).
        self._federation: Dict[str, Counter] = {
            outcome: registry.counter(
                "repro_cluster_federation_scrapes_total",
                "Per-shard registry snapshot collections by the coordinator.",
                outcome=outcome,
            )
            for outcome in ("ok", "error")
        }
        self._trace_spans: Dict[str, Counter] = {
            origin: registry.counter(
                "repro_cluster_trace_spans_total",
                "Spans folded into end-to-end cluster traces, by origin.",
                origin=origin,
            )
            for origin in ("coordinator", "shard")
        }

    # -- hot-path API ---------------------------------------------------

    def federation_scrape(self, outcome: str) -> None:
        counter = self._federation.get(outcome)
        if counter is None:
            counter = self.registry.counter(
                "repro_cluster_federation_scrapes_total",
                "Per-shard registry snapshot collections by the coordinator.",
                outcome=outcome,
            )
            self._federation[outcome] = counter
        counter.inc()

    def trace_spans(self, origin: str, count: int = 1) -> None:
        if count <= 0:
            return
        counter = self._trace_spans.get(origin)
        if counter is None:
            counter = self.registry.counter(
                "repro_cluster_trace_spans_total",
                "Spans folded into end-to-end cluster traces, by origin.",
                origin=origin,
            )
            self._trace_spans[origin] = counter
        counter.inc(count)

    def routing(self, decision: str) -> None:
        counter = self._routing.get(decision)
        if counter is None:
            counter = self.registry.counter(
                "repro_cluster_routing_total",
                "Coordinator routing decisions (local/cross_shard/spill/"
                "reject/dedup).",
                decision=decision,
            )
            self._routing[decision] = counter
        counter.inc()

    def reservation(self, event: str) -> None:
        counter = self._reservations.get(event)
        if counter is None:
            counter = self.registry.counter(
                "repro_cluster_reservations_total",
                "Core-link ledger reservation lifecycle events of the "
                "two-phase protocol.",
                event=event,
            )
            self._reservations[event] = counter
        counter.inc()

    def observe_latency(self, path: str, seconds: float) -> None:
        histogram = self._latency.get(path)
        if histogram is None:
            histogram = self.registry.histogram(
                "repro_cluster_coordinator_latency_seconds",
                "End-to-end coordinator decision latency, by admission path.",
                buckets=DEFAULT_TIME_BUCKETS,
                path=path,
            )
            self._latency[path] = histogram
        histogram.observe(seconds)

    def bind_coordinator(self, coordinator) -> None:
        """Register pull gauges over one live ``ClusterCoordinator``.

        Shard gauges read the replica (free slots, no RPC) and the last
        collected shard summaries (queue depth — refreshed by
        ``refresh_shard_stats``); core-link occupancy reads the ledger
        live, committed plus reserved, which is exactly the quantity the
        two-phase protocol admits against.
        """
        registry = self.registry

        def _free(shard_index: int):
            return lambda: float(coordinator.shard_free_slots(shard_index))

        def _queue(shard_index: int):
            return lambda: coordinator.cached_shard_stat(shard_index, "queue_depth")

        for shard in coordinator.shards:
            label = str(shard.index)
            registry.gauge(
                "repro_cluster_shard_free_slots",
                "Free VM slots per shard, read from the coordinator replica.",
                shard=label,
            ).set_function(_free(shard.index))
            registry.gauge(
                "repro_cluster_shard_queue_depth",
                "Queued requests per shard (last collected shard summary).",
                shard=label,
            ).set_function(_queue(shard.index))

        def _occupancy(link_id: int):
            return lambda: float(coordinator.ledger.occupancy_of(link_id))

        for link_id in coordinator.partition.core_link_ids:
            registry.gauge(
                "repro_cluster_core_link_occupancy",
                "Ledger occupancy O_L per shared core link, committed + reserved.",
                link=coordinator.partition.tree.node(link_id).name,
            ).set_function(_occupancy(link_id))
        registry.gauge(
            "repro_cluster_pending_reservations",
            "Live (uncommitted, unexpired) core-link reservations.",
        ).set_function(lambda: float(coordinator.ledger.pending_reservations))


class _NullCluster:
    """No-op facade used while instrumentation is disabled."""

    def federation_scrape(self, outcome: str) -> None:
        pass

    def trace_spans(self, origin: str, count: int = 1) -> None:
        pass

    def routing(self, decision: str) -> None:
        pass

    def reservation(self, event: str) -> None:
        pass

    def observe_latency(self, path: str, seconds: float) -> None:
        pass

    def bind_coordinator(self, coordinator) -> None:
        pass


_NULL_CLUSTER = _NullCluster()
_CLUSTER: Optional[ClusterInstruments] = None


def cluster_instruments():
    """The live cluster facade, or the shared no-op when disabled."""
    global _CLUSTER
    if not _ENABLED:
        return _NULL_CLUSTER
    if _CLUSTER is None:
        _CLUSTER = ClusterInstruments(_REGISTRY)
    return _CLUSTER


# ----------------------------------------------------------------------
# Network guarantee-health gauges
# ----------------------------------------------------------------------


def bind_network_gauges(registry: MetricsRegistry, manager) -> None:
    """Register pull gauges over one live ``NetworkManager``.

    Callbacks are evaluated only when a snapshot/exposition is rendered,
    so binding costs nothing between scrapes.  Re-binding (a second service
    over a new manager in the same process) replaces the callbacks.
    """
    from repro.network.snapshot import utilization_by_level  # local: no cycle

    def _row(level: int, attr: str):
        def read() -> float:
            for row in utilization_by_level(manager.state):
                if row.level == level:
                    return float(getattr(row, attr))
            return 0.0

        return read

    for row in utilization_by_level(manager.state):
        label = row.label
        registry.gauge(
            "repro_network_link_occupancy",
            "Per-level link occupancy O_L (Eq. 6) at the configured epsilon.",
            level=label,
            stat="mean",
        ).set_function(_row(row.level, "mean_occupancy"))
        registry.gauge(
            "repro_network_link_occupancy",
            "Per-level link occupancy O_L (Eq. 6) at the configured epsilon.",
            level=label,
            stat="max",
        ).set_function(_row(row.level, "max_occupancy"))
        registry.gauge(
            "repro_network_headroom_mbps",
            "Per-level stochastic headroom S_L - sum mu_i in Mbps.",
            level=label,
            stat="mean",
        ).set_function(_row(row.level, "mean_headroom_mbps"))
        registry.gauge(
            "repro_network_headroom_mbps",
            "Per-level stochastic headroom S_L - sum mu_i in Mbps.",
            level=label,
            stat="min",
        ).set_function(_row(row.level, "min_headroom_mbps"))

    registry.gauge(
        "repro_network_max_occupancy",
        "max_L O_L over the whole datacenter (the Fig. 9 statistic).",
    ).set_function(lambda: float(manager.max_occupancy()))
    registry.gauge(
        "repro_network_tenants",
        "Tenants currently holding slots and bandwidth.",
    ).set_function(lambda: float(manager.active_tenancies))
    for state_name, read in (
        ("free", lambda: float(manager.state.total_free_slots)),
        ("used", lambda: float(manager.state.used_slots)),
        ("total", lambda: float(manager.state.total_slots)),
    ):
        registry.gauge(
            "repro_network_slots",
            "VM slot accounting of the managed datacenter.",
            state=state_name,
        ).set_function(read)
