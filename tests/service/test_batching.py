"""Batched admission equivalence: coalescing must never change a decision.

The batcher's contract (DESIGN: batching is amortization, not semantics) is
proven two ways:

* **Allocation layer** — replaying a request stream through one shared
  :class:`BatchContext` must produce bit-identical decisions *and* final
  network state versus fresh sequential calls, for hypothesis-generated
  streams over every request kind.
* **Service layer** — a single-worker service with ``batch_max`` 32 must
  resolve a recorded trace to exactly the outcomes of an unbatched service,
  with identical final occupancy fingerprints, while actually coalescing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.service.codec import network_state_to_dict, request_shape_key
from repro.service.concurrency import AdmissionService
from repro.stochastic import Normal


def homogeneous(n_vms=4, mean=80.0, std=30.0):
    return HomogeneousSVC(n_vms=n_vms, mean=mean, std=std)


def run_sequential(tree, requests):
    manager = NetworkManager(tree)
    decisions = [manager.request(request) for request in requests]
    return decisions, network_state_to_dict(manager.state)


def run_batched(tree, requests):
    manager = NetworkManager(tree)
    context = manager.batch_context()
    decisions = [manager.request(request, batch=context) for request in requests]
    return decisions, network_state_to_dict(manager.state)


def describe(decisions):
    """Tenancy stream -> comparable (admitted?, id, placement) tuples."""
    return [
        (t.request_id, tuple(t.vm_machines)) if t is not None else None
        for t in decisions
    ]


# ----------------------------------------------------------------------
# Allocation layer
# ----------------------------------------------------------------------

homogeneous_streams = st.lists(
    st.builds(
        HomogeneousSVC,
        n_vms=st.integers(1, 10),
        mean=st.sampled_from([40.0, 80.0, 160.0]),
        std=st.sampled_from([10.0, 30.0]),
    ),
    min_size=1,
    max_size=25,
)

mixed_streams = st.lists(
    st.one_of(
        st.builds(
            HomogeneousSVC,
            n_vms=st.integers(1, 8),
            mean=st.sampled_from([50.0, 120.0]),
            std=st.just(20.0),
        ),
        st.builds(
            DeterministicVC,
            n_vms=st.integers(1, 6),
            bandwidth=st.sampled_from([60.0, 140.0]),
        ),
        st.integers(2, 5).map(
            lambda n: HeterogeneousSVC(
                n_vms=n,
                demands=tuple(Normal(50.0 + 10.0 * i, 12.0) for i in range(n)),
            )
        ),
    ),
    min_size=1,
    max_size=20,
)


class TestBatchContextEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(requests=homogeneous_streams)
    def test_homogeneous_streams_bit_identical(self, tiny_tree, requests):
        sequential = run_sequential(tiny_tree, requests)
        batched = run_batched(tiny_tree, requests)
        assert describe(batched[0]) == describe(sequential[0])
        assert batched[1] == sequential[1]

    @settings(max_examples=30, deadline=None)
    @given(requests=mixed_streams)
    def test_mixed_kind_streams_bit_identical(self, tiny_tree, requests):
        # Kind changes force context resets mid-batch; the dispatcher also
        # swaps allocator-specific contexts. Decisions must not notice.
        sequential = run_sequential(tiny_tree, requests)
        batched = run_batched(tiny_tree, requests)
        assert describe(batched[0]) == describe(sequential[0])
        assert batched[1] == sequential[1]

    def test_rejections_inside_a_batch(self, tiny_tree):
        # Saturate so later members reject: rejection paths share tables too.
        requests = [homogeneous(n_vms=12, mean=400.0, std=100.0) for _ in range(12)]
        sequential = run_sequential(tiny_tree, requests)
        batched = run_batched(tiny_tree, requests)
        admits = sum(1 for d in batched[0] if d is not None)
        assert describe(batched[0]) == describe(sequential[0])
        assert batched[1] == sequential[1]
        assert 0 < admits < len(requests), "trace must mix admits and rejects"


# ----------------------------------------------------------------------
# Service layer
# ----------------------------------------------------------------------


def recorded_trace():
    """A deterministic multi-tenant trace mixing shapes and load levels."""
    trace = []
    for index in range(48):
        tenant = ("gold", "silver", "bronze")[index % 3]
        if index % 5 == 4:
            request = homogeneous(n_vms=10, mean=300.0, std=80.0)  # heavy
        elif index % 2:
            request = homogeneous(n_vms=4, mean=80.0, std=30.0)
        else:
            request = homogeneous(n_vms=3, mean=60.0, std=20.0)
        trace.append((tenant, request))
    return trace


def serve_trace(tree, batch_max, weights=None):
    """Run the trace through the service; return outcomes+state.

    The trace is enqueued in arrival order before the admission thread
    starts, so the fair queue's serving order is deterministic and shared
    by both runs.
    """
    service = AdmissionService(
        NetworkManager(tree),
        batch_max=batch_max,
        tenant_weights=weights,
        max_queue_depth=None,
    )
    service._running = True  # queue everything before any worker runs
    tickets = [
        service.submit(request, wait=False, tenant=tenant)
        for tenant, request in recorded_trace()
    ]
    service._running = False
    service.start()
    try:
        outcomes = []
        for ticket in tickets:
            assert ticket.wait(timeout=30.0), "worker never resolved a ticket"
            outcomes.append((ticket.outcome, ticket.detail))
        fingerprint = network_state_to_dict(service.manager.state)
        stats = service.stats()
    finally:
        service.stop()
    return outcomes, fingerprint, stats


class TestServiceBatchingEquivalence:
    def test_batched_equals_unbatched_on_recorded_trace(self, tiny_tree):
        weights = {"gold": 3}
        unbatched = serve_trace(tiny_tree, batch_max=1, weights=weights)
        batched = serve_trace(tiny_tree, batch_max=32, weights=weights)
        assert batched[0] == unbatched[0], "outcomes diverged under batching"
        assert batched[1] == unbatched[1], "final state diverged under batching"
        # The equivalence must not be vacuous: the batched run coalesced.
        batching = batched[2]["batching"]
        assert batching["coalesced"] > 0
        assert batching["coalesce_ratio"] > 0.0
        assert unbatched[2]["batching"]["coalesced"] == 0

    def test_shape_change_breaks_the_batch_not_the_order(self, tiny_tree):
        with AdmissionService(
            NetworkManager(tiny_tree), batch_max=8
        ) as service:
            shapes = [
                service.submit(homogeneous(n_vms=2 + (i // 3))).outcome
                for i in range(9)
            ]
            assert all(outcome == "admitted" for outcome in shapes)

    def test_batch_stats_and_validation(self, tiny_tree):
        with pytest.raises(ValueError):
            AdmissionService(NetworkManager(tiny_tree), batch_max=0)
        with pytest.raises(ValueError):
            AdmissionService(NetworkManager(tiny_tree), batch_linger_s=-1.0)
        with AdmissionService(NetworkManager(tiny_tree)) as service:
            stats = service.stats()["batching"]
            assert stats["batch_max"] == 1
            assert stats["coalesce_ratio"] == 0.0


def test_shape_keys_partition_requests():
    same_a = homogeneous(n_vms=4, mean=80.0, std=30.0)
    same_b = homogeneous(n_vms=4, mean=80.0, std=30.0)
    assert request_shape_key(same_a) == request_shape_key(same_b)
    assert request_shape_key(same_a) != request_shape_key(
        homogeneous(n_vms=5, mean=80.0, std=30.0)
    )
    assert request_shape_key(DeterministicVC(n_vms=4, bandwidth=80.0)) != (
        request_shape_key(same_a)
    )
