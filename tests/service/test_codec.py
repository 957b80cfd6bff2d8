"""Round-trip fidelity of the service JSON codecs."""

import json
import math

import pytest

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.service.codec import (
    CodecError,
    allocation_from_dict,
    allocation_to_dict,
    network_state_to_dict,
    normal_from_dict,
    normal_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.service.concurrency import AdmissionService
from repro.service.server import dispatch_command, error_response
from repro.stochastic import Normal


class TestRequestRoundTrip:
    @pytest.mark.parametrize(
        "request_",
        [
            DeterministicVC(n_vms=5, bandwidth=150.0),
            HomogeneousSVC(n_vms=12, mean=200.0, std=80.0),
            HeterogeneousSVC(
                n_vms=3, demands=(Normal(50.0, 5.0), Normal(80.0, 0.0), Normal(10.0, 2.5))
            ),
        ],
    )
    def test_round_trip(self, request_):
        payload = request_to_dict(request_)
        json.dumps(payload)  # must be JSON-serializable as-is
        assert request_from_dict(payload) == request_

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError, match="unknown request kind"):
            request_from_dict({"kind": "quantum", "n_vms": 3})

    def test_non_dict_rejected(self):
        with pytest.raises(CodecError):
            request_from_dict(["not", "a", "request"])

    def test_invalid_fields_surface_as_codec_error(self):
        with pytest.raises(CodecError):
            request_from_dict({"kind": "homogeneous", "n_vms": 0, "mean": 1.0, "std": 0.0})

    def test_normal_round_trip(self):
        demand = Normal(123.5, 7.25)
        assert normal_from_dict(normal_to_dict(demand)) == demand


class TestAllocationRoundTrip:
    def _admit(self, tree, request):
        manager = NetworkManager(tree, epsilon=0.05)
        tenancy = manager.request(request)
        assert tenancy is not None
        return tenancy.allocation

    def test_homogeneous_allocation(self, tiny_tree):
        allocation = self._admit(tiny_tree, HomogeneousSVC(n_vms=6, mean=150.0, std=60.0))
        decoded = allocation_from_dict(json.loads(json.dumps(allocation_to_dict(allocation))))
        assert decoded.request == allocation.request
        assert decoded.request_id == allocation.request_id
        assert decoded.host_node == allocation.host_node
        assert decoded.machine_counts == allocation.machine_counts
        assert decoded.link_demands == allocation.link_demands

    def test_heterogeneous_allocation_keeps_vm_identities(self, tiny_tree):
        request = HeterogeneousSVC(
            n_vms=5, demands=tuple(Normal(60.0 + 30 * i, 10.0 + i) for i in range(5))
        )
        allocation = self._admit(tiny_tree, request)
        decoded = allocation_from_dict(allocation_to_dict(allocation))
        assert decoded.machine_vms == allocation.machine_vms

    def test_nan_max_occupancy_round_trips(self, tiny_tree):
        allocation = self._admit(tiny_tree, DeterministicVC(n_vms=2, bandwidth=10.0))
        allocation.max_occupancy = float("nan")
        decoded = allocation_from_dict(allocation_to_dict(allocation))
        assert math.isnan(decoded.max_occupancy)


class TestNetworkStateDict:
    def test_committed_state_appears_field_for_field(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=8, mean=150.0, std=60.0))
        payload = network_state_to_dict(manager.state)
        json.dumps(payload)
        occupied = {
            machine: count
            for machine, count in tenancy.allocation.machine_counts.items()
        }
        for machine, count in occupied.items():
            capacity = tiny_tree.node(machine).slot_capacity
            assert payload["free_slots"][str(machine)] == capacity - count
        for link_id, demand in tenancy.allocation.link_demands.items():
            entry = payload["links"][str(link_id)]["stochastic"][str(tenancy.request_id)]
            assert entry == {"mean": demand.mean, "std": demand.std}

    def test_equal_states_have_equal_dicts(self, tiny_tree):
        first = NetworkManager(tiny_tree, epsilon=0.05)
        second = NetworkManager(tiny_tree, epsilon=0.05)
        for manager in (first, second):
            manager.request(DeterministicVC(n_vms=4, bandwidth=100.0))
            manager.request(HomogeneousSVC(n_vms=4, mean=90.0, std=30.0))
        assert network_state_to_dict(first.state) == network_state_to_dict(second.state)

    def test_release_restores_pristine_dict(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        before = network_state_to_dict(manager.state)
        tenancy = manager.request(HomogeneousSVC(n_vms=6, mean=120.0, std=40.0))
        assert network_state_to_dict(manager.state) != before
        manager.release(tenancy)
        assert network_state_to_dict(manager.state) == before


_HOMOGENEOUS = {"kind": "homogeneous", "n_vms": 2, "mean": 50.0, "std": 10.0}


def _submit(**fields):
    return lambda ids: {"op": "submit", "request": {**_HOMOGENEOUS, **fields}}


def _resize(tenant, **fields):
    return lambda ids: {"op": "resize", "request_id": ids[tenant], **fields}


class TestWireBoundary:
    """Numbers the admission model cannot reason about never reach it."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(_submit(n_vms=2.9), id="submit-n_vms-fractional"),
            pytest.param(_submit(n_vms=True), id="submit-n_vms-bool"),
            pytest.param(_submit(n_vms="2"), id="submit-n_vms-string"),
            pytest.param(_submit(mean=math.nan), id="submit-mean-nan"),
            pytest.param(_submit(std=math.inf), id="submit-std-inf"),
            pytest.param(_submit(mean=True), id="submit-mean-bool"),
            pytest.param(
                _submit(kind="deterministic", bandwidth=math.nan), id="submit-bandwidth-nan"
            ),
            pytest.param(_resize("one_machine", new_mu=math.nan), id="resize-one-machine-mu-nan"),
            pytest.param(
                _resize("multi_machine", new_mu=math.nan), id="resize-multi-machine-mu-nan"
            ),
            pytest.param(
                _resize("multi_machine", new_sigma=math.inf),
                id="resize-multi-machine-sigma-inf",
            ),
            pytest.param(_resize("one_machine", new_n=3.5), id="resize-n-fractional"),
            pytest.param(_resize("one_machine", new_n=False), id="resize-n-bool"),
        ],
    )
    def test_bad_numbers_get_a_typed_error_envelope(self, tiny_tree, build):
        with AdmissionService(NetworkManager(tiny_tree)) as service:
            ids = {}
            for name, n_vms in (("one_machine", 2), ("multi_machine", 8)):
                ticket = service.submit(HomogeneousSVC(n_vms=n_vms, mean=50.0, std=10.0))
                ids[name] = ticket.request_id
            spans = {
                name: len(service.manager.get_tenancy(rid).allocation.machine_counts)
                for name, rid in ids.items()
            }
            assert spans["one_machine"] == 1 and spans["multi_machine"] > 1
            state_before = network_state_to_dict(service.manager.state)
            counters_before = service.counters.as_dict()
            # Round-trip through JSON as the wire does (NaN/Infinity literals).
            command = json.loads(json.dumps(build(ids)))
            with pytest.raises(CodecError) as excinfo:
                dispatch_command(service, command, lambda: None)
            response = error_response(excinfo.value)
            assert response["ok"] is False
            assert not response["error"].startswith("ValueError")
            assert network_state_to_dict(service.manager.state) == state_before
            assert service.counters.as_dict() == counters_before
