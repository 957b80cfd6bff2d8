"""Tenant request types: validation, derived baselines, sorting."""

import math

import pytest

from repro.abstractions import (
    DeterministicVC,
    HeterogeneousSVC,
    HomogeneousSVC,
    VirtualClusterRequest,
)
from repro.stochastic import Normal


class TestDeterministicVC:
    def test_basic(self):
        request = DeterministicVC(n_vms=10, bandwidth=100.0)
        assert request.is_deterministic
        assert request.is_homogeneous
        assert request.vm_demand == Normal.deterministic(100.0)

    def test_rejects_zero_vms(self):
        with pytest.raises(ValueError):
            DeterministicVC(n_vms=0, bandwidth=10.0)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError):
            DeterministicVC(n_vms=1, bandwidth=-1.0)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf])
    def test_rejects_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="finite"):
            DeterministicVC(n_vms=1, bandwidth=bandwidth)

    def test_zero_bandwidth_is_allowed(self):
        # A compute-only tenant reserves no bandwidth.
        request = DeterministicVC(n_vms=3, bandwidth=0.0)
        assert request.vm_demand.mean == 0.0

    def test_hashable_value_type(self):
        assert DeterministicVC(3, 5.0) == DeterministicVC(3, 5.0)
        assert hash(DeterministicVC(3, 5.0)) == hash(DeterministicVC(3, 5.0))


class TestHomogeneousSVC:
    def test_basic(self):
        request = HomogeneousSVC(n_vms=8, mean=200.0, std=50.0)
        assert not request.is_deterministic
        assert request.is_homogeneous
        assert request.vm_demand == Normal(200.0, 50.0)

    def test_zero_std_still_statistically_shared(self):
        # sigma = 0 degrades the semantics but not the sharing class.
        request = HomogeneousSVC(n_vms=2, mean=100.0, std=0.0)
        assert not request.is_deterministic

    def test_to_mean_vc(self):
        svc = HomogeneousSVC(n_vms=8, mean=200.0, std=50.0)
        vc = svc.to_mean_vc()
        assert isinstance(vc, DeterministicVC)
        assert vc.bandwidth == 200.0
        assert vc.n_vms == 8

    def test_to_percentile_vc_default_95(self):
        svc = HomogeneousSVC(n_vms=8, mean=200.0, std=50.0)
        vc = svc.to_percentile_vc()
        assert vc.bandwidth == pytest.approx(200.0 + 1.6449 * 50.0, abs=0.1)

    def test_to_percentile_vc_custom(self):
        svc = HomogeneousSVC(n_vms=8, mean=200.0, std=50.0)
        assert svc.to_percentile_vc(50.0).bandwidth == pytest.approx(200.0)

    def test_rejects_negative_params(self):
        with pytest.raises(ValueError):
            HomogeneousSVC(n_vms=2, mean=-1.0, std=0.0)
        with pytest.raises(ValueError):
            HomogeneousSVC(n_vms=2, mean=1.0, std=-1.0)

    @pytest.mark.parametrize(
        "mean, std", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_rejects_non_finite_params(self, mean, std):
        with pytest.raises(ValueError, match="finite"):
            HomogeneousSVC(n_vms=2, mean=mean, std=std)


class TestHeterogeneousSVC:
    def test_basic(self, heterogeneous_request):
        assert not heterogeneous_request.is_deterministic
        assert not heterogeneous_request.is_homogeneous
        assert len(heterogeneous_request.demands) == 6

    def test_demand_count_must_match(self):
        with pytest.raises(ValueError):
            HeterogeneousSVC(n_vms=3, demands=(Normal(1.0, 0.0),))

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            HeterogeneousSVC(n_vms=1, demands=(Normal(-5.0, 1.0),))

    def test_sorted_order_ascending_percentile(self, heterogeneous_request):
        order = heterogeneous_request.sorted_order()
        percentiles = [heterogeneous_request.demands[i].percentile(95) for i in order]
        assert percentiles == sorted(percentiles)

    def test_sorted_order_is_permutation(self, heterogeneous_request):
        order = heterogeneous_request.sorted_order()
        assert sorted(order) == list(range(6))

    def test_sorted_order_tie_break_by_index(self):
        request = HeterogeneousSVC.uniform(4, mean=100.0, std=10.0)
        assert request.sorted_order() == (0, 1, 2, 3)

    def test_uniform_constructor(self):
        request = HeterogeneousSVC.uniform(5, mean=100.0, std=10.0)
        assert request.n_vms == 5
        assert all(d == Normal(100.0, 10.0) for d in request.demands)

    def test_sort_percentile_parameter_matters(self):
        # Low mean/high variance vs high mean/low variance flip order with p.
        request = HeterogeneousSVC(
            n_vms=2, demands=(Normal(100.0, 100.0), Normal(200.0, 1.0))
        )
        assert request.sorted_order(50.0) == (0, 1)
        assert request.sorted_order(99.9) == (1, 0)


class TestBaseClass:
    def test_base_is_abstractish(self):
        request = VirtualClusterRequest(n_vms=1)
        with pytest.raises(NotImplementedError):
            _ = request.is_deterministic
        with pytest.raises(NotImplementedError):
            _ = request.is_homogeneous
