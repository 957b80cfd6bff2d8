"""Tenant virtual-cluster request types.

All requests describe ``N`` VMs hanging off one virtual switch (the hose
model of Fig. 1).  What differs is how the per-VM bandwidth demand is
specified:

====================  =============================================
:class:`DeterministicVC`   constant ``B`` per VM (Oktopus ``<N, B>``)
:class:`HomogeneousSVC`    i.i.d. ``Normal(mu, sigma^2)`` per VM
:class:`HeterogeneousSVC`  per-VM ``Normal(mu_i, sigma_i^2)``
====================  =============================================

Deterministic requests are *reserved* (they accumulate into ``D_L`` and are
rate-limited); stochastic requests *statistically share* ``S_L = C_L - D_L``
under the outage constraint of Eq. (1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.stochastic.normal import Normal


@dataclass(frozen=True)
class VirtualClusterRequest:
    """Base class for all virtual-cluster requests.

    ``n_vms`` is the number of VM slots the tenant asks for.  Subclasses add
    the bandwidth specification and declare whether the demand is enforced by
    deterministic reservation or statistical sharing.
    """

    n_vms: int

    def __post_init__(self) -> None:
        if self.n_vms < 1:
            raise ValueError(f"a virtual cluster needs at least one VM, got {self.n_vms}")

    @property
    def is_deterministic(self) -> bool:
        """True when the demand is a reserved constant (goes into ``D_L``)."""
        raise NotImplementedError

    @property
    def is_homogeneous(self) -> bool:
        """True when all VMs share one demand distribution."""
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicVC(VirtualClusterRequest):
    """Oktopus's virtual cluster ``<N, B>``: ``N`` VMs, ``B`` Mbps each.

    The paper's two deterministic baselines are derived from a demand
    distribution: *mean-VC* sets ``B = mu`` and *percentile-VC* sets ``B`` to
    the 95th percentile (Section VI-A, "Alternate abstractions").
    """

    bandwidth: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.bandwidth) or self.bandwidth < 0.0:
            raise ValueError(f"bandwidth must be finite and >= 0, got {self.bandwidth}")

    @property
    def is_deterministic(self) -> bool:
        return True

    @property
    def is_homogeneous(self) -> bool:
        return True

    @property
    def vm_demand(self) -> Normal:
        """The per-VM demand as a degenerate normal (``sigma = 0``)."""
        return Normal.deterministic(self.bandwidth)


@dataclass(frozen=True)
class HomogeneousSVC(VirtualClusterRequest):
    """Stochastic virtual cluster ``<N, mu, sigma>`` (Section IV).

    Every VM's bandwidth demand is an independent ``Normal(mu, sigma^2)``
    random variable.  With ``sigma == 0`` this degrades to the semantics of a
    deterministic VC but is still *statistically shared* rather than reserved
    — use :meth:`to_mean_vc` to get the reserved equivalent.
    """

    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.mean) or self.mean < 0.0:
            raise ValueError(f"mean demand must be finite and >= 0, got {self.mean}")
        if not math.isfinite(self.std) or self.std < 0.0:
            raise ValueError(f"demand std must be finite and >= 0, got {self.std}")

    @property
    def is_deterministic(self) -> bool:
        return False

    @property
    def is_homogeneous(self) -> bool:
        return True

    @property
    def vm_demand(self) -> Normal:
        """The common per-VM demand distribution."""
        return Normal(self.mean, self.std)

    def to_mean_vc(self) -> DeterministicVC:
        """The *mean-VC* baseline: reserve the mean of the distribution."""
        return DeterministicVC(n_vms=self.n_vms, bandwidth=self.mean)

    def to_percentile_vc(self, percentile: float = 95.0) -> DeterministicVC:
        """The *percentile-VC* baseline: reserve the given percentile."""
        return DeterministicVC(
            n_vms=self.n_vms, bandwidth=self.vm_demand.percentile(percentile)
        )


@dataclass(frozen=True)
class HeterogeneousSVC(VirtualClusterRequest):
    """Heterogeneous SVC ``<N, (mu_1, sigma_1), ..., (mu_N, sigma_N)>`` (Section V).

    ``demands[i]`` is the distribution of VM ``i``'s bandwidth demand.  The
    allocation algorithms sort VMs by the 95th percentile of their demand
    (Section V-B); :meth:`sorted_order` exposes that ordering.
    """

    demands: Tuple[Normal, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.demands) != self.n_vms:
            raise ValueError(
                f"expected {self.n_vms} per-VM demand distributions, got {len(self.demands)}"
            )
        for demand in self.demands:
            if demand.mean < 0.0:
                raise ValueError(f"mean demand must be >= 0, got {demand}")

    @property
    def is_deterministic(self) -> bool:
        return False

    @property
    def is_homogeneous(self) -> bool:
        return False

    def sorted_order(self, percentile: float = 95.0) -> Tuple[int, ...]:
        """VM indices in ascending order of the demand percentile.

        This is the sequence ``S_N`` of the substring heuristic: "N VMs can be
        ordered by 95th percentile of their bandwidth demands" (Section V-B).
        Ties break by index for determinism.
        """
        keys = [(demand.percentile(percentile), idx) for idx, demand in enumerate(self.demands)]
        keys.sort()
        return tuple(idx for _, idx in keys)

    @classmethod
    def uniform(cls, n_vms: int, mean: float, std: float) -> "HeterogeneousSVC":
        """A heterogeneous request whose VMs happen to share one distribution.

        Useful for cross-checking the heterogeneous allocators against the
        homogeneous DP on identical inputs.
        """
        return cls(n_vms=n_vms, demands=tuple(Normal(mean, std) for _ in range(n_vms)))
