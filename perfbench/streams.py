"""Seeded request streams for the admission benchmark.

The generators follow Section VI-A of the paper and are written here, not
imported from ``repro.simulation``, so a change to the program can never
change the benchmark's inputs.  Everything is a pure function of the seed.

* Homogeneous SVC stream: job sizes exponential with mean 49 clipped to
  [2, 200] on the paper tree (smaller trees use the repository's smaller
  experiment scales); per-job mean rate from {100, ..., 500} Mbps; deviation
  coefficient ``rho ~ U(0, 1)``; hold (compute) time ``U{200..500}`` s;
  Poisson arrivals at the rate that puts the given load on the tree.
* Heterogeneous SVC stream (Section V): as above, with an independent
  mean rate per VM.
* Churn stream: small tenants (2-8 VMs) drawn from a handful of shapes so
  the daemon's same-shape batcher can coalesce them.

Demands are moment-matched to the NIC-truncated normal, as the paper's
simulator does, so no tenant is categorically unsatisfiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

NIC_MBPS = 1000.0
RATE_CHOICES = (100.0, 200.0, 300.0, 400.0, 500.0)
MEAN_HOLD_S = 350.0

#: Small-tenant shapes of the churn workload: (n_vms, mean, std).
CHURN_SHAPES = ((2, 100.0, 30.0), (4, 100.0, 30.0), (4, 200.0, 60.0), (8, 150.0, 50.0))


@dataclass(frozen=True)
class Job:
    """One tenant of a stream: when it arrives, how long it stays, what it asks."""

    index: int
    arrival: float  # virtual seconds
    hold: float  # virtual seconds
    request: Dict[str, Any]


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def truncated_demand(mean: float, std: float, cap: float = NIC_MBPS) -> Tuple[float, float]:
    """Mean and std of ``N(mean, std)`` truncated to ``[0, cap]``."""
    if std <= 0.0:
        return min(max(mean, 0.0), cap), 0.0
    alpha = (0.0 - mean) / std
    beta = (cap - mean) / std
    mass = _cdf(beta) - _cdf(alpha)
    shift = (_phi(alpha) - _phi(beta)) / mass
    var_factor = 1.0 + (alpha * _phi(alpha) - beta * _phi(beta)) / mass - shift * shift
    return mean + std * shift, std * math.sqrt(max(var_factor, 0.0))


#: Job size distribution per tree, as the repository's experiment scales
#: define it: (mean, max) of the clipped exponential.
JOB_SIZES = {"paper": (49.0, 200), "small": (12.0, 48), "tiny": (6.0, 24)}
#: Streams are drawn in blocks stratified over each marginal: any prefix of
#: whole blocks has the distribution's quantiles, so a run's work mix
#: depends little on the seed; the seed picks order and pairing.
BLOCK = 16


def _stratified(rng: np.random.Generator) -> np.ndarray:
    """One block of U(0,1) draws, one per stratum, in random order."""
    return rng.permutation((np.arange(BLOCK) + rng.uniform(size=BLOCK)) / BLOCK)


def paper_stream(
    seed: int, count: int, tree: str, load: float = 0.6, heterogeneous: bool = False
) -> List[Job]:
    """The Section VI-A (or Section V heterogeneous) stream, ``count`` jobs long."""
    rng = np.random.default_rng(seed)
    mean_size, max_size = JOB_SIZES[tree]
    rate = arrival_rate(tree, load)
    clock = 0.0
    jobs: List[Job] = []
    while len(jobs) < count:
        sizes, holds, rhos, mus, gaps = (_stratified(rng) for _ in range(5))
        for u_size, u_hold, u_rho, u_mu, u_gap in zip(sizes, holds, rhos, mus, gaps):
            n_vms = int(np.clip(int(round(-mean_size * math.log1p(-u_size))), 2, max_size))
            hold = float(200 + int(u_hold * 301))
            rho = float(u_rho)
            if heterogeneous:
                demands = []
                for mu in rng.choice(RATE_CHOICES, size=n_vms):
                    mean, std = truncated_demand(float(mu), rho * float(mu))
                    demands.append({"mean": mean, "std": std})
                request = {"kind": "heterogeneous", "n_vms": n_vms, "demands": demands}
            else:
                mu = RATE_CHOICES[int(u_mu * len(RATE_CHOICES))]
                mean, std = truncated_demand(mu, rho * mu)
                request = {"kind": "homogeneous", "n_vms": n_vms, "mean": mean, "std": std}
            clock += -math.log1p(-float(u_gap)) / rate
            jobs.append(Job(index=len(jobs), arrival=clock, hold=hold, request=request))
    return jobs[:count]


TOTAL_SLOTS = {"paper": 4000, "small": 480, "tiny": 64}


def arrival_rate(tree: str, load: float = 0.6) -> float:
    """Virtual-time Poisson arrival rate (jobs/s) putting ``load`` on the tree."""
    return load * TOTAL_SLOTS[tree] / (JOB_SIZES[tree][0] * MEAN_HOLD_S)


def steady_tenants(tree: str, load: float = 0.6) -> int:
    """Tenants active in steady state (Little's law): the warm-up size."""
    return int(round(arrival_rate(tree, load) * MEAN_HOLD_S))


def churn_request(rng: np.random.Generator) -> Dict[str, Any]:
    n_vms, mean, std = CHURN_SHAPES[int(rng.integers(len(CHURN_SHAPES)))]
    return {"kind": "homogeneous", "n_vms": n_vms, "mean": mean, "std": std}
