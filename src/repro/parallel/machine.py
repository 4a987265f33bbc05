"""Machine models: Blue Gene/Q (Mira) and dual Xeon E5-2665 (Sec. 4.1).

The FLOP-rate model captures the three effects Sec. 4 documents:

* **SIMD (QPX) fraction** — code that is not vectorized runs at 1/simd_width
  of peak; the paper's optimization raised the vectorized fraction.
* **Instruction issue** — a PowerPC A2 core needs ≥ 2 instruction streams to
  dual-issue AXU+XU; 4 hardware threads hide further latency (Table 1).
* **Memory-bandwidth saturation** — more threads per core stop helping once
  the memory interface saturates.

Effective GFLOP/s = peak × simd_eff × issue_eff(threads) × locality_eff.
The preset efficiency constants are calibrated against Tables 1-2 (see
EXPERIMENTS.md for the paper-vs-model comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one compute platform.

    Attributes
    ----------
    name:
        Human-readable platform name.
    cores_per_node:
        Physical cores per node.
    threads_per_core:
        Hardware threads per core.
    clock_hz:
        Core clock (the Xeon preset uses the turbo clock, as the paper does
        when quoting the 396 GFLOP/s node peak).
    flops_per_cycle:
        Peak double-precision FLOPs per cycle per core (SIMD width × FMA).
    link_bandwidth:
        Per-link bandwidth in bytes/second.
    link_latency:
        Per-hop latency in seconds.
    links_per_node:
        Inter-node links (Blue Gene/Q: 10 torus links + 1 I/O).
    memory_bandwidth:
        Node memory bandwidth, bytes/second.
    issue_efficiency:
        Map threads-per-core → instruction-issue efficiency (calibrated).
    simd_efficiency:
        Fraction of peak attainable by the vectorized instruction mix.
    watts_per_node:
        Power draw (the paper quotes 55 W/node for Blue Gene/Q).
    """

    name: str
    cores_per_node: int
    threads_per_core: int
    clock_hz: float
    flops_per_cycle: float
    link_bandwidth: float
    link_latency: float
    links_per_node: int
    memory_bandwidth: float
    issue_efficiency: dict[int, float] = field(
        default_factory=lambda: {1: 0.55, 2: 0.78, 4: 1.0}
    )
    simd_efficiency: float = 0.60
    watts_per_node: float = 100.0

    # -- peak rates ---------------------------------------------------------

    @property
    def peak_core_flops(self) -> float:
        return self.clock_hz * self.flops_per_cycle

    @property
    def peak_node_flops(self) -> float:
        return self.cores_per_node * self.peak_core_flops

    def peak_flops(self, nodes: int) -> float:
        return nodes * self.peak_node_flops

    # -- effective rates ------------------------------------------------------

    def effective_core_flops(
        self, threads_per_core: int = None, locality: float = 1.0
    ) -> float:
        """Attainable FLOP/s per core for a given threading level."""
        t = threads_per_core or self.threads_per_core
        issue = self.issue_efficiency.get(t)
        if issue is None:
            # interpolate between known points
            keys = sorted(self.issue_efficiency)
            t_clamped = min(max(t, keys[0]), keys[-1])
            issue = self.issue_efficiency[
                min(keys, key=lambda k: abs(k - t_clamped))
            ]
        return self.peak_core_flops * self.simd_efficiency * issue * locality

    def effective_node_flops(
        self, threads_per_core: int = None, locality: float = 1.0
    ) -> float:
        return self.cores_per_node * self.effective_core_flops(
            threads_per_core, locality
        )


#: IBM Blue Gene/Q node: PowerPC A2, 16 cores @ 1.6 GHz, QPX 4-wide FMA
#: → 204.8 GFLOP/s peak per node; 10 torus links at 2 GB/s each (Sec. 4.1).
BLUE_GENE_Q = MachineSpec(
    name="IBM Blue Gene/Q",
    cores_per_node=16,
    threads_per_core=4,
    clock_hz=1.6e9,
    flops_per_cycle=8.0,  # 4-wide QPX FMA
    link_bandwidth=2.0e9,
    link_latency=1.5e-6,
    links_per_node=10,
    memory_bandwidth=28.0e9,
    issue_efficiency={1: 0.52, 2: 0.73, 4: 1.0},
    simd_efficiency=0.56,
    watts_per_node=55.0,
)

#: Mira = 48 racks × 1,024 nodes of Blue Gene/Q (Sec. 4.1).
MIRA = BLUE_GENE_Q
MIRA_NODES_PER_RACK = 1024

#: Dual Intel Xeon E5-2665 (Sandy Bridge-EP): 2 × 8 cores; with turbo the
#: paper quotes 198 GFLOP/s per chip → 396 GFLOP/s per node (Sec. 5.4).
XEON_E5_2665 = MachineSpec(
    name="dual Intel Xeon E5-2665",
    cores_per_node=16,
    threads_per_core=2,
    clock_hz=3.1e9,  # turbo-boosted clock, as assumed by the paper
    flops_per_cycle=8.0,  # AVX 4-wide add + mul
    link_bandwidth=6.4e9,  # QPI-ish
    link_latency=1.0e-6,
    links_per_node=2,
    memory_bandwidth=14.9e9 * 4,  # 4 channels (Sec. 4.1)
    issue_efficiency={1: 0.70, 2: 1.0, 4: 1.0},
    simd_efficiency=0.55,
    watts_per_node=230.0,
)
