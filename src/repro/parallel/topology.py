"""Network topology cost models: the Blue Gene/Q 5-D torus and the tree
abstraction the metascalability argument rests on.

The paper's conclusion: LDC-DFT stays scalable as long as the network
supports a *tree* whose communication volume shrinks going up (the global
density is the only globally shared object, 0.078% of the data for the 50.3M
atom system).  :class:`TreeTopology` models exactly that; the torus provides
nearest-neighbor and collective primitives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TorusTopology:
    """Per-link bandwidth/latency costs of torus collectives.

    Blue Gene/Q uses a 5-D torus (Sec. 4.1); Mira's full machine is
    (16, 16, 16, 12, 2) across 96k nodes.  The primitives below depend on
    the rank count and the link parameters, not on the torus shape.
    """

    link_bandwidth: float = 2.0e9
    link_latency: float = 1.5e-6

    # -- primitive costs ----------------------------------------------------------

    def broadcast_time(self, nbytes: float, nranks: int) -> float:
        if nranks <= 1:
            return 0.0
        depth = int(np.ceil(np.log2(nranks)))
        return depth * (self.link_latency + nbytes / self.link_bandwidth)

    def alltoall_time(self, nbytes_per_pair: float, nranks: int) -> float:
        """Butterfly (log-stage) all-to-all; each stage moves half the data.

        This is the transpose pattern of the intra-domain parallel FFT
        (red lines in Fig. 3).
        """
        if nranks <= 1:
            return 0.0
        stages = int(np.ceil(np.log2(nranks)))
        stage_bytes = nbytes_per_pair * nranks / 2.0
        return stages * (self.link_latency + stage_bytes / self.link_bandwidth)

    def halo_exchange_time(self, nbytes_per_face: float, nfaces: int = 6) -> float:
        """Nearest-neighbor exchange (domain buffers); faces overlap across
        the node's independent links, so cost is max not sum when the link
        count allows."""
        concurrent = max(1, nfaces // 2)  # send/recv pairs share links
        return concurrent * self.link_latency + (
            nfaces * nbytes_per_face / (2.0 * self.link_bandwidth)
        )


@dataclass(frozen=True)
class TreeTopology:
    """The reduction tree of the global (inter-domain) solve.

    Models the multigrid/octree traffic (blue lines in Fig. 3): level k of
    the tree carries ``volume₀ / branching^k`` data, so the total up-sweep
    volume is geometrically bounded — the paper's metascalability condition.
    """

    branching: int = 8
    link_bandwidth: float = 2.0e9
    link_latency: float = 1.5e-6

    def depth(self, nleaves: int) -> int:
        if nleaves <= 1:
            return 0
        return int(np.ceil(np.log(nleaves) / np.log(self.branching)))

    def sweep_time(self, leaf_bytes: float, nleaves: int) -> float:
        """One up-sweep (reduce): Σ_k latency + volume_k/bandwidth."""
        d = self.depth(nleaves)
        total = 0.0
        vol = leaf_bytes
        for _ in range(d):
            total += self.link_latency + vol / self.link_bandwidth
            vol /= self.branching
        return total

    def vcycle_time(self, leaf_bytes: float, nleaves: int) -> float:
        """Down+up traversal (one multigrid V-cycle's communication)."""
        return 2.0 * self.sweep_time(leaf_bytes, nleaves)
