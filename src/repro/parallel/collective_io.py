"""Collective file I/O model (Sec. 4.2).

The paper aggregates MPI processes into I/O groups: within each group a
master gathers the group's data and performs the disk access, so the
filesystem sees ``nranks / group_size`` clients instead of 786,432.  Two
opposing costs set an optimal group size (the paper finds 192):

* larger groups → fewer files/clients, but a taller intra-group gather tree
  and more data per master;
* smaller groups → cheap gathers, but metadata/client overhead and
  contention on the finite I/O servers grow with the group count.

For a typical 12-hour production run on the full machine the paper reports
read 9.1 s and write 99 s — 0.02% and 0.23% of the execution time.  The
defaults below reproduce the claim, not the numbers: on the paper's 0.5 TB
snapshot over 786,432 ranks the model's optimum is an interior group size
(512, not 192), reading is faster than writing (0.62 s and 1.44 s), and
I/O stays under 1 % of a 12-hour run.  The claims record's
``sec42_collective_io`` rows carry both sets of numbers
(experiments/EXP-IO.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CollectiveIOModel:
    """Analytic cost model for grouped collective I/O.

    Parameters
    ----------
    n_io_servers:
        Parallel I/O servers / filesystem targets (Mira: 1 I/O node per 128
        compute nodes; bandwidth is what matters here).
    server_bandwidth:
        Sustained bytes/second per server.
    file_overhead:
        Fixed cost per file open/close + metadata (seconds).
    gather_latency, gather_bandwidth:
        Intra-group aggregation tree parameters (network-level).
    client_overhead:
        Filesystem cost per concurrent client (contention; seconds).
    """

    n_io_servers: int = 384
    server_bandwidth: float = 1.2e9
    file_overhead: float = 0.04
    gather_latency: float = 2.0e-6
    gather_bandwidth: float = 1.8e9
    client_overhead: float = 0.004

    def io_time(
        self, total_bytes: float, nranks: int, group_size: int, write: bool = True
    ) -> float:
        """Seconds to write (or read) ``total_bytes`` spread over all ranks."""
        if nranks < 1 or group_size < 1:
            raise ValueError("counts must be positive")
        group_size = min(group_size, nranks)
        ngroups = int(np.ceil(nranks / group_size))
        bytes_per_rank = total_bytes / nranks
        group_bytes = bytes_per_rank * group_size

        # intra-group gather (tree): log2(g) stages, full group payload
        depth = int(np.ceil(np.log2(group_size))) if group_size > 1 else 0
        gather = depth * self.gather_latency + group_bytes / self.gather_bandwidth
        if not write:
            gather = gather  # scatter on read costs the same in this model

        # disk phase: ngroups clients share the servers
        waves = int(np.ceil(ngroups / self.n_io_servers))
        disk = waves * (self.file_overhead + group_bytes / self.server_bandwidth)
        contention = ngroups * self.client_overhead / self.n_io_servers
        factor = 1.0 if write else 0.35  # reads stream faster than writes
        return gather + factor * (disk + contention)

    def optimal_group_size(
        self,
        total_bytes: float,
        nranks: int,
        candidates: np.ndarray | None = None,
        write: bool = True,
    ) -> tuple[int, float]:
        """Group size minimizing :meth:`io_time`; returns (size, seconds)."""
        if candidates is None:
            exps = np.arange(0, int(np.log2(max(nranks, 2))) + 1)
            candidates = np.unique(
                np.concatenate([2**exps, 3 * 2**exps, [192, nranks]])
            )
            candidates = candidates[(candidates >= 1) & (candidates <= nranks)]
        best_size, best_time = 1, np.inf
        for g in candidates:
            t = self.io_time(total_bytes, nranks, int(g), write)
            if t < best_time:
                best_size, best_time = int(g), t
        return best_size, best_time
