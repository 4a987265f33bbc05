"""Functional simulated MPI: communicators, collectives, and ``split``.

A :class:`VirtualComm` executes SPMD code over *per-rank value lists*: the
value at index ``r`` is what rank ``r`` holds.  Collectives really move the
data (so parallel algorithms can be verified bit-for-bit against serial
ones) and, when a :class:`~repro.parallel.trace.CostTracker` and a
:class:`~repro.parallel.topology.TorusTopology` are attached, charge the
modeled communication time to the participants' virtual clocks.

``split`` reproduces the paper's ``MPI_COMM_SPLIT``-per-domain pattern of
Sec. 3.3 (one dedicated communicator per DC domain).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Callable, Sequence

import numpy as np

from repro.parallel.topology import TorusTopology
from repro.parallel.trace import CostTracker

#: Fallback payload estimate (bytes) for opaque python objects — roughly a
#: small object header + a few slots.  Containers, arrays, scalars, strings,
#: dataclasses, and ``None`` are all sized explicitly before this applies.
_OPAQUE_OBJECT_BYTES = 64.0


def _nbytes(value: Any) -> float:
    """Approximate payload size of one rank's value.

    ``None`` is the "no payload" marker the collectives themselves produce
    (e.g. non-root entries after :meth:`VirtualComm.reduce`) and costs
    nothing; dataclass payloads are sized as the sum of their fields.
    """
    if value is None:
        return 0.0
    if isinstance(value, np.ndarray):
        return float(value.nbytes)
    if isinstance(value, (int, float, complex, np.generic)):
        return 8.0
    if isinstance(value, (bytes, bytearray)):
        return float(len(value))
    if isinstance(value, str):
        return float(len(value.encode("utf-8")))
    if isinstance(value, (list, tuple, set, frozenset)):
        return float(sum(_nbytes(v) for v in value))
    if isinstance(value, dict):
        # Keys travel with the payload too (a real MPI dict send serializes
        # both); sizing only the values silently under-charges keyed data.
        return float(
            sum(_nbytes(k) + _nbytes(v) for k, v in value.items())
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return float(
            sum(
                _nbytes(getattr(value, f.name))
                for f in dataclasses.fields(value)
            )
        )
    return _OPAQUE_OBJECT_BYTES


class VirtualComm:
    """A simulated communicator over ``size`` ranks.

    Parameters
    ----------
    size:
        Number of ranks in this communicator.
    tracker:
        Optional shared :class:`CostTracker` (world-sized).
    topology:
        Optional :class:`TorusTopology` for communication costs.
    world_ranks:
        Global rank ids of this communicator's members (identity for the
        world communicator).

    Every collective validates its inputs before it moves data and raises
    ``ValueError`` where real MPI would abort: one value per rank, a
    ``root`` in ``[0, size)`` (Python indexing would make ``root=-1``
    "work"), and, for ``reduce``/``allreduce``, ndarray payloads of one
    shape (``np.add`` would broadcast them into a wrong answer).
    """

    def __init__(
        self,
        size: int,
        tracker: CostTracker | None = None,
        topology: TorusTopology | None = None,
        world_ranks: Sequence[int] | None = None,
        name: str = "world",
    ) -> None:
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = size
        self.tracker = tracker
        self.topology = topology
        self.world_ranks = (
            list(range(size)) if world_ranks is None else list(world_ranks)
        )
        if len(self.world_ranks) != size:
            raise ValueError("world_ranks length must equal size")
        self.name = name

    # -- internals -----------------------------------------------------------

    def _validate(self, values: Sequence[Any]) -> None:
        if len(values) != self.size:
            raise ValueError(
                f"{self.name}: expected one value per rank "
                f"({self.size}), got {len(values)}"
            )

    def _validate_root(self, kind: str, root: int) -> None:
        if not 0 <= root < self.size:
            raise ValueError(
                f"{self.name}: {kind} root={root} is outside [0, {self.size})"
            )

    def _validate_congruent(self, kind: str, values: Sequence[Any]) -> None:
        """ndarray payloads of one shape; scalars only with scalars."""
        if not any(isinstance(v, np.ndarray) for v in values):
            return
        sigs = [
            v.shape if isinstance(v, np.ndarray) else type(v).__name__
            for v in values
        ]
        common = Counter(sigs).most_common(1)[0][0]
        odd = ", ".join(
            f"rank {r} holds {sig}" for r, sig in enumerate(sigs)
            if sig != common
        )
        if odd:
            raise ValueError(
                f"{self.name}: {kind} over incongruent payloads — most "
                f"ranks hold {common} but {odd}"
            )

    def _charge(self, seconds: float, nbytes: float, label: str) -> None:
        if self.tracker is not None:
            self.tracker.charge_collective(
                self.world_ranks, seconds, nbytes, label
            )

    def _collective_time(self, nbytes: float) -> float:
        if self.topology is None:
            return 0.0
        return self.topology.allreduce_time(nbytes, self.size)

    # -- collectives -----------------------------------------------------------

    def barrier(self) -> None:
        self._charge(self._collective_time(8.0), 0.0, "barrier")

    def bcast(self, values: Sequence[Any], root: int = 0) -> list[Any]:
        """Every rank receives the root's value."""
        self._validate(values)
        self._validate_root("bcast", root)
        payload = values[root]
        nbytes = _nbytes(payload)
        t = (
            self.topology.broadcast_time(nbytes, self.size)
            if self.topology
            else 0.0
        )
        self._charge(t, nbytes * (self.size - 1), "bcast")
        return [payload for _ in range(self.size)]

    def reduce(
        self,
        values: Sequence[Any],
        op: Callable[[Any, Any], Any] = np.add,
        root: int = 0,
    ) -> list[Any]:
        """Root holds the reduction; other ranks hold ``None``."""
        self._validate(values)
        self._validate_root("reduce", root)
        self._validate_congruent("reduce", values)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        nbytes = _nbytes(values[0])
        t = self._collective_time(nbytes) / 2.0  # reduce = half of allreduce
        self._charge(t, nbytes * (self.size - 1), "reduce")
        return [acc if r == root else None for r in range(self.size)]

    def allreduce(
        self, values: Sequence[Any], op: Callable[[Any, Any], Any] = np.add
    ) -> list[Any]:
        self._validate(values)
        self._validate_congruent("allreduce", values)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        nbytes = _nbytes(values[0])
        self._charge(self._collective_time(nbytes), nbytes * self.size, "allreduce")
        return [acc for _ in range(self.size)]

    def gather(self, values: Sequence[Any], root: int = 0) -> list[Any]:
        self._validate(values)
        self._validate_root("gather", root)
        nbytes = sum(_nbytes(v) for v in values)
        t = self._collective_time(nbytes / max(self.size, 1))
        self._charge(t, nbytes, "gather")
        return [list(values) if r == root else None for r in range(self.size)]

    def allgather(self, values: Sequence[Any]) -> list[list[Any]]:
        self._validate(values)
        nbytes = sum(_nbytes(v) for v in values)
        self._charge(self._collective_time(nbytes), nbytes * self.size, "allgather")
        return [list(values) for _ in range(self.size)]

    def scatter(self, chunks: Sequence[Any], root: int = 0) -> list[Any]:
        """Root's list of ``size`` chunks is distributed, one per rank."""
        if len(chunks) != self.size:
            raise ValueError("scatter needs one chunk per rank")
        self._validate_root("scatter", root)
        nbytes = sum(_nbytes(c) for c in chunks)
        t = self._collective_time(nbytes / max(self.size, 1))
        self._charge(t, nbytes, "scatter")
        return list(chunks)

    def alltoall(self, matrix: Sequence[Sequence[Any]]) -> list[list[Any]]:
        """``matrix[src][dst]`` → returns ``out[dst][src]`` (the transpose).

        This is the band↔space redistribution of Sec. 3.3.
        """
        self._validate(matrix)
        for row in matrix:
            if len(row) != self.size:
                raise ValueError("alltoall needs a square value matrix")
        per_pair = _nbytes(matrix[0][0])
        t = (
            self.topology.alltoall_time(per_pair, self.size)
            if self.topology
            else 0.0
        )
        self._charge(t, per_pair * self.size * self.size, "alltoall")
        return [[matrix[src][dst] for src in range(self.size)] for dst in range(self.size)]

    # -- communicator management ----------------------------------------------------

    def split(
        self, colors: Sequence[int], keys: Sequence[int] | None = None
    ) -> list["VirtualComm"]:
        """``MPI_COMM_SPLIT``: per-rank colors → per-rank sub-communicators.

        Returns a list of length ``size``: entry ``r`` is the communicator
        rank ``r`` belongs to (ranks sharing a color share the object).
        Within each sub-communicator, ranks are ordered by ``keys`` (default:
        original rank order).
        """
        self._validate(colors)
        if keys is None:
            keys = list(range(self.size))
        groups: dict[int, list[int]] = {}
        for r, color in enumerate(colors):
            groups.setdefault(color, []).append(r)
        comms: dict[int, VirtualComm] = {}
        for color, members in groups.items():
            members = sorted(members, key=lambda r: (keys[r], r))
            comms[color] = VirtualComm(
                len(members),
                tracker=self.tracker,
                topology=self.topology,
                world_ranks=[self.world_ranks[m] for m in members],
                name=f"{self.name}/color{color}",
            )
        self._charge(0.0, 0.0, "comm_split")
        return [comms[colors[r]] for r in range(self.size)]

    def rank_in(self, world_rank: int) -> int:
        """Local rank of a world rank within this communicator."""
        return self.world_ranks.index(world_rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualComm(name={self.name!r}, size={self.size})"
