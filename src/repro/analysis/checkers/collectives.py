"""RP005 — SPMD collective mismatch / deadlock detection for VirtualComm code.

In SPMD code every rank must reach every collective: an
``allreduce``/``bcast``/``split`` that only one branch of a
rank-conditional executes deadlocks real MPI (and silently desynchronises
the :class:`~repro.parallel.comm.VirtualComm` cost model).  The paper's
``MPI_COMM_SPLIT``-per-domain pattern (Sec. 3.3) makes this the dominant
hang class at scale.

Since the interprocedural upgrade (DESIGN.md §13) RP005 is a
*project-scope* rule working from :class:`~repro.analysis.project.
FunctionSummary` records and the :class:`~repro.analysis.project.
ProjectIndex` call graph, with alias-aware comm tracking (parameters,
``self.comm`` attributes, ``split()``-derived sub-communicators):

* **Rank-conditional collectives.**  For each ``if`` whose test depends on
  a rank-like value, the *transitively reachable* collective sets of the
  two branches must match — a collective hidden two helpers deep is found.
* **Unmatched point-to-point pairs.**  ``send``/``recv`` counts on
  comm-like receivers must balance over a function's whole call tree.
  Only call-graph *roots* (functions no analysed function calls) are
  reported — a lone ``send`` helper is legitimate when its caller pairs it
  with a ``recv`` helper; the imbalance, if real, surfaces at the root.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.engine import Finding, ProjectChecker, register
from repro.analysis.project import FunctionSummary, ProjectIndex

COLLECTIVES = {
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "split",
}


@register
class CollectiveMismatchChecker(ProjectChecker):
    rule = "RP005"
    name = "collective-mismatch"
    description = (
        "rank-conditional branch reaches a collective (directly or through "
        "helpers) the other branch skips, or unmatched send/recv pairs over "
        "a call tree — an SPMD deadlock"
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for summary in index.summaries:
            yield from self._check_rank_sites(index, summary)
            yield from self._check_point_to_point(index, summary)

    # -- rank-conditional collectives ---------------------------------------

    @staticmethod
    def _branch_effects(
        index: ProjectIndex,
        summary: FunctionSummary,
        direct: list[str],
        calls: list[str],
    ) -> tuple[set[str], dict[str, set[str]]]:
        """(reachable collectives, collective → contributing helpers)."""
        via = index.collectives_via_calls(summary, calls)
        return set(direct) | set(via), via

    def _check_rank_sites(
        self, index: ProjectIndex, summary: FunctionSummary
    ) -> Iterator[Finding]:
        for site in summary.rank_sites:
            in_body, via_body = self._branch_effects(
                index, summary, site.true_direct, site.true_calls
            )
            in_else, via_else = self._branch_effects(
                index, summary, site.false_direct, site.false_calls
            )
            for side, ops, via in (
                ("true", in_body - in_else, via_body),
                ("false", in_else - in_body, via_else),
            ):
                if not ops:
                    continue
                ops_s = ", ".join(sorted(ops))
                helpers = sorted(
                    {h for op in ops for h in via.get(op, ())}
                )
                via_s = (
                    f" (reached through helper(s) "
                    f"{', '.join(repr(h) for h in helpers)})"
                    if helpers
                    else ""
                )
                yield self.finding(
                    index, summary.path, site.line, site.col,
                    f"rank-conditional in {summary.name!r}: the {side} "
                    f"branch calls collective(s) {{{ops_s}}}{via_s} the "
                    f"other branch never reaches — ranks taking different "
                    f"branches deadlock",
                )

    # -- point-to-point balance ---------------------------------------------

    def _check_point_to_point(
        self, index: ProjectIndex, summary: FunctionSummary
    ) -> Iterator[Finding]:
        sends, recvs = index.effective_p2p(summary)
        if sends == recvs or (sends + recvs) == 0:
            return
        # Report at call-graph roots only: a lone-send helper is fine
        # when a caller pairs it; the *root* shows the real imbalance.
        if index.callers_of(summary) > 0:
            return
        scope = (
            "over its call tree"
            if (sends, recvs) != (summary.sends, summary.recvs)
            else "on comm-like receivers"
        )
        line = summary.p2p_line or summary.line
        col = summary.p2p_col if summary.p2p_line else summary.col
        yield self.finding(
            index, summary.path, line, col,
            f"unmatched point-to-point pairs in {summary.name!r}: "
            f"{sends} send(s) vs {recvs} recv(s) {scope} — a lone "
            f"send/recv blocks forever",
        )
