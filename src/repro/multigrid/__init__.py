"""Real-space multigrid Poisson solver — the globally scalable half of the
GSLF electronic-structure solver (Sec. 3.2).

Solves ``∇²V_H = -4πρ`` on a periodic grid with a geometric multigrid
V-cycle: red-black Gauss–Seidel smoothing, full-weighting restriction,
trilinear prolongation, and an FFT coarse solve.  The grid hierarchy is the
locality-preserving octree of Fig. 1(a)/Fig. 3: each level halves the
resolution, and communication volume shrinks geometrically going up — the
property the paper's metascalability argument rests on.
"""

from repro.multigrid.poisson import MultigridPoisson
from repro.multigrid.hierarchy import GridHierarchy

__all__ = [
    "MultigridPoisson",
    "GridHierarchy",
]
