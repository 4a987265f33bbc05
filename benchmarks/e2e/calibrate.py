"""Host ceilings measured in the same process as the traced run.

The kernels are timed at the shapes the workload actually used (read from
the trace), so ``*_ceiling_ratio`` compares a layer with the best this
host does on exactly that problem — the paper's FLOP/s-against-peak idiom
(Tables 1-2) with a measured peak.  ``host.dgemm_gflops`` (one 512^3
matrix product) is the machine-peak yardstick.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

from layers import fft_flops

#: the fixed kernel sampled between steps for ``host.kernel_cv``
NOISE_SHAPE = (8, 24, 24, 24)


def _best(fn, budget_s: float) -> float:
    """Fastest of as many calls as fit in ``budget_s`` (at least five)."""
    best = float("inf")
    t_end = time.perf_counter() + budget_s
    n = 0
    while n < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        n += 1
    return best


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def fft_gflops(field_shape, budget_s: float = 0.4) -> float:
    """Best of ``numpy.fft`` / ``scipy.fft`` on one stacked 3-D transform."""
    x = _complex(np.random.default_rng(0), field_shape)
    axes = tuple(range(x.ndim - 3, x.ndim))
    t = min(
        _best(lambda: np.fft.ifftn(x, axes=axes), budget_s / 2),
        _best(lambda: scipy.fft.ifftn(x, axes=axes), budget_s / 2),
    )
    return fft_flops(field_shape) / t / 1e9


def zgemm_gflops(npw: int, nproj: int, nband: int,
                 budget_s: float = 0.2) -> float:
    """The nonlocal projector product pair at the workload's shape."""
    rng = np.random.default_rng(1)
    b = _complex(rng, (npw, nproj))
    bh = np.ascontiguousarray(b.conj().T)
    psi = _complex(rng, (npw, nband))
    t = _best(lambda: b @ (bh @ psi), budget_s)
    return 16.0 * npw * nproj * nband / t / 1e9


def dgemm_gflops(n: int = 512, budget_s: float = 0.4) -> float:
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return 2.0 * n**3 / _best(lambda: a @ b, budget_s) / 1e9


class NoiseSampler:
    """Times one fixed FFT kernel between steps; the coefficient of
    variation of the samples is the host noise the step timings sit in."""

    def __init__(self):
        self.x = _complex(np.random.default_rng(3), NOISE_SHAPE)
        self.samples: list[float] = []

    def sample(self) -> None:
        # best of five calls: drops microsecond jitter and the cache state
        # the previous step left behind, keeps multi-millisecond slow phases
        self.samples.append(
            _best(lambda: np.fft.ifftn(self.x, axes=(1, 2, 3)), 0.0)
        )

    def cv(self) -> float:
        return float(np.std(self.samples) / np.mean(self.samples))
