"""Integration tests: the Instrumentation facade threaded through the
SCF/LDC/multigrid/QMD drivers produces the promised telemetry, and the
default (disabled) path leaves driver outputs bit-identical."""

import numpy as np
import pytest

from repro.core.ldc import LDCOptions, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.md.integrator import initialize_velocities
from repro.md.qmd import LDCEngine, QMDDriver
from repro.observability import Instrumentation
from repro.systems import dimer
from tests.builders import span_count, span_names


@pytest.fixture(scope="module")
def h2():
    return dimer("H", "H", 1.5, 12.0)


SCF_OPTS = SCFOptions(ecut=5.0, tol=1e-4, max_iter=10)
LDC_OPTS = LDCOptions(
    ecut=4.0, domains=(1, 1, 1), buffer=0.0, tol=1e-4, max_iter=8
)


def test_scf_records_iteration_series_and_spans(h2):
    ins = Instrumentation()
    result = run_scf(h2, SCF_OPTS, instrumentation=ins)

    resid = ins.metrics.get("scf.residual", engine="ldc")
    assert resid is not None
    assert resid.values == pytest.approx(result.density_residuals)
    energy = ins.metrics.get("scf.energy", engine="ldc")
    assert energy.values == pytest.approx(result.history)
    iters = ins.metrics.get("scf.iterations", engine="ldc")
    assert iters.value == result.iterations

    # the whole-cell solve is the LDC driver's: one stack of one domain
    # per pass, the final consistent pass included
    names = span_names(ins.tracer)
    assert "scf.run" not in names
    assert "ldc.run" in names and "ldc.iteration" in names
    assert span_count(ins.tracer, "ldc.run/ldc.iteration") == result.iterations
    assert span_count(ins.tracer, "ldc.run/ldc.domain_solve") == (
        result.iterations + 1
    )
    # eigensolver telemetry flows through the same registry
    solves = ins.metrics.get("eigensolver.solves", solver="all_band")
    assert solves.value >= result.iterations


def test_scf_instrumentation_does_not_change_result(h2):
    plain = run_scf(h2, SCF_OPTS)
    instrumented = run_scf(h2, SCF_OPTS, instrumentation=Instrumentation())
    assert instrumented.energy == plain.energy
    assert instrumented.iterations == plain.iterations
    np.testing.assert_array_equal(instrumented.density, plain.density)


def test_ldc_records_domain_spans_and_boundary_metrics(h2):
    opts = LDCOptions(
        ecut=4.0, domains=(2, 1, 1), buffer=1.5, tol=1e-4, max_iter=6,
        poisson="multigrid",
    )
    ins = Instrumentation()
    result = run_ldc(h2, opts, instrumentation=ins)

    assert span_count(ins.tracer, "ldc.domain_solve") > 0
    dom_spans = [s for s in ins.tracer.spans() if s.name == "ldc.domain_solve"]
    assert {s.attrs["domain"] for s in dom_spans} <= {0, 1}
    # a single point is a one-step trajectory: its set-up is a workspace's
    assert "ldc.workspace_prepare" in span_names(ins.tracer)
    assert "ldc.assemble_density" in span_names(ins.tracer)

    resid = ins.metrics.get("scf.residual", engine="ldc")
    assert resid.values == pytest.approx(result.density_residuals)
    # per-domain buffer-error series exist once rho_local is warm
    per_domain = [
        k for k in ins.metrics.snapshot()
        if k.startswith("ldc.boundary_error{domain=")
    ]
    assert per_domain
    # multigrid poisson telemetry rode along
    assert ins.metrics.get("poisson.vcycles").value > 0
    assert len(ins.metrics.get("poisson.residual").values) > 0


def test_qmd_step_spans_and_warm_start_counters(h2):
    cfg = dimer("H", "H", 1.5, 12.0)
    initialize_velocities(cfg, 100.0, seed=0)
    ins = Instrumentation()
    driver = QMDDriver(LDCEngine(LDC_OPTS), timestep=5.0, instrumentation=ins)
    frames = driver.run(cfg, 2)

    assert span_count(ins.tracer, "qmd.step") == 2
    scf_iters = ins.metrics.get("qmd.scf_iterations")
    assert scf_iters.values == [float(f.scf_iterations) for f in frames]
    # 3 solves total (initial force eval + 2 steps): the first is cold, the
    # rest warm-start from the workspace's cached orbitals (which implies
    # the density warm start too)
    cold = ins.metrics.get("qmd.solves", engine="ldc", start="cold")
    orbital = ins.metrics.get("qmd.solves", engine="ldc", start="orbital")
    assert cold.value == 1
    assert orbital.value == 2
    assert ins.metrics.get("qmd.solves", engine="ldc", start="density") is None
    # engine inherited the driver's instrumentation: ldc spans nested in qmd
    ldc_spans = [s for s in ins.tracer.spans() if s.name == "ldc.run"]
    assert ldc_spans
    assert any(s.path.startswith("qmd.step/") for s in ldc_spans)

