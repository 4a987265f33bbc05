"""Repository hygiene: examples compile, public APIs import, docs exist."""

import pathlib


REPO = pathlib.Path(__file__).resolve().parents[1]


def test_all_examples_compile():
    examples = sorted((REPO / "examples").glob("*.py"))
    assert len(examples) >= 3, "the deliverable requires at least 3 examples"
    for path in examples:
        compile(path.read_text(), str(path), "exec")


def test_all_benchmarks_compile():
    benches = sorted((REPO / "benchmarks").glob("bench_*.py"))
    assert len(benches) >= 12  # at least one per paper table/figure
    for path in benches:
        compile(path.read_text(), str(path), "exec")


def test_documentation_present():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        text = (REPO / name).read_text()
        assert len(text) > 1000, f"{name} looks empty"


#: DESIGN.md only shrinks: a PR that rewrites a section replaces it, and
#: lowers this to the new size (145 456 bytes at PR 22, 143 375 at PR 23;
#: ROADMAP 7(e) wants ≤ 60 KB — this stops the growth first)
DESIGN_MAX_BYTES = 143_358


def test_design_document_does_not_grow():
    size = (REPO / "DESIGN.md").stat().st_size
    assert size <= DESIGN_MAX_BYTES, (
        f"DESIGN.md is {size} bytes, over its {DESIGN_MAX_BYTES}-byte "
        "ratchet: replace text, do not append"
    )


def test_design_covers_every_experiment():
    design = (REPO / "DESIGN.md").read_text()
    for exp in ("EXP-F5", "EXP-F6", "EXP-F7", "EXP-T1", "EXP-T2", "EXP-TTS",
                "EXP-XOVER", "EXP-PORT", "EXP-VV", "EXP-F9A", "EXP-F9B",
                "EXP-IO", "EXP-PROD"):
        assert exp in design, f"{exp} missing from DESIGN.md"


def test_experiments_records_every_artifact():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for artifact in ("Fig. 5", "Fig. 6", "Fig. 7", "Table 1", "Table 2",
                     "Fig. 9(a)", "Fig. 9(b)"):
        assert artifact in experiments, f"{artifact} missing from EXPERIMENTS.md"


def test_public_api_importable():
    import repro.compression
    import repro.core
    import repro.dft
    import repro.md
    import repro.multigrid
    import repro.observability
    import repro.parallel
    import repro.perfmodel
    import repro.reactive
    import repro.systems
    import repro.util

    for pkg in (
        repro.core, repro.dft, repro.md, repro.multigrid, repro.parallel,
        repro.perfmodel, repro.reactive, repro.systems, repro.util,
        repro.compression, repro.observability,
    ):
        assert hasattr(pkg, "__all__") or pkg.__doc__


def test_all_public_symbols_resolve():
    """Every name in each package's __all__ must actually exist."""
    import importlib

    for mod_name in (
        "repro.core", "repro.dft", "repro.md", "repro.multigrid",
        "repro.parallel", "repro.perfmodel", "repro.reactive",
        "repro.systems", "repro.util", "repro.compression",
        "repro.observability",
    ):
        mod = importlib.import_module(mod_name)
        for symbol in getattr(mod, "__all__", []):
            assert hasattr(mod, symbol), f"{mod_name}.{symbol} missing"


def test_every_source_module_has_docstring():
    src = REPO / "src" / "repro"
    missing = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text().lstrip()
        if not (text.startswith('"""') or text.startswith("'''")):
            missing.append(str(path.relative_to(REPO)))
    assert not missing, f"modules without docstrings: {missing}"


# -- one domain-solve seam ------------------------------------------------------


def test_engine_has_no_thread_pool_and_no_batching_flag():
    """The LDC domain solves run through one seam on one thread: no
    ``concurrent.futures`` under the engine packages (the linter's own
    ``--jobs`` pool in ``repro.analysis`` is not engine code), and no
    environment switch for the stack width anywhere under ``src/``."""
    src = REPO / "src" / "repro"
    pooled = [
        str(path.relative_to(REPO))
        for pkg in ("core", "dft", "md", "multigrid")
        for path in sorted((src / pkg).rglob("*.py"))
        if "concurrent.futures" in path.read_text()
    ]
    assert not pooled, f"thread/process pools in engine code: {pooled}"
    flagged = [
        str(path.relative_to(REPO))
        for path in sorted(src.rglob("*.py"))
        if "REPRO_BATCH_" + "DOMAINS" in path.read_text()
    ]
    assert not flagged, f"stack-width environment flag read in: {flagged}"


# -- one SCF fixed-point loop ---------------------------------------------------


def _trees(*packages):
    """``(path relative to src/repro, AST)`` of every module under the
    given packages (all of ``repro`` when none is named)."""
    import ast

    src = REPO / "src" / "repro"
    for pkg in packages or (".",):
        for path in sorted((src / pkg).rglob("*.py")):
            yield str(path.relative_to(src)), ast.parse(path.read_text())


def _method_calls(tree, *names):
    import ast

    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr in names
    ]


def test_one_scf_loop_one_mixing_site_one_energy_expression():
    """``run_scf`` and ``run_ldc`` iterate through one loop: under the
    engine packages there is one ``.mix(`` call and one
    ``for … in range(1, … max_iter …)`` loop (the eigensolver's own
    iteration aside), nothing outside ``repro.observability`` writes the
    run ledger's invocation/failure records by hand, and the
    output-density energy function is gone."""
    import ast

    ledger = [
        rel for rel, tree in _trees()
        if not rel.startswith("observability/")
        and _method_calls(tree, "record_invocation", "record_failure")
    ]
    mixes, loops, named = [], [], []
    for rel, tree in _trees("dft", "core", "md"):
        mixes += [rel] * len(_method_calls(tree, "mix"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                named += [rel] * (node.name == "_total" + "_energy")
            if not (isinstance(node, ast.For) and rel != "dft/eigensolver.py"):
                continue
            call = node.iter
            if (
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "range"
                and len(call.args) == 2
                and getattr(call.args[0], "value", None) == 1
                and "max_iter" in ast.unparse(call.args[1])
            ):
                loops.append(rel)
    assert mixes == ["dft/scf.py"], mixes
    assert loops == ["dft/scf.py"], loops
    assert ledger == [] and named == [], (ledger, named)


# -- the global half: slices, half grids, blocks ---------------------------------


def test_global_layers_keep_no_dense_form():
    """The multigrid package shifts and colours by slices (no ``np.roll``,
    no ``np.indices``, no boolean-mask update), the Ewald sum accumulates
    without ``np.add.at``, and nothing under ``repro.dft`` transforms a
    full complex grid for a real field (``grid.fft`` / ``grid.ifft`` are
    the test oracles' and ``fft_poisson``'s)."""
    import ast

    dense = [
        (rel, call.func.attr)
        for rel, tree in _trees("multigrid")
        for call in _method_calls(tree, "roll", "indices")
    ]
    masked = [
        rel for rel, tree in _trees("multigrid") for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "where"
        and rel != "multigrid/poisson.py"  # the coarse solve's zero mode
    ]
    scattered = [
        rel for rel, tree in _trees("dft") for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "at"
        and ast.unparse(node) == "np.add.at"
    ]
    complex_grid = [
        (rel, ast.unparse(call.func))
        for rel, tree in _trees("dft", "core", "md")
        for call in _method_calls(tree, "fft", "ifft", "fftn", "ifftn")
        if ast.unparse(call.func) in (
            "grid.fft", "grid.ifft", "np.fft.fftn", "np.fft.ifftn"
        )
        # the two definitions, and Hamiltonian.dense(), a reference solver
        and rel not in ("dft/grid.py", "dft/hamiltonian.py")
    ]
    assert dense == [] and masked == [], (dense, masked)
    assert scattered == [] and complex_grid == [], (scattered, complex_grid)


# -- one observability handle ---------------------------------------------------

_ENGINE = ("dft", "core", "md", "multigrid")
#: what an observability handle, or a part of one, has been called
_HANDLE_NAMES = {
    "ins", "obs", "observer", "instrumentation", "hm", "health", "numerics",
    "san", "sanitize",
}


def _inside(tree, *path):
    """Every node under the (class, function, ...) definition ``path``
    names in ``tree`` — the whole tree for an empty path, nothing when
    there is no such definition."""
    import ast

    scope = [tree]
    for name in path:
        scope = [
            node for parent in scope for node in ast.iter_child_nodes(parent)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name == name
        ]
    return [node for top in scope for node in ast.walk(top)]


def test_engine_holds_one_observability_handle_that_is_never_none():
    """Below the public entry points the handle is a required argument and
    is called unconditionally: no ``sanitize``/``san`` parameter, no test
    of a handle (or of a part of one) against ``None`` — the virtual
    machine's post-run report and the driver's share-with-the-engine rule
    aside — no import of the tooling packages at run time, and no mention
    of the handle inside the kernels."""
    import ast

    params, guards, imports = [], [], []
    for rel, tree in _trees(*_ENGINE):
        exempt = set(map(id, _inside(tree, "QMDDriver", "__init__")))
        typing_only = {
            id(node) for branch in ast.walk(tree)
            if isinstance(branch, ast.If)
            and "TYPE_CHECKING" in ast.unparse(branch.test)
            for node in ast.walk(branch)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.arg in ("sanitize", "san"):
                params.append((rel, node.lineno))
            if (
                isinstance(node, ast.Compare)
                and rel != "core/parallel_ldc.py" and id(node) not in exempt
                and any(
                    isinstance(c, ast.Constant) and c.value is None
                    for c in node.comparators
                )
                and getattr(node.left, "id", getattr(node.left, "attr", None))
                in _HANDLE_NAMES
            ):
                guards.append((rel, node.lineno))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = (
                    [node.module or ""] if isinstance(node, ast.ImportFrom)
                    else [alias.name for alias in node.names]
                )
                if id(node) not in typing_only and any(
                    m.startswith(("repro.observability", "repro.sanitize"))
                    for m in modules
                ):
                    imports.append((rel, ast.unparse(node)))
    assert params == [] and guards == [], (params, guards)
    assert imports == [(
        "core/parallel_ldc.py",
        "from repro.observability.comms import CommProfiler",
    )], imports

    kernels = dict(_trees("dft"))
    mentions = []
    for rel, path in (
        ("dft/basis.py", ()), ("dft/hamiltonian.py", ()),
        ("dft/eigensolver.py", ("_lockstep_lobpcg",)),
    ):
        nodes = _inside(kernels[rel], *path)
        assert nodes, (rel, path)
        for node in nodes:
            for field in ("id", "arg", "attr", "module"):
                name = getattr(node, field, None)
                if isinstance(name, str) and (
                    name in _HANDLE_NAMES | {"Observer", "OFF", "record_solve"}
                    or name.startswith("repro.observe")
                ):
                    mentions.append((rel, node.lineno, name))
    assert mentions == [], mentions


# -- the engine's import graph ------------------------------------------------

#: What ``import repro.core.ldc`` may add to the resident set of a process
#: that has imported NumPy: twice the measured 2.63 MB (3.45 MB while
#: ``repro.core`` still loaded the virtual machine and the drivers
#: ``repro.sanitize``; 37.5 MB with SciPy's compiled stack behind it).
ENGINE_IMPORT_MB = 5.3

#: packages an engine process has no business loading
_TOOLING = ("observability", "sanitize", "parallel", "perfmodel", "analysis")

_ENGINE_PROBE = '''
import json, sys

def rss_mb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None

import numpy
numpy_only = rss_mb()
import repro.core.ldc
imported = rss_mb()
import repro.md.qmd, repro.dft.scf

import numpy as np
from repro.core.ldc import LDCOptions, run_ldc
from repro.dft.scf import SCFOptions, run_scf
from repro.md.qmd import LDCEngine, QMDDriver, SCFEngine
from repro.systems import dimer
from repro.systems.configuration import Configuration

chain = Configuration(
    ["H", "H", "H", "H"],
    np.array([[2.0, 2.5, 2.5], [3.5, 2.5, 2.5], [6.0, 2.5, 2.5], [7.5, 2.5, 2.5]]),
    np.array([10.0, 5.0, 5.0]),
)
ldc = run_ldc(
    chain,
    LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-4, max_iter=6),
    compute_forces=True,
)
scf = run_scf(dimer("H", "H", 1.5, 12.0), SCFOptions(ecut=4.0, tol=1e-3, max_iter=4))
frames = QMDDriver(
    LDCEngine(LDCOptions(ecut=4.0, domains=(2, 1, 1), buffer=2.0, tol=1e-3)),
    timestep=4.0,
).run(dimer("H", "H", 2.3, 12.0), 2)
pw_forces, _, _ = SCFEngine(SCFOptions(ecut=4.0, tol=1e-3, max_iter=4)).forces(
    dimer("H", "H", 1.5, 12.0)
)
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy_ma": "numpy.ma" in sys.modules,
    "repro": sorted(m for m in sys.modules if m.startswith("repro.")),
    "domains": len(ldc.states),
    "finite": bool(
        np.isfinite(ldc.forces).all() and np.isfinite(scf.energy)
        and all(np.isfinite(f.total_energy) for f in frames)
        and np.isfinite(pw_forces).all()
    ),
    "steps": len(frames),
    "import_mb": None if imported is None else imported - numpy_only,
}))
'''


def test_engine_process_loads_no_scipy_and_imports_small():
    """The QMD engine path — imports, a two-domain LDC solve with forces, a
    global SCF, two MD steps through ``QMDDriver(LDCEngine)``, one
    ``SCFEngine.forces`` — runs on NumPy alone (and without ``numpy.ma``,
    which ``np.unique``/``np.setdiff1d`` would pull in: +1.5 MB resident)
    and is only the engine: no observability, sanitizer,
    virtual-machine, cost-model or linter module is loaded.  Importing it
    stays cheap: the next eager import of a compiled stack or of a tooling
    package fails here, not in a benchmark row."""
    import json
    import os
    import subprocess
    import sys

    # without the REPRO_* switches of the surrounding CI job: REPRO_SANITIZE
    # would (rightly) load repro.sanitize
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(REPO / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _ENGINE_PROBE], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["domains"] == 2 and probe["steps"] == 2 and probe["finite"]
    assert probe["scipy"] == [] and not probe["numpy_ma"]
    assert [m for m in probe["repro"] if m.split(".")[1] in _TOOLING] == []
    if probe["import_mb"] is not None:  # no /proc: nothing to read it from
        assert probe["import_mb"] <= ENGINE_IMPORT_MB


# -- the tier-1 budget ------------------------------------------------------------

_BUDGET_PROBE = """
import tests.conftest as tier1

tier1.TEST_BUDGET_S = 0.05  # read by the hooks when they run
from tests.conftest import (  # noqa: E402,F401
    pytest_configure, pytest_runtest_makereport, pytest_sessionfinish,
    pytest_terminal_summary,
)
"""


def test_a_test_over_the_tier1_budget_fails_the_session_by_name(tmp_path):
    """``tests/conftest.py`` holds every test to ``TEST_BUDGET_S`` of set-up
    plus call: with the ceiling lowered to 50 ms, a session whose tests all
    pass still fails, and says which one was slow."""
    import os
    import subprocess
    import sys

    (tmp_path / "conftest.py").write_text(_BUDGET_PROBE)
    (tmp_path / "test_pace.py").write_text(
        "import time\n\n"
        "def test_quick():\n    pass\n\n"
        "def test_slow():\n    time.sleep(0.2)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "2 passed" in done.stdout, done.stdout + done.stderr
    assert done.returncode == 1
    assert "OVER BUDGET test_pace.py::test_slow" in done.stdout
    assert "test_quick" not in done.stdout
