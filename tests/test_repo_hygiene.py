"""Repository hygiene: examples compile, public APIs import, docs exist."""

import pathlib


REPO = pathlib.Path(__file__).resolve().parents[1]


def test_all_examples_compile():
    """Every example compiles, and every ``from repro… import name`` in
    ``examples/`` and ``benchmarks/`` names something that exists — checked
    by importing the module, without running the scripts (CI runs no
    example, so a deleted name would otherwise surface only in a user's
    hands)."""
    import ast
    import importlib
    import importlib.util

    examples = sorted((REPO / "examples").glob("*.py"))
    assert len(examples) >= 3, "the deliverable requires at least 3 examples"
    for path in examples:
        compile(path.read_text(), str(path), "exec")
    missing = []
    for path in [*examples, *sorted((REPO / "benchmarks").rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "repro"):
                continue
            module = importlib.import_module(node.module)
            missing += [
                f"{path.relative_to(REPO)}: {node.module}.{alias.name}"
                for alias in node.names
                if not hasattr(module, alias.name) and not (
                    hasattr(module, "__path__")  # a package's submodule
                    and importlib.util.find_spec(f"{node.module}.{alias.name}")
                )
            ]
    assert missing == [], missing


def test_all_benchmarks_compile():
    benches = sorted((REPO / "benchmarks").glob("bench_*.py"))
    assert len(benches) >= 12  # at least one per paper table/figure
    for path in benches:
        compile(path.read_text(), str(path), "exec")


def test_documentation_present():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        text = (REPO / name).read_text()
        assert len(text) > 1000, f"{name} looks empty"


#: DESIGN.md only shrinks: a change that rewrites a section replaces it,
#: and lowers this to the new size (ROADMAP 7(e) wants ≤ 60 KB — this stops
#: the growth first)
DESIGN_MAX_BYTES = 133_908


def test_design_document_does_not_grow():
    size = (REPO / "DESIGN.md").stat().st_size
    assert size <= DESIGN_MAX_BYTES, (
        f"DESIGN.md is {size} bytes, over its {DESIGN_MAX_BYTES}-byte "
        "ratchet: replace text, do not append"
    )


#: EXPERIMENTS.md is an index, one line per experiment; each record is its
#: own file under ``experiments/``.  A new record raises this by its one
#: index line and nothing more
EXPERIMENTS_MAX_BYTES = 4_931


def test_experiments_log_does_not_grow():
    size = (REPO / "EXPERIMENTS.md").stat().st_size
    assert size <= EXPERIMENTS_MAX_BYTES, (
        f"EXPERIMENTS.md is {size} bytes, over its {EXPERIMENTS_MAX_BYTES}-"
        "byte ratchet: it is the index — a record goes in experiments/"
    )


def test_design_covers_every_experiment():
    design = (REPO / "DESIGN.md").read_text()
    for exp in ("EXP-F5", "EXP-F6", "EXP-F7", "EXP-T1", "EXP-T2", "EXP-TTS",
                "EXP-XOVER", "EXP-PORT", "EXP-VV", "EXP-F9A", "EXP-F9B",
                "EXP-IO", "EXP-PROD"):
        assert exp in design, f"{exp} missing from DESIGN.md"


def _experiment_index():
    """``{id: record file}`` of every line of the EXPERIMENTS.md index."""
    import re

    index = (REPO / "EXPERIMENTS.md").read_text()
    rows = re.findall(
        r"^\| (\S+) \|.*\]\((experiments/[^)]+\.md)\) \|$", index, re.M
    )
    return index, {ident: REPO / path for ident, path in rows}


def test_experiments_records_every_artifact():
    """The index names every artifact of the paper's evaluation, links
    one existing record per line (and every record has its line), and
    the record it links for an artifact holds the full table."""
    index, records = _experiment_index()
    assert records, "EXPERIMENTS.md lists no experiment"
    on_disk = set((REPO / "experiments").glob("*.md"))
    assert set(records.values()) == on_disk
    for ident, path in records.items():
        text = path.read_text()
        if ident.startswith("EXP-"):
            assert text.startswith(f"## {ident} "), path
    for artifact in ("Fig. 5", "Fig. 6", "Fig. 7", "Table 1", "Table 2",
                     "Fig. 9(a)", "Fig. 9(b)"):
        assert artifact in index, f"{artifact} missing from EXPERIMENTS.md"
        assert any(
            artifact in path.read_text() for path in records.values()
        ), f"{artifact} has no record under experiments/"


def test_public_api_importable():
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
        repro.observability,
    ):
        assert hasattr(pkg, "__all__") or pkg.__doc__


def test_all_public_symbols_resolve():
    """Every name in each package's __all__ must actually exist."""
    import importlib

    for mod_name in (
        "repro.core", "repro.dft", "repro.md", "repro.multigrid",
        "repro.parallel", "repro.perfmodel", "repro.reactive",
        "repro.systems", "repro.util", "repro.observability",
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
    """The LDC domain solves run through one seam on one thread, and so
    does everything else: no executor-module import in any module under
    ``src/`` (a future executor arrives with its own guard; the module name
    is spelled in two halves so a repo-wide grep for it stays empty), and
    no environment switch for the stack width anywhere under ``src/``."""
    src = REPO / "src" / "repro"
    pooled = [
        str(path.relative_to(REPO))
        for path in sorted(src.rglob("*.py"))
        if "concurrent" + ".futures" in path.read_text()
    ]
    assert not pooled, f"thread/process pools under src/: {pooled}"
    flagged = [
        str(path.relative_to(REPO))
        for path in sorted(src.rglob("*.py"))
        if "REPRO_BATCH_" + "DOMAINS" in path.read_text()
    ]
    assert not flagged, f"stack-width environment flag read in: {flagged}"


def test_src_is_single_threaded_by_contract():
    """No module under ``src/repro`` imports the stdlib thread module: the
    tracer, registry, bus, sink and flight recorder hold no lock, and no
    SPMD emulation runs a thread per rank (the module name is spelled in
    two halves, as above; ``repro.perfmodel.threading`` is a model, not an
    import of it)."""
    import ast

    banned = "thread" + "ing"
    threaded = sorted({
        rel for rel, tree in _trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == banned for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == banned)
    })
    assert not threaded, f"thread imports under src/repro: {threaded}"


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


def test_eigensolvers_return_orbitals_only():
    """|ψ|² is formed by the density maps (``PlaneWaveBasis.densities``),
    not inside a solve: no function in ``dft/eigensolver.py`` takes a
    ``band_densities`` argument."""
    import ast

    (tree,) = [tree for rel, tree in _trees("dft")
               if rel == "dft/eigensolver.py"]
    taking = [
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "band_densities" in {
            a.arg for a in (*node.args.posonlyargs, *node.args.args,
                            *node.args.kwonlyargs)
        }
    ]
    assert taking == [], taking


def test_aspc_combinators_are_called_only_by_the_window():
    """Carried state has one predictor: ``DomainHistory``.  No module but
    ``md/extrapolate.py`` calls ``extrapolate_fields`` or
    ``extrapolate_orbitals`` — a window of its own, kept beside the
    ``DomainHistory`` ones, is what this rejects."""
    import ast

    names = {"extrapolate_fields", "extrapolate_orbitals"}
    callers = sorted({
        rel for rel, tree in _trees() if rel != "md/extrapolate.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in names
             or getattr(node.func, "attr", None) in names)
    })
    assert callers == [], callers


# -- the global half: slices, half grids, blocks ---------------------------------


def test_global_layers_keep_no_dense_form():
    """The multigrid package shifts and colours by slices (no ``np.roll``,
    no ``np.indices``, no boolean-mask update), the Ewald sum accumulates
    without ``np.add.at``, and nothing under ``repro.dft`` transforms a
    full complex grid for a real field (``grid.fft`` / ``grid.ifft`` are
    the test oracles')."""
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


# -- one source per setting ------------------------------------------------------


def test_the_engine_reads_no_environment():
    """Every engine setting has one source, its options object: nothing
    under the physics packages reads ``os.environ`` / ``os.getenv``."""
    import ast

    reads = [
        (rel, node.lineno)
        for rel, tree in _trees("core", "dft", "md", "multigrid")
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute)
            and ast.unparse(node) in ("os.environ", "os.getenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and {a.name for a in node.names} & {"environ", "getenv"})
    ]
    assert reads == [], reads


def test_every_environment_variable_read_is_in_the_manifest():
    """A run manifest names every ``REPRO_*`` variable the package reacts
    to, and nothing else: the ``REPRO_*`` names spelled under
    ``src/repro`` are exactly ``TRACKED_ENV`` (a stale entry fails too)."""
    import ast
    import re

    from repro.observability.runlog import TRACKED_ENV

    names = {
        node.value
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)
    }
    assert names == set(TRACKED_ENV), (sorted(names), TRACKED_ENV)


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
    of a handle (or of a part of one) against ``None`` — the driver's
    share-with-the-engine rule aside — no import of the tooling packages at
    run time, and no mention of the handle inside the kernels."""
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
                isinstance(node, ast.Compare) and id(node) not in exempt
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
    assert imports == [], imports

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


# -- the virtual machine states its cost model once --------------------------

#: the event-log observatory, the telemetry bus built for it, and the
#: second cost path (a real solve charged to per-rank clocks; its names are
#: spelled in halves so that a repo-wide grep for them finds only the
#: removal records)
_OBSERVATORY = {
    "TelemetryBus", "CommProfiler", "critical_path", "DivergenceInvariant",
    "run_parallel" + "_ldc", "ParallelLDCResult", "Cost" + "Tracker",
    "Schedule", "schedule" + "_domains", "attach_cost" + "_tracker",
    "extra_chrome_events",
}


def test_no_observatory_name_under_src():
    """The virtual machine's cost model is ``repro.perfmodel.scaling``
    alone: no solve is charged to rank clocks, nothing replays charges to
    "measure" them, and no pub/sub bus carries telemetry: none of these
    names is defined, bound, imported or read anywhere under
    ``src/repro``."""
    import ast

    found = sorted({
        (rel, name)
        for rel, tree in _trees()
        for node in ast.walk(tree)
        for name in (
            getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "name", None), getattr(node, "asname", None),
            getattr(node, "arg", None),
        )
        if name in _OBSERVATORY
    })
    assert found == [], found


# -- the module census ----------------------------------------------------------


def _ci_roots():
    """What ``.github/workflows/ci.yml`` runs of the package: the targets
    of its ``python -m`` commands and the bodies of its inline
    ``python - <<EOF`` scripts."""
    import re
    import textwrap

    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    targets = set(re.findall(r"python -m\s+([\w.]+)", ci))
    scripts = [
        textwrap.dedent(body) for _, body in re.findall(
            r"python - <<'?\"?(\w+)'?\"?\n(.*?)^\s*\1$", ci, re.M | re.S
        )
    ]
    return targets, scripts


def _reached_modules():
    """``(every module under src/repro, the ones reached)``.  The roots
    are every ``.py`` under ``benchmarks/`` and what CI runs
    (:func:`_ci_roots`); from there static imports are followed, function
    bodies included.  ``from pkg import Name`` reaches the module that
    defines ``Name``, through the package's re-exports.  A reached module's
    packages run their ``__init__``, which reaches the submodules it
    imports but not the names it re-exports: a name that only a package
    exports reaches nothing."""
    import ast

    src = REPO / "src"
    trees, packages = {}, set()
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        trees[".".join(parts)] = ast.parse(path.read_text())

    def definer(module, name):
        if f"{module}.{name}" in trees:
            return f"{module}.{name}"
        for node in trees[module].body:
            if isinstance(node, ast.ImportFrom) and node.module in trees and any(
                (alias.asname or alias.name) == name for alias in node.names
            ):
                return definer(node.module, name)
        return module

    def imported(nodes, names=True):
        for node in (inner for top in nodes for inner in ast.walk(top)):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import"
                if node.module in trees:
                    yield from (
                        definer(node.module, alias.name)
                        for alias in node.names
                        if names or f"{node.module}.{alias.name}" in trees
                    )

    targets, scripts = _ci_roots()
    scripts += [path.read_text()
                for path in sorted((REPO / "benchmarks").rglob("*.py"))]
    todo = [
        *targets,
        *imported(node for text in scripts for node in ast.parse(text).body),
    ]
    reached = set()
    while todo:
        module = todo.pop()
        if module not in trees or module in reached:
            continue
        reached.add(module)
        todo += [".".join(module.split(".")[:i])
                 for i in range(1, module.count(".") + 1)]
        todo += imported(trees[module].body, names=module not in packages)
    return set(trees), reached


def test_every_source_module_is_reached():
    """Every module under ``src/repro`` has a reader outside the tests: a
    benchmark or a CI step imports it, directly or through what it
    imports.  A module only its own tests (or an example CI never runs)
    reach is deleted, not kept."""
    modules, reached = _reached_modules()
    assert modules == reached, sorted(modules - reached)


#: public names whose only reader is a test, kept on purpose; the pin fails
#: when one of them is deleted or gains a reader outside the tests
_TEST_ONLY = {
    "density_from_orbitals":
        "test_eigensolver's oracle for PlaneWaveBasis.densities",
    "structure_factors":
        "test_global_layers' oracle for the half-grid local potential",
    "read_jsonl": "the reader for the flight recorder's black-box format",
}


def _public_definitions():
    """``(name, path relative to the repo)`` of every public top-level
    function and class under ``src/repro`` and every public method of a
    public class.  Exempt: a dunder, and a method that overrides a base
    class's or implements a ``Protocol``'s."""
    import ast
    import importlib

    src = REPO / "src"
    modules = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        modules.append((name, path, ast.parse(path.read_text())))
    protocol = {
        method.name
        for _, _, tree in modules
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", None) == "Protocol" for base in node.bases)
        for method in node.body if isinstance(method, ast.FunctionDef)
    }

    for module, path, tree in modules:
        rel = str(path.relative_to(REPO))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            yield node.name, rel
            if not isinstance(node, ast.ClassDef):
                continue
            bases = vars(importlib.import_module(module))[node.name].__mro__[1:]
            yield from (
                (method.name, rel)
                for method in node.body
                if isinstance(method, ast.FunctionDef)
                and not method.name.startswith("_")
                and method.name not in protocol
                and not any(method.name in vars(base) for base in bases)
            )


def _readers_outside_tests():
    """Every name used as a name, an attribute or a ``from … import`` in
    ``src/``, ``benchmarks/`` or CI's inline scripts, plus the qualified
    names ``benchmarks/e2e/tracing.py`` wraps by string.  A package
    ``__init__`` re-exporting a name does not read it, and neither does an
    example: CI compiles ``examples/`` but runs none, the same roots
    :func:`_reached_modules` follows."""
    import ast

    _, scripts = _ci_roots()
    texts = [
        path.read_text()
        for top in ("src", "benchmarks")
        for path in sorted((REPO / top).rglob("*.py"))
        if path.name != "__init__.py"
    ] + scripts
    used = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    used.update(
        part for _, qualname in _tracing_targets()
        for part in qualname.split(".")
    )
    return used


def _tracing_targets():
    """``(module, qualname)`` of every ``_t(...)`` entry of
    ``benchmarks/e2e/tracing.py``'s ``TARGETS``, read by AST: the module
    is relative to ``repro``, the qualname a function or ``Class.method``."""
    import ast

    tracing = ast.parse((REPO / "benchmarks/e2e/tracing.py").read_text())
    return [
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tracing)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_t"
    ]


def test_every_traced_target_resolves_to_a_callable():
    """The e2e tracer wraps each ``TARGETS`` entry by name, the way its
    ``install`` looks it up: a module attribute, or a method defined on the
    class itself.  A rename under ``src/repro`` fails here, not only in a
    ``--trace 1`` run."""
    import importlib

    targets = _tracing_targets()
    assert len(targets) > 20
    unresolved = []
    for module, qualname in targets:
        owner_name, _, attr = qualname.rpartition(".")
        mod = importlib.import_module(f"repro.{module}")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        found = vars(owner).get(attr) if owner is not None else None
        if not callable(found):
            unresolved.append(f"repro.{module}:{qualname}")
    assert unresolved == [], unresolved


def test_every_public_name_is_referenced():
    """Every public function, class and method under ``src/repro`` has a
    reader outside the tests (:func:`_readers_outside_tests`): code only a
    test calls is deleted or moves to ``tests/``.  The exceptions are
    ``_TEST_ONLY``, each with its reason, and an entry there must still be
    defined and still be read by tests alone."""
    defined = sorted(set(_public_definitions()))
    used = _readers_outside_tests()
    unused = [(name, rel) for name, rel in defined
              if name not in used and name not in _TEST_ONLY]
    assert unused == [], unused
    names = {name for name, _ in defined}
    stale = sorted(name for name in _TEST_ONLY
                   if name in used or name not in names)
    assert stale == [], stale


#: option fields no caller outside the tests sets, kept on purpose; the pin
#: fails when one of them is deleted or gains a setter
_KEPT_FIELDS = {
    **dict.fromkeys(
        ("LDCOptions.eigensolver", "SCFOptions.eigensolver"),
        "the per-band reference the all-band solver is tested against",
    ),
    **dict.fromkeys(
        ("LDCOptions.eig_tol", "LDCOptions.eig_max_iter",
         "SCFOptions.eig_max_iter"),
        "the parity tests set both drivers equal; one default waits for "
        "ROADMAP 3(i), since it moves e2e frames",
    ),
    "QMDOptions.controller":
        "ROADMAP 13 re-plumbs the controller per domain",
    **{
        f"BufferControllerOptions.{name}":
            "ROADMAP 13 re-plumbs the controller per domain"
        for name in ("target_error", "band", "decay_length", "min_buffer",
                     "max_buffer", "max_step", "cooldown_steps")
    },
    "KMCOptions.pure_al": "the Al-Al arm of ROADMAP 12",
}


def _option_setters(classes):
    """``{"Class.field": files}`` of every option field set by keyword —
    a call of the class, or ``replace(options, field=…)`` on it — in
    ``src/``, ``benchmarks/`` or CI's inline scripts.  ``**name`` is
    resolved when the module binds ``name`` to a ``dict(…)`` call or a
    literal; positional arguments count in field order.  A ``replace``
    call sets the fields of every class that has all its keywords."""
    import ast

    _, scripts = _ci_roots()
    sources = [
        (str(path.relative_to(REPO)), path.read_text())
        for top in ("src", "benchmarks")
        for path in sorted((REPO / top).rglob("*.py"))
    ] + [("ci.yml", script) for script in scripts]
    setters = {}
    for rel, text in sources:
        tree = ast.parse(text)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(
                node.targets[0], ast.Name
            ):
                value = node.value
                if isinstance(value, ast.Dict):
                    bound[node.targets[0].id] = [
                        key.value for key in value.keys
                        if isinstance(key, ast.Constant)
                    ]
                elif getattr(getattr(value, "func", None), "id", None) == "dict":
                    bound[node.targets[0].id] = [
                        kw.arg for kw in value.keywords if kw.arg
                    ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords = [
                name for kw in node.keywords
                for name in ([kw.arg] if kw.arg else bound.get(
                    getattr(kw.value, "id", None), []))
            ]
            if called in classes:
                owners = [called]
                keywords += classes[called][: len(node.args)]
            elif called == "replace":
                owners = [cls for cls, fields in classes.items()
                          if keywords and set(keywords) <= set(fields)]
            else:
                continue
            for cls in owners:
                for name in keywords:
                    setters.setdefault(f"{cls}.{name}", set()).add(rel)
    return setters


def test_every_option_field_is_set_outside_the_tests():
    """Every field of the five option classes has a setter outside the
    tests (:func:`_option_setters`): a field only a test sets is a
    constant, and the code only its other values reached is deleted.  The
    exceptions are ``_KEPT_FIELDS``, each with its reason, and an entry
    there must still be a field that nothing outside the tests sets."""
    import dataclasses

    from repro.core.advisor import BufferControllerOptions
    from repro.core.ldc import LDCOptions
    from repro.dft.scf import SCFOptions
    from repro.md.qmd import QMDOptions
    from repro.reactive.kmc import KMCOptions

    classes = {
        cls.__name__: [field.name for field in dataclasses.fields(cls)]
        for cls in (LDCOptions, SCFOptions, QMDOptions, KMCOptions,
                    BufferControllerOptions)
    }
    fields = {f"{cls}.{name}" for cls, names in classes.items()
              for name in names}
    setters = _option_setters(classes)
    unset = sorted(fields - setters.keys() - _KEPT_FIELDS.keys())
    assert unset == [], unset
    stale = sorted(name for name in _KEPT_FIELDS
                   if name in setters or name not in fields)
    assert stale == [], stale


def test_the_package_runs_on_numpy_alone():
    """No module under ``src/repro`` imports SciPy or networkx: the
    runtime dependency is NumPy (the tests' oracles keep SciPy)."""
    import ast

    found = sorted(
        (rel, name)
        for rel, tree in _trees()
        for node in ast.walk(tree)
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom)
            else []
        )
        if name.split(".")[0] in ("scipy", "networkx")
    )
    assert found == [], found


# -- source patterns the tests cannot see ---------------------------------------
#
# Each pattern below flagged a seeded defect that the rest of tier-1 lets
# through (experiments/EXP-LINT-CENSUS.md).  A pattern yields the line of
# every node it flags in one module's AST.


def _module_mutable_state(tree):
    """A lowercase module-level name bound to a mutable literal: state every
    importer shares (``UPPER_CASE`` names and dunders are constants)."""
    import ast

    mutable = {
        "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
        "OrderedDict", "np.zeros", "np.ones", "np.empty", "np.full",
        "np.array", "np.arange",
    }
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        if not (
            isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                               ast.DictComp, ast.SetComp))
            or isinstance(value, ast.Call)
            and ast.unparse(value.func) in mutable
        ):
            continue
        for target in targets:
            name = getattr(target, "id", "")
            if name and not name.startswith("__") and name != name.upper():
                yield node.lineno


def _raw_constants(tree):
    """A float literal that copies a ``repro.constants`` float or its
    reciprocal, times any power of ten, to a relative 1e-5."""
    import ast
    import math

    import repro.constants

    references = [
        ref for value in vars(repro.constants).values()
        if isinstance(value, float) for ref in (value, 1.0 / value)
    ]
    for node in ast.walk(tree):
        value = getattr(node, "value", None)
        if not (isinstance(node, ast.Constant) and isinstance(value, float)
                and 0.0 < value < math.inf):
            continue
        for ref in references:
            ratio = value / ref
            decade = round(math.log10(ratio))
            if abs(decade) <= 30 and abs(ratio / 10.0**decade - 1.0) < 1e-5:
                yield node.lineno
                break


def _controller_literals(tree):
    """A numeric literal keyword at a call to a ``*Controller`` /
    ``*Predictor`` / ``*Extrapolator`` imported from the advisor or
    extrapolate modules: tuning constants belong in its options object."""
    import ast

    controllers = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").endswith(("advisor", "extrapolate"))
        for alias in node.names
        if alias.name.endswith(("Controller", "Predictor", "Extrapolator"))
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in controllers):
            continue
        for keyword in node.keywords:
            value = keyword.value
            if isinstance(value, ast.UnaryOp):
                value = value.operand
            if isinstance(value, ast.Constant) and type(value.value) in (int, float):
                yield keyword.value.lineno


def _set_loops_that_accumulate(tree):
    """A ``for`` over a set whose body accumulates: the order is the
    per-process string hash, so a float sum differs from run to run."""
    import ast

    names = set()

    def is_set(node):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return getattr(node.func, "id", None) in ("set", "frozenset") or (
                getattr(node.func, "attr", None) in (
                    "union", "intersection", "difference",
                    "symmetric_difference",
                ) and is_set(node.func.value)
            )
        if isinstance(node, ast.BinOp):
            return isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ) and is_set(node.left) and is_set(node.right)
        return getattr(node, "id", None) in names

    grown = True
    while grown:  # a name bound to a set is a set, through any chain
        before = len(names)
        names.update(
            target.id for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and is_set(node.value)
            for target in node.targets if isinstance(target, ast.Name)
        )
        grown = len(names) > before
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and is_set(node.iter) and any(
            isinstance(inner, ast.AugAssign)
            or getattr(getattr(inner, "func", None), "attr", None)
            in ("append", "add", "update", "extend")
            for statement in node.body for inner in ast.walk(statement)
        ):
            yield node.lineno


#: pattern → (the module it skips, a source whose every line but an import
#: it flags, a source it passes)
_PATTERNS = {
    _module_mutable_state: (
        None, "cache = {}\nseen: list = []\n", "CACHE = {}\n__all__ = []\n",
    ),
    _raw_constants: (
        "constants.py",
        "OH_BOND = 0.9572 * 1.8897261246\nBOHR_M = 5.29177210903e-11\n"
        "KELVIN_PER_EV = 11604.5\n",
        "OH_BOND = 0.9572 * ANGSTROM_TO_BOHR\n",
    ),
    _controller_literals: (
        None,
        "from repro.core.advisor import BufferController\n"
        "c = BufferController(decay_length=3.0)\n",
        "from repro.core.advisor import BufferController\n"
        "c = BufferController(BufferControllerOptions(decay_length=3.0))\n",
    ),
    _set_loops_that_accumulate: (
        None,
        "for s in set(symbols): total += e[s]\n",
        "for s in sorted(set(symbols)): total += e[s]\n",
    ),
}


def test_source_tree_is_clean():
    """No module under ``src/repro`` has a line any of ``_PATTERNS``
    flags, and each pattern flags its bad input and passes its good one."""
    import ast

    for pattern, (_, bad, good) in _PATTERNS.items():
        lines = [n for n, line in enumerate(bad.splitlines(), 1)
                 if not line.startswith("from ")]
        assert sorted(set(pattern(ast.parse(bad)))) == lines, pattern.__name__
        assert list(pattern(ast.parse(good))) == [], pattern.__name__
    found = [
        (rel, line, pattern.__name__)
        for rel, tree in _trees()
        for pattern, (skip, _, _) in _PATTERNS.items() if rel != skip
        for line in pattern(tree)
    ]
    assert found == [], found


# -- the engine's import graph ------------------------------------------------

#: What ``import repro.core.ldc`` may add to the resident set of a process
#: that has imported NumPy: twice the measured 2.63 MB (3.45 MB while
#: ``repro.core`` still loaded the virtual machine and the drivers
#: ``repro.sanitize``; 37.5 MB with SciPy's compiled stack behind it).
ENGINE_IMPORT_MB = 5.3

#: packages an engine process has no business loading
_TOOLING = ("observability", "parallel", "perfmodel")

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
    and is only the engine: no observability, virtual-machine or
    cost-model module is loaded.  Importing it
    stays cheap: the next eager import of a compiled stack or of a tooling
    package fails here, not in a benchmark row."""
    import json
    import os
    import subprocess
    import sys

    # without whatever REPRO_* variable the surrounding job exported
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
