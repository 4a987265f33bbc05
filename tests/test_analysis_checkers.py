"""Per-rule detection tests against the known-bad fixtures, plus engine
edge cases: suppression comments, rule selection, and parse-error
handling."""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import run_paths, unsuppressed
from repro.analysis.engine import PARSE_ERROR_RULE, FileContext

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "analysis"


def rules_in(path) -> list[str]:
    return [f.rule for f in unsuppressed(run_paths([path]))]


def lint(tmp_path, source, name="inline.py"):
    """Every finding of the full suite on ``source`` saved as ``name``."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_paths([path])


@pytest.mark.parametrize("rule", ["RP001", "RP002", "RP003", "RP004",
                                  "RP006", "RP008"])
def test_each_rule_detects_its_bad_fixture(rule):
    found = rules_in(FIXTURES / f"bad_{rule.lower()}.py")
    assert rule in found, f"{rule} missed its own fixture (found: {found})"


def test_rp001_flags_both_patterns():
    findings = unsuppressed(run_paths([FIXTURES / "bad_rp001.py"]))
    messages = " | ".join(f.message for f in findings)
    assert "without explicit dtype=" in messages
    assert "integer-dtype array" in messages


def test_rp002_flags_augassign_and_subscript_store():
    findings = unsuppressed(run_paths([FIXTURES / "bad_rp002.py"]))
    assert len(findings) == 3  # rho /= ..., field[:w] = 0, field[-w:] = 0
    assert {f.rule for f in findings} == {"RP002"}


def test_rp003_flags_default_and_module_state():
    findings = unsuppressed(run_paths([FIXTURES / "bad_rp003.py"]))
    messages = " | ".join(f.message for f in findings)
    assert "mutable default argument" in messages
    assert "module-level mutable state" in messages
    assert len([f for f in findings if f.rule == "RP003"]) == 3


def test_rp006_flags_span_and_offregistry_instrument():
    findings = unsuppressed(run_paths([FIXTURES / "bad_rp006.py"]))
    messages = " | ".join(f.message for f in findings)
    assert "outside a with-statement" in messages
    assert "constructed directly" in messages


def test_rp006_flags_health_hygiene_violations():
    findings = [
        f for f in unsuppressed(run_paths([FIXTURES / "bad_rp006.py"]))
        if f.rule == "RP006"
    ]
    messages = " | ".join(f.message for f in findings)
    # an Invariant built outside HealthMonitor(...)/.add(...) never runs
    assert "never registered" in messages
    # a numeric-literal warn= at the call site bypasses HealthThresholds
    assert "hard-coded" in messages and "HealthThresholds" in messages
    # the registered-with-literal call is flagged for the literal only,
    # not as unregistered: 4 findings total (span, counter, 2 health)
    assert len(findings) == 4


def test_rp006_flags_controller_threshold_literals():
    findings = [
        f for f in unsuppressed(
            run_paths([FIXTURES / "bad_rp006_controller.py"])
        )
        if f.rule == "RP006"
    ]
    # the two numeric-literal keywords on BufferController(...) — the
    # BufferControllerOptions(...) construction is sanctioned and silent
    assert len(findings) == 2
    assert all("hard-coded" in f.message for f in findings)
    assert all("BufferControllerOptions" in f.message for f in findings)


def test_rp006_accepts_registered_invariants(tmp_path):
    good = tmp_path / "good_health.py"
    good.write_text(
        "from repro.observability.health import (\n"
        "    ChargeConservationInvariant,\n"
        "    EnergyDriftInvariant,\n"
        "    HealthMonitor,\n"
        "    HealthThresholds,\n"
        ")\n"
        "\n"
        "\n"
        "def build(thr: HealthThresholds):\n"
        "    monitor = HealthMonitor(invariants=[EnergyDriftInvariant(thr)])\n"
        "    monitor.add(ChargeConservationInvariant(thresholds=thr))\n"
        "    return monitor\n"
        "\n"
        "\n"
        "def factory(thr):\n"
        "    return EnergyDriftInvariant(thr)\n"
    )
    assert not [f for f in run_paths([good]) if f.rule == "RP006"]


def test_rp006_flags_direct_telemetry_writes():
    findings = [
        f for f in unsuppressed(
            run_paths([FIXTURES / "bad_rp006_telemetry.py"])
        )
        if f.rule == "RP006"
    ]
    # write-mode open, append-mode open, write_text — the read-mode
    # open at the bottom of the fixture must not be flagged
    assert len(findings) == 3
    assert all("written directly" in f.message for f in findings)
    assert all("Instrumentation.write_artifacts" in f.message for f in findings)


def test_rp006_telemetry_writes_exempt_inside_observability(tmp_path):
    src = (
        '"""sink"""\n'
        "import json\n"
        "def write(path, payload):\n"
        "    with open('telemetry/trace.json', 'w') as fh:\n"
        "        json.dump(payload, fh)\n"
    )
    findings = [
        f for f in unsuppressed(
            lint(tmp_path, src, "src/repro/observability/flightrec.py")
        )
        if f.rule == "RP006"
    ]
    assert findings == []


def test_suppression_comments_silence_without_hiding():
    findings = run_paths([FIXTURES / "suppressed.py"])
    assert findings, "fixture should still produce (suppressed) findings"
    assert not unsuppressed(findings)
    assert all(f.suppressed for f in findings)
    # rule-scoped and blanket forms both present in the fixture
    assert {f.rule for f in findings} == {"RP002", "RP003", "RP004"}


def test_suppression_is_rule_scoped(tmp_path):
    src = (
        '"""f"""\n'
        "def f(rho, dv):\n"
        "    rho /= dv  # repro: noqa[RP004] wrong rule id\n"
        "    return rho\n"
    )
    findings = lint(tmp_path, src)
    assert [f.rule for f in unsuppressed(findings)] == ["RP002"]


def test_select_and_ignore_filter_rules():
    only_002 = run_paths([FIXTURES], select=["RP002"])
    assert {f.rule for f in only_002} == {"RP002"}
    no_002 = run_paths([FIXTURES], ignore=["RP002"])
    assert no_002 and "RP002" not in {f.rule for f in no_002}


def test_parse_error_becomes_rp000_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    findings = run_paths([broken])
    assert [f.rule for f in findings] == [PARSE_ERROR_RULE]


def test_scalar_annotated_augassign_is_not_mutation(tmp_path):
    src = (
        '"""m"""\n'
        "def next_even(n: int) -> int:\n"
        "    n += n % 2\n"
        "    return n\n"
    )
    assert not lint(tmp_path, src)


def test_out_parameter_contract_is_honoured(tmp_path):
    src = (
        '"""m"""\n'
        "def scale(out, factor):\n"
        "    out *= factor\n"
    )
    assert not lint(tmp_path, src)


def test_rp002_flags_mutation_through_view_alias(tmp_path):
    src = (
        '"""m"""\n'
        "def head_zero(block, n):\n"
        '    """Zero the first n rows."""\n'
        "    head = block[:n]\n"
        "    head[...] = 0.0\n"
        "    return block\n"
    )
    findings = unsuppressed(lint(tmp_path, src))
    assert [f.rule for f in findings] == ["RP002"]
    assert "through view alias 'head'" in findings[0].message
    assert "'block'" in findings[0].message


def test_rp002_view_alias_augassign_and_method(tmp_path):
    src = (
        '"""m"""\n'
        "def spectrum(coeffs, scale):\n"
        '    """Scale and order the coefficient block."""\n'
        "    flat = coeffs.reshape(-1)\n"
        "    flat *= scale\n"
        "    flat.sort()\n"
        "    return coeffs\n"
    )
    findings = unsuppressed(lint(tmp_path, src))
    assert [f.rule for f in findings] == ["RP002", "RP002"]
    assert all("view alias 'flat'" in f.message for f in findings)


def test_rp002_rebound_alias_is_not_tracked(tmp_path):
    # `tail` is bound twice: the second binding detaches it from the view,
    # so mutating it afterwards is not a caller-visible write
    src = (
        '"""m"""\n'
        "def f(block, n):\n"
        '    """Compute a reduced tail."""\n'
        "    tail = block[n:]\n"
        "    tail = tail - tail.mean()\n"
        "    tail[...] = 0.0\n"
        "    return tail\n"
    )
    assert not lint(tmp_path, src)


def test_rp002_accumulates_docstring_is_a_contract(tmp_path):
    src = (
        '"""m"""\n'
        "def apply(out_like, psi):\n"
        '    """Accumulates the result into psi in stages."""\n'
        "    psi += out_like\n"
        "    return psi\n"
    )
    assert not lint(tmp_path, src)


def test_finding_anchor_carries_position(tmp_path):
    ctx = FileContext.from_source("x.py", '"""d"""\nseen = []\n')
    findings = lint(tmp_path, '"""d"""\nseen = []\n', "x.py")
    assert findings[0].line == 2
    assert findings[0].path == str(tmp_path / "x.py")
    assert ctx.noqa == {}
