"""Tier-1 validation of the committed BENCH ledger: every benchmark schema
declared in benchmarks/_schemas.py has a committed baseline payload under
benchmarks/baselines/, each payload carries the v2 envelope (schema_version,
meta, embedded schema), and its records validate against the schema the
current code declares.  The paper artifacts folded into the claims record
are checked one by one on their rows of that baseline.  This is what lets the regress CLI gate CI without
re-running every benchmark."""

import json
import pathlib
import sys

import pytest

from repro.observability.regress import SCHEMA_VERSION, RecordSchema

REPO = pathlib.Path(__file__).resolve().parents[1]
BASELINES = REPO / "benchmarks" / "baselines"


def _schemas():
    sys.path.insert(0, str(REPO / "benchmarks"))
    try:
        from _schemas import SCHEMAS
    finally:
        sys.path.pop(0)
    return SCHEMAS


SCHEMAS = _schemas()


def _baseline(name):
    return json.loads((BASELINES / f"BENCH_{name}.json").read_text())


def test_every_declared_schema_has_a_committed_baseline():
    committed = {p.name[len("BENCH_"):-len(".json")]
                 for p in BASELINES.glob("BENCH_*.json")}
    assert set(SCHEMAS) == committed, (
        f"declared-but-uncommitted: {set(SCHEMAS) - committed}; "
        f"committed-but-undeclared: {committed - set(SCHEMAS)}"
    )


# The paper artifacts whose records are rows of the one claims baseline
# (keyed by their `artifact` field) rather than baselines of their own.
CLAIMS_ARTIFACTS = (
    "fig5_weak_scaling", "fig6_strong_scaling", "fig9a_arrhenius",
    "fig9b_size_scaling", "sec42_collective_io", "sec52_crossover",
    "sec52_time_to_solution", "sec54_portability", "sec6_production",
    "table1_threading", "table2_rack_flops",
)


@pytest.mark.parametrize("name", sorted((*SCHEMAS, *CLAIMS_ARTIFACTS)))
def test_baseline_payload_envelope_and_records(name):
    bench = "claims" if name in CLAIMS_ARTIFACTS else name
    payload = _baseline(bench)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["bench"] == bench
    assert set(payload["meta"]) == {"git_sha", "timestamp", "python", "numpy"}
    records = payload["records"]
    if name in CLAIMS_ARTIFACTS:
        records = [r for r in records if r["artifact"] == name]
    assert records, f"{name}: baseline has no records"

    # the embedded schema round-trips and matches the current declaration
    embedded = RecordSchema.from_dict(payload["schema"])
    declared = SCHEMAS[bench]
    assert embedded == declared, (
        f"{name}: committed baseline's schema is stale — regenerate with "
        f"`python -m repro.observability.regress --update`"
    )
    # and the committed records are valid under the *current* schema
    assert declared.validate(records) == []


def test_the_claims_record_holds_exactly_its_artifacts():
    artifacts = {r["artifact"] for r in _baseline("claims")["records"]}
    assert artifacts == set(CLAIMS_ARTIFACTS)


def test_schema_benches_match_their_keys():
    for name, schema in SCHEMAS.items():
        assert schema.bench == name, f"{name}: schema.bench {schema.bench!r}"


def test_regress_cli_is_clean_against_committed_results():
    """The acceptance pin: fresh results committed alongside the baselines
    diff clean (exit 0).  Skipped when benchmarks/results has not been
    populated in this checkout."""
    results = REPO / "benchmarks" / "results"
    if not any(results.glob("BENCH_*.json")):
        pytest.skip("no fresh benchmark results in this checkout")
    from repro.observability.regress import main

    assert main(["--results", str(results),
                 "--baselines", str(BASELINES)]) == 0


def _shown(cell):
    """A README number and half a unit of its last shown digit."""
    text = cell.replace(",", "")
    mantissa, _, exponent = text.partition("e")
    decimals = len(mantissa.partition(".")[2])
    return float(text), 0.5 * 10.0 ** (int(exponent or 0) - decimals)


def test_readme_results_rows_match_the_claims_record():
    """Every row of README's results table names a row of the committed
    claims record, shows its value and its paper number to the digits
    shown, and carries its provenance label."""
    import re

    readme = (REPO / "README.md").read_text()
    section = readme.split("## Reproduced results at a glance")[1]
    section = section.split("\n## ")[0]
    table = [line for line in section.splitlines() if line.startswith("| ")]
    header, rows = table[0], table[1:]
    assert [c.strip() for c in header.strip("|").split("|")] == [
        "paper artifact", "claims row", "paper", "this repo", "source"]
    payload = _baseline("claims")
    schema = RecordSchema.from_dict(payload["schema"])
    record = {schema.row_key(r): r for r in payload["records"]}
    assert len(rows) >= 11
    for line in rows:
        _, key_cell, paper, repo, label = (
            c.strip() for c in line.strip("|").split("|"))
        key = "|".join(re.findall(r"`([^`]+)`", key_cell))
        assert key in record, f"README row names no claims row: {line}"
        row = record[key]
        assert label == row["label"], key
        value, half_digit = _shown(repo)
        assert abs(value - row["value"]) <= half_digit, (key, repo)
        if row["paper"] is None:
            assert paper == "—", key
        else:
            value, half_digit = _shown(paper)
            assert abs(value - row["paper"]) <= half_digit, (key, paper)
