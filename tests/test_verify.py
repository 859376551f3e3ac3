"""Unit tests for the verification harness."""

import csv
import dataclasses
import io
import json

import pytest

from hankel_dual import catalog, verify
from hankel_dual.hankel import SeedFunction


def corrupted(entry):
    """Copy of an entry whose closed form is scaled by 1.01."""
    rhs = entry.rhs
    return dataclasses.replace(entry, rhs=lambda P: 1.01 * float(rhs(P)))


def test_verify_entry_passes():
    rows = verify.verify_entry(catalog.entry_by_id("T02a"))
    assert len(rows) >= 3
    for r in rows:
        assert r.status == verify.PASS
        assert r.rel_err <= r.tolerance
        assert r.evaluations > 0


def test_verify_entry_deterministic():
    e = catalog.entry_by_id("T03")
    assert verify.verify_entry(e) == verify.verify_entry(e)


def test_corrupted_rhs_yields_fail_rows():
    rows = verify.verify_entry(corrupted(catalog.entry_by_id("T02a")), tol=1e-3)
    assert rows
    for r in rows:
        assert r.status == verify.FAIL
        assert r.rel_err > r.tolerance


def test_unachievable_tolerance_is_inconclusive_not_fail():
    rows = verify.verify_entry(catalog.entry_by_id("T04"), tol=1e-17)
    assert rows
    for r in rows:
        assert r.status == verify.INCONCLUSIVE


def test_verify_failure_rows():
    row = verify.verify_failure(catalog.failure_by_id("S6512_1a"))
    assert row.status == verify.PASS
    assert row.admissible is False
    assert row.failing_endpoint == row.expected_endpoint == "Infinity"


def test_parallel_matches_serial():
    # the whole catalog and failure corpus: the threads share quad and the
    # Bessel-zero tables, and no row may depend on which thread ran it
    serial = verify.run_all(jobs=1)
    parallel = verify.run_all(jobs=4)
    assert serial.rows == parallel.rows
    assert serial.failure_rows == parallel.failure_rows
    untimed = [json.loads(r.to_json()) for r in (serial, parallel)]
    for doc in untimed:
        del doc["wall_seconds"]
    assert untimed[0] == untimed[1]


def test_rows_in_catalog_document_order():
    entries = [catalog.entry_by_id(i) for i in ("T21", "T02a", "T04")]
    report = verify.run_all(entries, [], jobs=2)
    seen = [r.entry_id for r in report.rows]
    assert seen == sorted(seen, key=lambda i: (int(i[1:3]), i[3:]))


def test_report_counts_and_exit_state():
    entries = [catalog.entry_by_id("T02a")]
    report = verify.run_all(entries, [])
    counts = report.counts
    assert counts[verify.PASS] == len(report.rows)
    assert counts[verify.FAIL] == 0
    assert report.all_passed


ENTRY_KEYS = {
    "entry_id", "grid_index", "params", "status", "lhs", "rhs",
    "rel_err", "quad_abs_err", "tolerance", "evaluations",
    "tol_class", "provenance",
}
FAILURE_KEYS = {
    "seed_id", "status", "admissible", "failing_endpoint", "expected_endpoint",
    "zero_exponent", "inf_exponent", "provenance",
}
CSV_HEADER = [
    "row_kind", "id", "grid_index", "params", "status", "lhs", "rhs",
    "rel_err", "quad_abs_err", "tolerance", "evaluations",
    "tol_class", "expected_endpoint", "failing_endpoint", "provenance",
]


def schema_report():
    """T02a's rows, a Pass failure row and an Inconclusive one."""
    # x^-1.5 at zero sits on the condition's threshold, and nothing is
    # declared, so the estimated exponent decides nothing
    edge = catalog.FailureSeed(
        id="X_edge",
        provenance="test",
        description="x^-1.5",
        expected_endpoint="Zero",
        seed=SeedFunction(lambda x: x ** -1.5),
    )
    return verify.run_all(
        [catalog.entry_by_id("T02a")], [catalog.failure_by_id("S6512_1a"), edge]
    )


def test_json_schema():
    doc = json.loads(schema_report().to_json())
    assert doc["schema_version"] == verify.SCHEMA_VERSION
    assert doc["kind"] == "verification_report"
    assert set(doc["summary"]) == {"Pass", "Fail", "Inconclusive"}
    assert set(doc["rows"][0]) == ENTRY_KEYS
    assert [r["status"] for r in doc["failure_rows"]] == ["Pass", "Inconclusive"]
    for row in doc["failure_rows"]:
        assert set(row) == FAILURE_KEYS
    assert doc["failure_rows"][1]["failing_endpoint"] is None


def test_csv_schema():
    rows = list(csv.reader(io.StringIO(schema_report().to_csv())))
    assert rows[0] == CSV_HEADER
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"entry", "failure_seed"}
    for r in rows[1:]:
        assert len(r) == len(CSV_HEADER)
        if r[0] == "entry":
            float(r[5])  # lhs parses as a plain float
            float(r[7])  # rel_err too
            assert r[4] == "Pass"
    edge = dict(zip(CSV_HEADER, rows[-1]))
    assert (edge["id"], edge["status"]) == ("X_edge", "Inconclusive")
    assert edge["failing_endpoint"] == ""
    assert edge["expected_endpoint"] == "Zero"


def test_tolerance_override_recorded():
    report = verify.run_all([catalog.entry_by_id("T02a")], [], tol=1e-6)
    assert report.tolerance_override == 1e-6
    assert all(r.tolerance == 1e-6 for r in report.rows)


def test_default_run_covers_whole_catalog():
    # selection defaults: no arguments -> all entries and all seeds
    import inspect

    sig = inspect.signature(verify.run_all)
    assert sig.parameters["entries"].default is None
    assert sig.parameters["failures"].default is None
