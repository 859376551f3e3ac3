"""CLI tests: exit codes and output formats through ``cli.main`` in-process,
and real subprocesses where the process itself is the subject (``python -m``,
the modules a fresh import loads)."""

import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

from hankel_dual import cli, verify

CMD = [sys.executable, "-m", "hankel_dual.cli"]
# the child imports the package these tests imported, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, ENV.get("PYTHONPATH")]))


def run_module(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=300, env=ENV)


@pytest.fixture
def run_cli(capsys):
    """``cli.main(argv)`` with captured output, shaped like a finished process."""
    def run(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), code, out, err)
    return run


def test_help_exits_zero(run_cli):
    assert run_cli("--help").returncode == 0
    assert run_cli("verify", "--help").returncode == 0


def test_version_exits_zero():
    # the one run of the real entry point, ``python -m hankel_dual.cli``
    proc = run_module("--version")
    assert proc.returncode == 0


def test_no_subcommand_is_usage_error(run_cli):
    assert run_cli().returncode == cli.EXIT_USAGE


def test_list_text(run_cli):
    proc = run_cli("list")
    assert proc.returncode == 0
    assert "T01" in proc.stdout
    assert "S6512_1a" in proc.stdout


def test_list_json_schema(run_cli):
    proc = run_cli("list", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["entries"]) == 40
    assert len(doc["failures"]) == 16


def test_list_group_filter(run_cli):
    proc = run_cli("list", "--group", "6")
    assert proc.returncode == 0
    assert "T28a" in proc.stdout
    assert "T01" not in proc.stdout
    assert run_cli("list", "--group", "99").returncode == cli.EXIT_USAGE


def test_verify_selected_entries_pass(run_cli):
    proc = run_cli("verify", "--entry", "T03", "--entry", "T24")
    assert proc.returncode == cli.EXIT_OK, proc.stdout + proc.stderr
    assert "summary:" in proc.stdout
    assert "0 Fail" in proc.stdout


def test_verify_unknown_entry_is_usage_error(run_cli):
    proc = run_cli("verify", "--entry", "T99")
    assert proc.returncode == cli.EXIT_USAGE
    assert "T99" in proc.stderr


def test_verify_bad_flag_value_is_usage_error(run_cli):
    assert run_cli("verify", "--group", "x").returncode == cli.EXIT_USAGE


def test_verify_unachievable_tolerance_exits_inconclusive(run_cli):
    proc = run_cli("verify", "--entry", "T04", "--tol", "1e-17")
    assert proc.returncode == cli.EXIT_INCONCLUSIVE


def test_verify_json_output(tmp_path, run_cli):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--entry", "T02a", "--format", "json", "--out", str(out))
    assert proc.returncode == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["kind"] == "verification_report"
    assert all(r["status"] == "Pass" for r in doc["rows"])


def test_verify_csv_output(run_cli):
    proc = run_cli("verify", "--entry", "T02a", "--format", "csv")
    assert proc.returncode == cli.EXIT_OK
    header = proc.stdout.splitlines()[0]
    assert header.startswith("row_kind,id,grid_index,params,status")


def test_flat_config(tmp_path, run_cli):
    cfg = tmp_path / "run.cfg"
    # blanks around an id are not part of it
    for ids in ("T03,T21", "T03, T21"):
        cfg.write_text(f"# comment\nentry={ids}\nformat=csv\ntol=1e-5\n")
        proc = run_cli("verify", "--config", str(cfg))
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        body = proc.stdout.splitlines()[1:]
        assert {line.split(",")[1] for line in body if line} == {"T03", "T21"}


def test_flat_config_bad_key(tmp_path, run_cli):
    cfg = tmp_path / "run.cfg"
    # rows always run serially, so `jobs` is not a key
    for line in ("entries=T03", "jobs=2"):
        cfg.write_text(line + "\n")
        proc = run_cli("verify", "--config", str(cfg))
        assert proc.returncode == cli.EXIT_USAGE
        assert "unknown config key" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


def _record_run_all(monkeypatch):
    """Replace ``verify.run_all`` with one that runs no row and records the
    failure seeds it was given."""
    calls = []

    def run_all(entries, failures, tol=None):
        calls.append(failures)
        return verify.Report((), (), tol, 0.0)

    monkeypatch.setattr(verify, "run_all", run_all)
    return calls


@pytest.mark.parametrize(
    "line",
    ["tol=abc", "jobs=x", "group=x", "tol=0", "tol=nan", "jobs=0", "format=xml", "seeds=maybe"],
)
def test_flat_config_bad_value_is_usage_error(tmp_path, capsys, monkeypatch, line):
    calls = _record_run_all(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("entry=T01\n" + line + "\n")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_USAGE
    assert "config key" in capsys.readouterr().err
    assert calls == []  # rejected before any row runs


@pytest.mark.parametrize(
    "value,with_seeds",
    [("1", True), ("true", True), ("yes", True), ("0", False), ("false", False),
     ("no", False), ("No", False)],
)
def test_flat_config_seeds_switch(tmp_path, monkeypatch, capsys, value, with_seeds):
    calls = _record_run_all(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seeds={value}\n")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_OK
    assert [bool(failures) for failures in calls] == [with_seeds]


@pytest.mark.parametrize(
    "flag,value",
    [("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
     ("--jobs", "2")],
)
def test_verify_meaningless_tol_or_jobs_is_usage_error(flag, value):
    assert cli.main(["verify", "--entry", "T01", flag, value]) == cli.EXIT_USAGE


def test_missing_config_is_usage_error(run_cli):
    assert run_cli("verify", "--config", "/no/such/file").returncode == cli.EXIT_USAGE


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"entry=T01\n\xff\xfe\n")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("hankel-dual: error: cannot read config")
    assert len(err.strip().splitlines()) == 1


def test_json_config_roundtrip(tmp_path, run_cli):
    listed = run_cli("list", "--json")
    doc = json.loads(listed.stdout)
    doc["entries"] = [e for e in doc["entries"] if e["id"] in ("T03", "T23")]
    doc["failures"] = [s for s in doc["failures"] if s["id"] == "S6514_1"]
    cfg = tmp_path / "sel.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli("verify", "--config", str(cfg), "--format", "json")
    assert proc.returncode == cli.EXIT_OK
    report = json.loads(proc.stdout)
    assert {r["entry_id"] for r in report["rows"]} == {"T03", "T23"}
    assert [r["seed_id"] for r in report["failure_rows"]] == ["S6514_1"]
    # an empty id list selects nothing, as a list of ids selects those ids
    doc["entries"] = []
    cfg.write_text(json.dumps(doc))
    proc = run_cli("verify", "--config", str(cfg), "--format", "json")
    assert proc.returncode == cli.EXIT_OK
    report = json.loads(proc.stdout)
    assert report["rows"] == []
    assert [r["seed_id"] for r in report["failure_rows"]] == ["S6514_1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--entry", "T01", "--out", "{tmp}/missing/x.json"],
        ["verify", "--entry", "T01", "--out", "{tmp}"],
        ["list", "--out", "{tmp}/missing/y.json"],
    ],
    ids=["verify-missing-dir", "verify-out-is-dir", "list-missing-dir"],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("hankel-dual: error: cannot write output")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "doc",
    [{"entries": [{"name": "x"}]}, {"entries": 5}],
    ids=["entry-without-id", "entries-not-a-list"],
)
def test_malformed_json_config_is_usage_error(tmp_path, capsys, doc):
    cfg = tmp_path / "sel.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("hankel-dual: error: bad JSON config")
    assert len(err.strip().splitlines()) == 1


def test_check_single_seed(run_cli):
    proc = run_cli("check", "--seed", "S6512_1a")
    assert proc.returncode == cli.EXIT_OK
    assert "S6512_1a" in proc.stdout
    assert "control" in proc.stdout  # admissible control row always present


def test_check_unknown_seed(run_cli):
    assert run_cli("check", "--seed", "nope").returncode == cli.EXIT_USAGE


def test_fail_exit_code_with_corrupted_fixture(monkeypatch, capsys):
    # corrupt one closed form in-process to exercise the Fail exit path
    from hankel_dual import catalog

    real = catalog.entry_by_id("T02a")
    rhs = real.rhs
    broken = dataclasses.replace(real, rhs=lambda P: 1.01 * float(rhs(P)))
    monkeypatch.setattr(cli.catalog, "entry_by_id", lambda _id: broken)
    code = cli.main(["verify", "--entry", "T02a", "--tol", "1e-3"])
    assert code == cli.EXIT_FAIL
    out = capsys.readouterr().out
    assert "Fail" in out


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_exit_code(monkeypatch, capsys):
    # `verify ... | head -1`: the reader goes away, every row still passed
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["verify", "--entry", "T01", "--format", "json"])
    assert code == cli.EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_import_skips_optimize_and_mpmath():
    # mpmath is a test oracle only: with it made unimportable, `verify` on
    # the whole catalog and corpus and `check` still run and pass; rows run
    # serially, so neither the import nor `verify` starts a thread pool
    code = (
        "import contextlib, io, sys, hankel_dual.cli as cli\n"
        "pool = 'concurrent.futures.thread'\n"
        "print([m for m in ('scipy.optimize', 'mpmath', pool) if m in sys.modules])\n"
        "sys.modules['mpmath'] = None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify'])]\n"
        "    codes.append(pool in sys.modules)\n"
        "    codes.append(cli.main(['check']))\n"
        "print(codes)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, False, 0]"]
