"""Smoke test of the evidence kit, tools/evidence.py."""

import copy
import importlib.util
import json
import time
from pathlib import Path

import hankel_dual.cli  # noqa: F401  (imported here, so the timed dump does not import scipy)

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("evidence", ROOT / "tools" / "evidence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_two_entries_and_one_seed_then_diff(tmp_path, capsys):
    # two entries at every rung, one failure seed, and the first three
    # points (the Gaussian's) of round-trip seed 0; the full dump runs the
    # same code over the whole catalog and seeds 0-22
    ev = _tool()
    out = tmp_path / "a.json"
    t0 = time.process_time()
    doc = ev.dump(ROOT / "src", out, entry_ids=("T04", "T05"), failure_ids=("S6512_1a",),
                  seeds=(0,), points=3)
    assert time.process_time() - t0 < 0.5

    sections = doc["sections"]
    assert list(sections) == (
        ["verify@default"] + [f"verify@{t:.0e}" for t in ev.RUNGS]
        + ["failures", "cli", "roundtrip@0"]
    )
    assert list(sections["verify@default"]) == [f"T0{e}[{i}]" for e in (4, 5) for i in range(3)]
    row = sections["verify@1e-12"]["T05[2]"]
    assert row["status"] == "Pass" and repr(float(row["lhs"])) == row["lhs"]
    assert list(sections["failures"]) == ["S6512_1a"]
    cli = sections["cli"]
    assert cli["verify --entry T04 --entry T05"]["exit"] == 0
    assert "wall_seconds" not in cli["verify --entry T04 --entry T05 --format json"]["stdout"]
    assert len(sections["roundtrip@0"]) == 3
    assert doc["roundtrip_failing"] == {"0": []}
    assert json.loads(out.read_text())["sections"] == sections

    b = tmp_path / "b.json"
    b.write_text(out.read_text())
    assert ev.main(["diff", str(out), str(b)]) == 0
    assert capsys.readouterr().out.strip().endswith("identical")

    moved = copy.deepcopy(doc)
    moved["sections"]["verify@1e-15"]["T04[1]"]["lhs"] = "0.5"
    moved["roundtrip_failing"]["0"] = ["#2 gaussian@r=2"]
    lines, same = ev.diff(doc, moved)
    assert not same
    assert "verify@1e-15: 1 of 6 rows moved" in lines
    assert any(line.startswith("    T04[1]: ") and '-> {"lhs": "0.5"' in line for line in lines)
    assert "verify@1e-14: identical (6 rows)" in lines
    assert any("seed 0: 0 / 1 failing" in line for line in lines)
