"""Command-line harness for the integral catalog.

Subcommands
-----------

* ``verify`` - evaluate catalog entries against their closed forms, row by
  row, and report Pass / Fail / Inconclusive rows (JSON, CSV, or text).
* ``check``  - run the integrability-condition check on the documented
  failure seeds (plus the admissible control seed).
* ``list``   - show catalog contents; ``--json`` output can be fed back
  to ``verify --config`` as a selection filter.

Exit codes: 0 all verified; 1 at least one Fail row; 2 at least one
Inconclusive row (and no Fail); 64 usage error (unknown id, bad
config, bad flag value).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import __version__, catalog, verify
from .errors import UnknownIdError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

_CONFIG_KEYS = {"entry", "group", "seed", "tol", "format", "out", "seeds"}
_FORMATS = ("text", "json", "csv")
_SWITCHES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class UsageError(Exception):
    pass


def _tolerance(text: str) -> float:
    """Parse a tolerance override: a finite number > 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number > 0, got {text!r}"
        )
    return tol


def _output_format(text: str) -> str:
    """Parse a report format: text, json or csv."""
    if text not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}, got {text!r}")
    return text


def _switch(text: str) -> bool:
    """Parse an on/off value: 1/0, true/false or yes/no, in any case."""
    try:
        return _SWITCHES[text.lower()]
    except KeyError:
        raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}") from None


def _config_value(cfg: dict, key: str, parse):
    """Parse ``cfg[key]`` with ``parse``; a bad value is a usage error."""
    try:
        return parse(cfg[key])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"config key {key!r}: {exc}")


def _read_config(path: str) -> dict:
    """Flat key=value config; also accepts the JSON emitted by list --json.

    ``entry`` and ``seed`` map to id lists.  A flat key with an empty
    value is unset; a JSON config always sets both lists, so an empty or
    absent ``entries`` or ``failures`` list selects nothing.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad JSON config {path!r}: {exc}")
        out = {}
        for section, key in (("entries", "entry"), ("failures", "seed")):
            items = doc.get(section, [])
            if not isinstance(items, list) or not all(
                isinstance(e, dict) and isinstance(e.get("id"), str) for e in items
            ):
                raise UsageError(f"bad JSON config {path!r}: each {section!r} item needs an 'id'")
            out[key] = [e["id"] for e in items]
        return out
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        value = value.strip()
        if key in ("entry", "seed"):
            value = [i.strip() for i in value.split(",") if i.strip()]
        if value:
            out[key] = value
    return out


def _select_entries(entry_ids, group) -> list:
    if entry_ids is not None:
        return [catalog.entry_by_id(i) for i in entry_ids]
    entries = catalog.all_entries()
    if group is not None:
        entries = [e for e in entries if e.group == group]
        if not entries:
            raise UsageError(f"no entries in group {group}")
    return entries


def _emit(text: str, out: Optional[str]):
    if out:
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write output {out!r}: {exc.strerror}")
        with fh:
            fh.write(text)
    else:
        try:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (`| head`); the rows are still
            # decided, so the command keeps its exit code, and stdout
            # goes to devnull so the interpreter's final flush stays quiet
            sys.stdout = open(os.devnull, "w")


def _exit_code(statuses) -> int:
    """1 if any row is a Fail, else 2 if any is Inconclusive, else 0."""
    statuses = set(statuses)
    if verify.FAIL in statuses:
        return EXIT_FAIL
    if verify.INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _read_config(args.config) if args.config else {}
    entry_ids = args.entry or cfg.get("entry")  # None: no selection
    group = args.group if args.group is not None else (
        _config_value(cfg, "group", int) if cfg.get("group") else None
    )
    tol = args.tol if args.tol is not None else (
        _config_value(cfg, "tol", _tolerance) if cfg.get("tol") else None
    )
    fmt = args.format or (
        _config_value(cfg, "format", _output_format) if cfg.get("format") else "text"
    )
    out = args.out or cfg.get("out")
    with_seeds = not args.no_seeds
    if cfg.get("seeds") and not _config_value(cfg, "seeds", _switch):
        with_seeds = False

    entries = _select_entries(entry_ids, group)
    if "seed" in cfg:
        failures = [catalog.failure_by_id(s) for s in cfg["seed"]]
    elif entry_ids is None and group is None and with_seeds:
        failures = catalog.all_failures()
    else:
        failures = []

    report = verify.run_all(entries, failures, tol=tol)

    if fmt == "json":
        _emit(report.to_json(), out)
    elif fmt == "csv":
        _emit(report.to_csv(), out)
    else:
        lines = []
        for r in report.rows:
            params = ", ".join(f"{k}={v:g}" for k, v in sorted(r.params.items()))
            lines.append(
                f"{r.status:12s} {r.entry_id:5s} [{params}] "
                f"rel_err={r.rel_err:.3e} tol={r.tolerance:.0e} "
                f"evals={r.evaluations}"
            )
        for r in report.failure_rows:
            lines.append(
                f"{r.status:12s} {r.seed_id:9s} expected={r.expected_endpoint} "
                f"got={r.failing_endpoint}"
            )
        counts = report.counts
        lines.append(
            f"summary: {counts['Pass']} Pass, {counts['Fail']} Fail, "
            f"{counts['Inconclusive']} Inconclusive "
            f"({report.wall_seconds:.1f} s)"
        )
        _emit("\n".join(lines), out)
    return _exit_code(r.status for r in report.rows + report.failure_rows)


def _cmd_check(args) -> int:
    if args.seed:
        seeds = [catalog.failure_by_id(s) for s in args.seed]
    else:
        seeds = catalog.all_failures()
    rows = [verify.verify_failure(s) for s in seeds]
    lines = []
    for r in rows:
        lines.append(
            f"{r.status:12s} {r.seed_id:9s} admissible={r.admissible} "
            f"endpoint={r.failing_endpoint} expected={r.expected_endpoint}"
        )
    from .hankel import check_condition

    control = check_condition(catalog.control_seed())
    control_status = verify.PASS if control.admissible else verify.FAIL
    lines.append(
        f"{control_status:12s} control   "
        f"admissible={control.admissible} (exp(-x))"
    )
    if args.json:
        doc = {
            "schema_version": verify.SCHEMA_VERSION,
            "kind": "condition_report",
            "rows": [r.as_dict() for r in rows],
            "control_admissible": control.admissible,
        }
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return _exit_code([r.status for r in rows] + [control_status])


def _cmd_list(args) -> int:
    meta = catalog.catalog_metadata()
    if args.group is not None:
        meta["entries"] = [e for e in meta["entries"] if e["group"] == args.group]
        if not meta["entries"]:
            raise UsageError(f"no entries in group {args.group}")
        meta["failures"] = []
    if args.json:
        _emit(json.dumps(meta, indent=2), args.out)
        return EXIT_OK
    lines = []
    for e in meta["entries"]:
        lines.append(
            f"{e['id']:5s} group {e['group']}  {e['tol_class']:12s} "
            f"[{e['provenance']}]  {e['description']}"
        )
    if meta["failures"]:
        lines.append("")
        for s in meta["failures"]:
            lines.append(
                f"{s['id']:9s} fails at {s['expected_endpoint']:9s} "
                f"[{s['provenance']}]  {s['description']}"
            )
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankel-dual",
        description="Verify dual definite integrals for Bessel functions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify catalog entries")
    p_verify.add_argument("--entry", action="append", metavar="ID",
                          help="verify only this entry (repeatable)")
    p_verify.add_argument("--group", type=int, help="verify only this group")
    p_verify.add_argument("--tol", type=_tolerance,
                          help="override the per-class tolerance (finite, > 0)")
    p_verify.add_argument("--format", choices=_FORMATS)
    p_verify.add_argument("--out", metavar="PATH", help="write output to a file")
    p_verify.add_argument("--config", metavar="PATH",
                          help="flat key=value config, or JSON from 'list --json'")
    p_verify.add_argument("--no-seeds", action="store_true",
                          help="skip the failure-seed condition checks")
    p_verify.set_defaults(func=_cmd_verify)

    p_check = sub.add_parser("check", help="check the integrability condition")
    p_check.add_argument("--seed", action="append", metavar="ID",
                         help="check only this seed (repeatable)")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--out", metavar="PATH")
    p_check.set_defaults(func=_cmd_check)

    p_list = sub.add_parser("list", help="list catalog contents")
    p_list.add_argument("--group", type=int)
    p_list.add_argument("--json", action="store_true")
    p_list.add_argument("--out", metavar="PATH")
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; normalize to 64 unless it
        # was --help/--version (exit 0)
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, UnknownIdError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"hankel-dual: error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
