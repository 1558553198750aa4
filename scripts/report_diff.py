#!/usr/bin/env python3
"""Say which records differ between two `ebcv verify --format json` reports,
or between two directories of them such as `scripts/report_matrix.py` writes.

    python scripts/report_diff.py BEFORE AFTER

Prints one line per record that differs in any field: the report's file
name (for two directories), the check id, both statuses, both
``max_residual`` values and the names of the other fields that differ
(``witness``, ``details``, ``printed``, ``oracle``, ``reference``), if
any.  Then one line per ``summary`` key that differs, with both values as
JSON; ``elapsed`` is skipped, as it changes between runs.  A record, a
summary key or a report file found on one side only is a line too, with
``absent`` for its missing side.  A file that is
not a verify report, such as ``tests/data/integrate_contract.json`` beside
the reports of ``tests/data/``, is compared byte for byte and listed as
``differs`` when it does.  Exits 1 when a check id, a status, a summary key
or such a file differs, and 0 when every difference keeps them: a record
whose residual or witness moved, or a summary value that moved, is listed
but does not fail.
"""

import argparse
import json
import pathlib
import sys


def _report(path: pathlib.Path) -> dict | None:
    """The report, or None for a file that is not a verify report."""
    try:
        report = json.loads(path.read_bytes())
    except ValueError:  # not JSON, or not text
        return None
    if not isinstance(report, dict) or "checks" not in report:
        return None
    return report


def _keys(before: dict, after: dict) -> list:
    """The keys of before, then those of after alone, in their order."""
    return list(before) + [k for k in after if k not in before]


def _diff(before: dict, after: dict, prefix: str) -> tuple[list, bool]:
    """The lines for the records and summary keys that differ, and whether
    an id, a status or a summary key did."""
    records = [{rec["id"]: rec for rec in report["checks"]}
               for report in (before, after)]
    lines, moved = [], False
    for cid in _keys(*records):
        old, new = records[0].get(cid), records[1].get(cid)
        if old == new:
            continue
        status = [r["status"] if r else "absent" for r in (old, new)]
        residual = [repr(r["max_residual"]) if r else "-" for r in (old, new)]
        moved = moved or old is None or new is None or status[0] != status[1]
        others = [] if None in (old, new) else sorted(
            k for k in set(old) | set(new)
            if k not in ("id", "status", "max_residual")
            and old.get(k) != new.get(k))
        lines.append(f"{prefix}{cid}: {status[0]} -> {status[1]}; "
                     f"max_residual {residual[0]} -> {residual[1]}"
                     + (f"; moved: {', '.join(others)}" if others else ""))
    summaries = [report.get("summary", {}) for report in (before, after)]
    for key in _keys(*summaries):
        old, new = (json.dumps(s[key], sort_keys=True) if key in s else "absent"
                    for s in summaries)
        if key == "elapsed" or old == new:
            continue
        moved = moved or "absent" in (old, new)
        lines.append(f"{prefix}summary.{key}: {old} -> {new}")
    return lines, moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("before", type=pathlib.Path)
    parser.add_argument("after", type=pathlib.Path)
    args = parser.parse_args(argv)
    before, after = args.before, args.after
    if before.is_dir() and after.is_dir():
        pairs = [(before / name, after / name, f"{name}: ") for name in sorted(
            {p.name for p in before.iterdir()} | {p.name for p in after.iterdir()})]
    elif before.is_file() and after.is_file():
        pairs = [(before, after, "")]
    else:
        parser.error(f"{before} and {after} must be two report files or two "
                     "directories")

    moved = False
    for old, new, prefix in pairs:
        if not (old.is_file() and new.is_file()):
            print(f"{prefix}report {'absent' if not old.is_file() else 'present'}"
                  f" -> {'absent' if not new.is_file() else 'present'}")
            moved = True
            continue
        reports = _report(old), _report(new)
        if None in reports:
            if old.read_bytes() != new.read_bytes():
                print(f"{prefix}differs")
                moved = True
            continue
        lines, changed = _diff(*reports, prefix)
        moved = moved or changed
        for line in lines:
            print(line)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
