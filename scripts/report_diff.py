#!/usr/bin/env python3
"""Say which records differ between two `ebcv verify --format json` reports,
or between two directories of them such as `scripts/report_matrix.py` writes.

    python scripts/report_diff.py BEFORE AFTER

Prints one line per record that differs in any field: the report's file
name (for two directories), the check id, both statuses, both
``max_residual`` values and the names of the other fields that differ
(``witness``, ``details``, ``printed``, ``oracle``, ``reference``), if
any.  A record, or a report file, found on one side
only is a line too, with ``absent`` for its missing side.  A file that is
not a verify report, such as ``tests/data/integrate_contract.json`` beside
the reports of ``tests/data/``, is compared byte for byte and listed as
``differs`` when it does.  Exits 1 when a check id, a status or such a file
differs, and 0 when every difference keeps them: a record whose residual or
witness moved is listed but does not fail.
"""

import argparse
import json
import pathlib
import sys


def _records(path: pathlib.Path) -> dict | None:
    """The records of a report, by check id, or None for a file that is not
    a verify report."""
    try:
        report = json.loads(path.read_bytes())
    except ValueError:  # not JSON, or not text
        return None
    if not isinstance(report, dict) or "checks" not in report:
        return None
    return {rec["id"]: rec for rec in report["checks"]}


def _diff(before: dict, after: dict, prefix: str) -> tuple[list, bool]:
    """The lines for the records that differ, and whether an id or a status
    did."""
    lines, moved = [], False
    for cid in list(before) + [c for c in after if c not in before]:
        old, new = before.get(cid), after.get(cid)
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
        records = _records(old), _records(new)
        if None in records:
            if old.read_bytes() != new.read_bytes():
                print(f"{prefix}differs")
                moved = True
            continue
        lines, changed = _diff(*records, prefix)
        moved = moved or changed
        for line in lines:
            print(line)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
