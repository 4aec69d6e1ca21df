#!/usr/bin/env python3
"""Compare qmink JSON reports with every ``elapsed_ms`` field ignored.

Usage: python scripts/compare_reports.py A B

A and B are two report files, or two directories of ``*.json`` reports
(such as two outputs of ``scripts/run_all.py``), compared file by file.
Prints each difference and exits 1 if there is any, 0 if there is none,
and 2 if an argument cannot be read, if one argument is a directory and
the other is not, or if a directory holds no report.
"""

import json
import sys
from pathlib import Path


def strip_timing(obj):
    """A copy of a decoded report without any ``elapsed_ms`` key."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def diff_reports(a, b, where: str = "") -> list[str]:
    """One line per difference between two decoded, stripped reports."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(a.keys() | b.keys()):
            if k not in b:
                out.append(f"{where}/{k}: only in A")
            elif k not in a:
                out.append(f"{where}/{k}: only in B")
            else:
                out.extend(diff_reports(a[k], b[k], f"{where}/{k}"))
        if not out and list(a) != list(b):
            out.append(f"{where}: key order differs")
        return out
    if isinstance(a, list) and isinstance(b, list):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            label = x.get("check_id", i) if isinstance(x, dict) else i
            out.extend(diff_reports(x, y, f"{where}[{label}]"))
        if len(a) != len(b):
            out.append(f"{where}: {len(a)} items in A, {len(b)} in B")
        return out
    if a != b or type(a) is not type(b):
        return [f"{where}: {a!r} != {b!r}"]
    return []


def _load(path: Path):
    return strip_timing(json.loads(path.read_text()))


def compare_paths(a: Path, b: Path) -> list[str]:
    """Differences between two report files or two report directories.

    Raises ValueError, naming the argument, when only one of them is a
    directory or when a directory holds no ``*.json`` report: there would
    be nothing to compare.
    """
    if a.is_dir() != b.is_dir():
        directory, other = (a, b) if a.is_dir() else (b, a)
        raise ValueError(f"{other} is not a directory, but {directory} is")
    if not a.is_dir():
        return diff_reports(_load(a), _load(b))
    names_a, names_b = ({p.name for p in path.glob("*.json")} for path in (a, b))
    for path, names in ((a, names_a), (b, names_b)):
        if not names:
            raise ValueError(f"{path} holds no *.json report")
    out = [f"{n}: only in A" for n in sorted(names_a - names_b)]
    out += [f"{n}: only in B" for n in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        out += [f"{name}{line}" for line in diff_reports(_load(a / name), _load(b / name))]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = Path(argv[0]), Path(argv[1])
    try:
        diffs = compare_paths(a, b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) between {a} and {b}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
