"""Compare two outputs of the differential corpus (tests/corpus.py).

    PYTHONPATH=src python tests/corpus.py > old.jsonl     # on one tree
    PYTHONPATH=src python tests/corpus.py > new.jsonl     # on the other
    python tests/corpusdiff.py old.jsonl new.jsonl

Lines are paired in order. For each pair that differs the script prints the
line's `case` and the key paths whose values differ, e.g. `report.cases` or
`report.witness.X`; the items of a list share one path, `report.checks[]`,
and a list whose length changed is one path. It ends with the number of
lines that differ and a tally of lines per key path. It exits 1, printing
where the pairing breaks, when the files differ in line count or in case
order, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Any, Iterable, TextIO

_ABSENT = object()  # a key that one side lacks


def key_paths(old: Any, new: Any, path: str = "") -> list[str]:
    """The key paths under which two JSON values differ, in document order."""
    if old == new:
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(f"{path}.{k}" if path else k, old.get(k, _ABSENT), new.get(k, _ABSENT))
                 for k in sorted(old.keys() | new.keys())]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(f"{path}[]", a, b) for a, b in zip(old, new)]
    else:
        return [path]
    return list(dict.fromkeys(p for sub, a, b in pairs for p in key_paths(a, b, sub)))


def diff(old_lines: Iterable[str], new_lines: Iterable[str], out: TextIO = sys.stdout) -> int:
    old = [json.loads(line) for line in old_lines]
    new = [json.loads(line) for line in new_lines]
    if len(old) != len(new):
        print(f"line count differs: {len(old)} against {len(new)}", file=out)
        return 1
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a["case"] != b["case"]:
            print(f"case order differs at line {i}: {a['case']} against {b['case']}", file=out)
            return 1
    tally: Counter[str] = Counter()
    changed = 0
    for a, b in zip(old, new):
        paths = key_paths(a, b)
        if paths:
            changed += 1
            tally.update(paths)
            print(f"{a['case']}: {', '.join(paths)}", file=out)
    print(f"{changed} of {len(old)} lines differ", file=out)
    for path, count in sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{count:7d}  {path}", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.old) as old, open(args.new) as new:
        return diff(old, new)


if __name__ == "__main__":
    sys.exit(main())
