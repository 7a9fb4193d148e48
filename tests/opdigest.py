"""Benchmark op digest: one sha256 over the outputs of a workload's ops.

    PYTHONPATH=src python tests/opdigest.py battery 5 4
    PYTHONPATH=src python tests/opdigest.py desk 5 6
    PYTHONPATH=src python tests/opdigest.py shapes 5 500

For op k = 0 .. ops-1 it runs the workload of `perfbench/workloads.py` as
the benchmark does (`prepare`, `run`, then `check` against the workload's
oracle) and collects `digest(result)`; it prints the sha256 of the
concatenated digests. Run it on two trees: a change that leaves every
benchmark output alone prints the same line on both. The workloads are read,
never changed; the files they write go to a temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def op_digest(name: str, seed: int, ops: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src").symlink_to(ROOT / "src")  # cli-cold children import from root/src
        wl = workloads.WORKLOADS[name](seed, root)
        if hasattr(wl, "materialize"):
            wl.materialize()
        digests = []
        for k in range(ops):
            inputs = wl.prepare(k)
            result = wl.run(inputs)
            wl.check(inputs, result)
            digests.append(wl.digest(result))
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("ops", type=int)
    args = parser.parse_args(argv)
    print(op_digest(args.workload, args.seed, args.ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
