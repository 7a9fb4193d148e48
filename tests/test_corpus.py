"""The fast subset of the differential corpus (tests/corpus.py), pinned by sha256.

A change that moves any verdict, witness, case count or value in the subset
moves the digest; run `python tests/corpus.py --fast` on both trees and diff
the lines to see which cases moved.
"""

import hashlib

import pytest

from corpus import lines
from opdigest import op_digest

# re-pinned when the whole-space restriction, the empty projection event and
# the draws check_regular never evaluates stopped counting as cases (only case
# counts moved; tests/corpusdiff.py shows which)
FAST_CORPUS_SHA256 = "d606404c2f8991a6287c248ffd42ea487d689c7eeaf23210b2ec75a781da6761"

# tests/opdigest.py at seed 5: every benchmark op's output, for each
# workload of perfbench/workloads.py; cli-cold's eight ops are its eight
# verbs, each a `python -m condind.cli` child checked against the in-process
# cli.run
OP_DIGESTS = {
    ("battery", 4): "a7ba413bf839e0972f0a4d7080cb89d3e976bf8824fccb0487fb68f9a3c7452a",
    ("desk", 6): "9692fa7a847a5793b07f84b15802a8674a0c89684ef83c8696ed0dc0f86808ec",
    ("shapes", 500): "c9cbb2a94c0842848278ef0e9f5e94c320a24e539f63b0f13f9432a0d1b7ad83",
    ("cli-cold", 8): "dbb0b5831a484932f71b1ba1f1e5438a3e84fee407a5eb21cc82ad5f53d89f9a",
}


def test_fast_corpus_digest_pinned():
    digest = hashlib.sha256()
    for line in lines(fast=True):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == FAST_CORPUS_SHA256


@pytest.mark.parametrize("workload,ops", sorted(OP_DIGESTS))
def test_benchmark_op_digest_pinned(workload, ops):
    assert op_digest(workload, 5, ops) == OP_DIGESTS[workload, ops]
