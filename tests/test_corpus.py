"""The fast subset of the differential corpus (tests/corpus.py), pinned by sha256.

A change that moves any verdict, witness, case count or value in the subset
moves the digest; run `python tests/corpus.py --fast` on both trees and diff
the lines to see which cases moved.
"""

import hashlib

import pytest

from corpus import lines
from opdigest import op_digest

# re-pinned when the fatou skip reason lost "; supply them explicitly"
FAST_CORPUS_SHA256 = "5d2bce1996c5c1050475317488b7aaef86db040cdbce98405fde395156ea0928"

# tests/opdigest.py at seed 5: every benchmark op's output, for the
# in-process workloads of perfbench/workloads.py at the default cap
OP_DIGESTS = {
    ("battery", 4): "46bed6509ce758b9d4164f506eb0bfcc4998c227290792ae5ad3ac39d51611d0",
    ("desk", 6): "9692fa7a847a5793b07f84b15802a8674a0c89684ef83c8696ed0dc0f86808ec",
    ("shapes", 500): "c9cbb2a94c0842848278ef0e9f5e94c320a24e539f63b0f13f9432a0d1b7ad83",
}


def test_fast_corpus_digest_pinned():
    digest = hashlib.sha256()
    for line in lines(fast=True):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == FAST_CORPUS_SHA256


@pytest.mark.parametrize("workload,ops", sorted(OP_DIGESTS))
def test_benchmark_op_digest_pinned(workload, ops, monkeypatch):
    monkeypatch.delenv("CONDIND_CAP", raising=False)
    assert op_digest(workload, 5, ops) == OP_DIGESTS[workload, ops]
