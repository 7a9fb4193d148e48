"""The fast subset of the differential corpus (tests/corpus.py), pinned by sha256.

A change that moves any verdict, witness, case count or value in the subset
moves the digest; run `python tests/corpus.py --fast` on both trees and diff
the lines to see which cases moved.
"""

import hashlib

from corpus import lines

# computed before RandomVariable moved to packed integer storage
FAST_CORPUS_SHA256 = "a7d0a04a76ee146c0a50bbd2a13e1098c98870d7c08895a0b5a466743151659a"


def test_fast_corpus_digest_pinned():
    digest = hashlib.sha256()
    for line in lines(fast=True):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == FAST_CORPUS_SHA256
