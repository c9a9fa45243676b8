"""Invariant families checked across the whole instance pool.

Every family in :mod:`psbck.suite` must hold on each bundled document and
on a seeded batch of randomly generated certified algebras.  A failure
anywhere means either a wrong table or a wrongly stated law.
"""

from psbck.generate import _seed_pool
from psbck.suite import run_suite


def _violations(results):
    return [(r.name, r.detail) for r in results if not r.ok]


def test_suite_on_corpus(corpus_docs):
    for doc in corpus_docs.values():
        for A in doc.algebras.values():
            assert _violations(run_suite(A)) == []


def test_suite_on_seed_pool():
    for A in _seed_pool():
        assert _violations(run_suite(A)) == [], A.element_names


def test_suite_on_random_batch(random_batch_suites):
    for A, results in random_batch_suites:
        assert _violations(results) == [], A.element_names
