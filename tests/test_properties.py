"""Invariant families checked across the whole instance pool.

Every family in :mod:`psbck.suite` must hold on each bundled document and
on a seeded batch of randomly generated certified algebras.  A failure
anywhere means either a wrong table or a wrongly stated law.
"""

from psbck import goldens
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


def _golden_up_sets():
    """The up-set of each a other than 0 and 1 in the three goldens.

    An up-set is closed under both implications (y <= x->y and y <= x~>y),
    and it leaves out the parent's 0, so it comes with no declared zero.
    """
    for G in (
        goldens.four_element_bounded(),
        goldens.six_element_involutive(),
        goldens.six_element_smarandache(),
    ):
        for a in G.elements:
            if a not in (G.zero, G.one):
                yield G.subalgebra(G.up_set(a))


def test_suite_on_unbounded_up_sets():
    ups = list(_golden_up_sets())
    assert len(ups) == 10
    assert sorted(U.n for U in ups) == [2, 2, 2, 2, 3, 3, 3, 4, 4, 4]
    for U in ups:
        assert U.zero is None
        assert _violations(run_suite(U)) == [], U.element_names
