import sys
from pathlib import Path

import pytest

from psbck import goldens, operators
from psbck.generate import _seed_pool, random_batch, relabel
from psbck.suite import run_suite
from psbck.textfmt import parse

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def four_elt():
    return goldens.four_element_bounded()


@pytest.fixture(scope="session")
def six_elt():
    return goldens.six_element_involutive()


@pytest.fixture(scope="session")
def six_sm():
    return goldens.six_element_smarandache()


@pytest.fixture(scope="session")
def corpus_docs():
    return {
        p.stem: parse(p.read_text(encoding="utf-8"))
        for p in sorted(CORPUS.glob("*.alg"))
    }


@pytest.fixture(scope="session")
def pool():
    """The 118-algebra instance pool: the seed pool plus the seed-2026 batch."""
    return list(_seed_pool()) + random_batch(seed=2026, count=100, max_size=6)


@pytest.fixture(scope="session")
def small_pool(pool):
    """The distinct pool algebras with at most 4 elements, for brute force."""
    distinct = {(A.one, A.zero, A.arrow, A.squig): A for A in pool if A.n <= 4}
    return list(distinct.values())


@pytest.fixture(scope="session")
def small_pool_one_last(small_pool):
    """Each small pool algebra relabelled so that 1 has the largest id.

    A homomorphism search from such an algebra can force f(1) from f(x)
    and f(y) for every x <= y, since x->y = 1 comes after both in id order.
    """
    return [
        relabel(A, [A.n - 1 if i == A.one else i - (i > A.one) for i in A.elements], "x")
        for A in small_pool
    ]


@pytest.fixture(scope="session")
def random_batch_suites():
    """(algebra, run_suite results) over the seed-2026 batch, run once."""
    return [
        (A, run_suite(A))
        for A in random_batch(seed=2026, count=100, max_size=6)
    ]


def golden_up_sets():
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


def names(A, maps):
    """Image vectors as name tuples, for table-for-table comparisons."""
    return [f.names() for f in maps]


def values_tried(search, *args):
    """(values handed out by the map search's candidate iterators, result).

    ``operators._map_search`` draws every value it tries from ``iter``, so a
    counting ``iter`` planted on the module sees each one.
    """
    tried = 0

    def counting(values):
        nonlocal tried
        for w in values:
            tried += 1
            yield w

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "iter", counting, raising=False)
        result = search(*args)
    return tried, result


_CAPTURE = None


@pytest.fixture(autouse=True)
def _remember_capture_manager(pytestconfig):
    global _CAPTURE
    _CAPTURE = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def report(criterion: int, ok: bool, label: str):
    """One unbuffered pass/fail line per acceptance criterion.

    Written past any output capture so the line always lands in the
    test log.
    """
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {criterion} [{status}]: {label}"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
