"""The record decorator ``psbck._records.dataclass`` against stdlib ``dataclasses``.

Each of the 16 record classes pinned in ``test_options.DATACLASSES`` is
rebuilt from its own source with the stdlib ``dataclass``, ``field`` and
``fields`` in place of psbck's, and the two are compared on real
instances: ``__init__`` parameters and defaults, ``==``, ``hash`` and
``repr``, the order of ``fields()``, fresh defaults from each factory, a
memo left out of all of these, ``__post_init__``, and frozen classes
refusing assignment.
"""

import __future__
import dataclasses
import importlib
import inspect
import textwrap

import pytest

from conftest import CORPUS
from psbck import _records
from psbck.algebra import Witness
from psbck.classes import classify
from psbck.deduction import congruence_from, enumerate_ds, enumerate_ds_n
from psbck.errors import MalformedInput
from psbck.generate import goedel_chain
from psbck.morphisms import Homomorphism, VtHomomorphism, enumerate_hom, factor
from psbck.operators import UnaryMap, enumerate_vto
from psbck.suite import Facts, run_suite
from psbck.textfmt import parse, parse_raw
from psbck.valuations import PseudoValuation
from test_options import DATACLASSES


def stdlib_twin(cls):
    """``cls`` compiled again from its source, decorated by the stdlib."""
    module = importlib.import_module(cls.__module__)
    scope = {
        **vars(module),
        "dataclass": dataclasses.dataclass,
        "field": dataclasses.field,
        "fields": dataclasses.fields,
    }
    source = textwrap.dedent(inspect.getsource(cls))
    flags = __future__.annotations.compiler_flag
    exec(compile(source, module.__file__, "exec", flags=flags, dont_inherit=True), scope)
    return scope[cls.__name__]


@pytest.fixture(scope="module")
def samples():
    """Instances of each record class, keyed as in DATACLASSES."""
    text = {name: (CORPUS / f"{name}.alg").read_text(encoding="utf-8") for name in ("ex_2_5", "ex_2_6")}
    ex25, ex26 = parse(text["ex_2_5"]), parse(text["ex_2_6"])
    A, G = ex26.algebras["A"], goedel_chain(3)
    ex26_map = {name: f for name, (_, f) in ex26.maps.items()}
    g = VtHomomorphism(Homomorphism(A, A, ex26_map["psi3"].image), ex26_map["v10"], ex26_map["v10"])
    H = enumerate_ds_n(A)[0]
    raw = parse_raw(text["ex_2_5"])
    block = raw.blocks["A"]
    return {
        ("algebra", "Witness"): [Witness("psBCK1", ("a", "b"), "x != y"), Witness("VT1", ("a",))],
        ("algebra", "FiniteAlgebra"): [A, G, ex25.algebras["A"]],
        ("classes", "ClassificationReport"): [classify(A), classify(G)],
        ("deduction", "DeductiveSystem"): enumerate_ds(A)[:3],
        ("deduction", "QuotientAlgebra"): [congruence_from(A, H)]
        + [congruence_from(G, D) for D in enumerate_ds_n(G)],
        ("morphisms", "FactorResult"): [factor(g, H)],
        ("morphisms", "Homomorphism"): enumerate_hom(A, A),
        ("morphisms", "VtHomomorphism"): [g, VtHomomorphism(g.base, ex26_map["v1"], ex26_map["v1"])],
        ("operators", "UnaryMap"): enumerate_vto(A)[:3],
        ("suite", "Facts"): [Facts.of(G)],
        ("suite", "SuiteResult"): run_suite(G)[:3],
        ("textfmt", "AlgebraBlock"): list(raw.blocks.values()) + list(parse_raw(text["ex_2_6"]).blocks.values()),
        ("textfmt", "RawDocument"): [raw, parse_raw(text["ex_2_6"])],
        ("textfmt", "Token"): [block.name, *block.elements[:2]],
        ("textfmt", "WorkbenchDocument"): [ex25, ex26],
        ("valuations", "PseudoValuation"): [phi for _, phi in ex25.valuations.values()]
        + [PseudoValuation(G, (0, 1, 2))],
    }


def _outcome(fn, *args):
    """("value", result) or ("raises", exception type) of ``fn(*args)``."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "raises", type(exc)


def _kwargs(record):
    return {f.name: getattr(record, f.name) for f in _records.fields(record) if f.init}


def test_every_record_class_has_samples(samples):
    assert set(samples) == DATACLASSES
    assert all(len(found) >= 1 for found in samples.values())


@pytest.mark.parametrize("key", sorted(DATACLASSES), ids=lambda k: ".".join(k))
def test_record_class_matches_its_stdlib_twin(key, samples):
    cls = getattr(importlib.import_module(f"psbck.{key[0]}"), key[1])
    twin = stdlib_twin(cls)

    def params(c):
        return [(p.name, p.kind, repr(p.default)) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(twin)
    flags = [(f.name, f.init, f.repr, f.compare) for f in _records.fields(cls)]
    assert flags == [(f.name, f.init, f.repr, f.compare) for f in dataclasses.fields(twin)]
    assert (cls.__hash__ is None) == (twin.__hash__ is None)
    frozen = twin.__dataclass_params__.frozen

    pairs = []
    for record in samples[key]:
        assert type(record) is cls
        kwargs = _kwargs(record)
        again, other = cls(**kwargs), twin(**kwargs)
        assert [f.name for f in _records.fields(record)] == [f.name for f in dataclasses.fields(other)]
        assert repr(record) == repr(again) == repr(other)
        assert record == again and other == twin(**kwargs)
        assert _outcome(hash, record) == _outcome(hash, again) == _outcome(hash, other)
        pairs.append((record, other))
        name = next(iter(kwargs))
        for target in (record, other):
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(target, name, kwargs[name])
                with pytest.raises(AttributeError):
                    delattr(target, name)
            else:
                setattr(target, name, kwargs[name])
    for record, other in pairs:
        for record2, other2 in pairs:
            assert (record == record2) == (other == other2)


@pytest.mark.parametrize("key", sorted(DATACLASSES), ids=lambda k: ".".join(k))
def test_each_factory_gives_a_fresh_value_and_a_memo_is_left_out(key, samples):
    cls = getattr(importlib.import_module(f"psbck.{key[0]}"), key[1])
    record = samples[key][0]
    for f in dataclasses.fields(stdlib_twin(cls)):
        if f.default_factory is dataclasses.MISSING:
            continue
        kwargs = {k: v for k, v in _kwargs(record).items() if k != f.name}
        first, second = cls(**kwargs), cls(**kwargs)
        assert getattr(first, f.name) == f.default_factory()
        assert getattr(first, f.name) is not getattr(second, f.name)
        if f.name == "memo":
            getattr(first, f.name)["planted"] = object()
            assert first == second and hash(first) == hash(second)
            assert repr(first) == repr(second) and "memo" not in repr(first)


def test_post_init_raises_as_the_stdlib_twin_does(samples):
    A, G = samples[("algebra", "FiniteAlgebra")][:2]
    g = samples[("morphisms", "VtHomomorphism")][0]
    v2 = UnaryMap(A, tuple(A.index(x) for x in "1 a e a a e".split()))
    bad = [
        (UnaryMap, (A, (0,))),
        (PseudoValuation, (G, (0, 1))),
        (VtHomomorphism, (g.base, v2, v2)),
    ]
    for cls, args in bad:
        errors = []
        for c in (cls, stdlib_twin(cls)):
            with pytest.raises((ValueError, MalformedInput)) as info:
                c(*args)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
