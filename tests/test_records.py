"""The records of the package on their shared base, strataglue.Record:
reprs, equality, hashing, immutability, copies, and replace re-running
checks."""

import copy
import pickle
from fractions import Fraction

import pytest

from strataglue import Record, replace
from strataglue.dm_strata import EdgeStratification, edge_stratification
from strataglue.fields import COMPLEX, GaussianRational
from strataglue.gluing_engine import (EngineError, StratifiedModel,
                                      build_atlas, linear_model)
from strataglue.linear_strata import (StratificationError, ValidationReport,
                                      chain_stratification, validate)
from strataglue.plumbing import (HorocycleStructure, PlumbingError,
                                 PlumbingFixture)
from strataglue.regions import Region
from strataglue.stable_graphs import (Automorphism, AutomorphismGroup,
                                      GraphClass, StableGraph, StrataPoset,
                                      automorphism_group, build_poset)

# two parallel edges between two vertices, two tails on each
PARALLEL = StableGraph((0, 0), ((0, 1), (0, 1)), (0, 0, 1, 1))
FIXTURE = PlumbingFixture((Fraction(1, 64), Fraction(1, 128)), Fraction(1, 2))


def one_of_each():
    """One instance of every record class of the package."""
    report = build_atlas(linear_model(chain_stratification(1)))
    poset = build_poset(0, 4)
    group = automorphism_group(PARALLEL)
    return [PARALLEL, poset.elements[0], group.elements[1], group, poset,
            report.model.strat, validate(1, ((0,), (1,))),
            report.data[0].region, report.model, report.data[0], report,
            FIXTURE, HorocycleStructure(1, Fraction(1, 4), (1, 0)),
            edge_stratification(poset.elements[0])]


def test_every_record_class_is_covered():
    assert {type(r) for r in one_of_each()} == set(Record.__subclasses__())
    assert len(Record.__subclasses__()) == 14


def test_pinned_reprs():
    # byte for byte the reprs that dataclasses generated for these records
    assert repr(automorphism_group(PARALLEL).elements[1]) == (
        "Automorphism(vertex_perm=(0, 1), "
        "half_edge_map=((1, 0), (1, 1), (0, 0), (0, 1)))")
    assert repr(validate(1, ((0, 1),))) == (
        "ValidationReport(ok=False, "
        "violations=('class 0 mixes cardinalities [0, 1]',))")
    assert repr(Region(1, ((1, ((Fraction(0), Fraction(1, 2)),)),))) == (
        "Region(cls=1, terms=((1, ((Fraction(0, 1), Fraction(1, 2)),)),))")
    assert repr(StableGraph((1,), (), (0,)).canonical_form()) == (
        "GraphClass(key=(1, ((1, 1, 0, (1,)),), (), (0,)), "
        "graph=StableGraph(genera=(1,), edges=(), tails=(0,)))")
    assert repr(FIXTURE) == ("PlumbingFixture(t=GaussianRational(1/64, "
                             "1/128), delta=Fraction(1, 2))")


def test_equality_needs_the_same_class():
    class Narrower(Region):
        __slots__ = ()

    region = Region(0, ())
    assert region == Region(0, ()) and hash(region) == hash(Region(0, ()))
    assert region != Region(1, ())
    assert region != Narrower(0, ())
    assert region != ValidationReport(0, ())
    assert region != (0, ())


def test_a_subclass_keeps_its_bases_fields():
    class Narrower(Region):
        __slots__ = ()

    one, two = Narrower(0, ()), Narrower(1, ((1, ()),))
    assert one != two and hash(one) != hash(two)
    assert one == Narrower(0, ()) and hash(one) == hash(Narrower(0, ()))
    assert repr(two).endswith(".Narrower(cls=1, terms=((1, ()),))")
    assert replace(one, cls=1, terms=((1, ()),)) == two
    assert copy.copy(two) == two


def test_graph_class_compares_by_key_alone():
    gc = PARALLEL.canonical_form()
    other = GraphClass(gc.key, gc.graph.relabeled((1, 0)))
    assert other.graph != gc.graph
    assert other == gc and hash(other) == hash(gc) == hash((gc.key,))
    assert GraphClass(gc.key[:-1] + ((),), gc.graph) != gc


@pytest.mark.parametrize("record", one_of_each(),
                         ids=lambda r: type(r).__name__)
def test_fields_cannot_change(record):
    name = record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", one_of_each(),
                         ids=lambda r: type(r).__name__)
def test_copies_are_equal(record):
    fields = [getattr(record, name) for name in record._fields]
    for twin in (replace(record), copy.copy(record),
                 type(record)._of(*fields)):
        assert type(twin) is type(record) and twin == record
        assert repr(twin) == repr(record)


def test_gaussian_rationals_copy_and_pickle():
    # GaussianRational is not a Record, but records hold it
    z = GaussianRational(1, 2)
    for twin in (copy.copy(z), copy.deepcopy(z),
                 pickle.loads(pickle.dumps(z))):
        assert type(twin) is GaussianRational
        assert twin == z and hash(twin) == hash(z)
    # the fixture of acceptance criterion 6
    fixture = PlumbingFixture(
        GaussianRational(Fraction(1, 64), Fraction(1, 128)), Fraction(1, 2))
    twin = copy.deepcopy(fixture)
    assert twin == fixture and twin.t is not fixture.t


@pytest.mark.parametrize("cls", [StableGraph, StratifiedModel, StrataPoset,
                                 GraphClass, Automorphism, AutomorphismGroup,
                                 EdgeStratification, ValidationReport,
                                 Region],
                         ids=lambda cls: cls.__name__)
def test_constructor_takes_every_field_once(cls):
    # StableGraph spells out its constructor; the others take Record's
    names = cls.__slots__
    values = [(0,), (), (0, 0, 0), (), 0][:len(names)]
    record = cls(*values)
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record
    assert tuple(getattr(record, name) for name in names) == tuple(values)
    for args, kwargs in [(values[:-1], {}), (values + [()], {}),
                         (values[:1], {names[0]: values[0]}),
                         (values, {"extra": ()})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_replace_runs_the_checks():
    strat = chain_stratification(2)
    with pytest.raises(StratificationError):
        replace(strat, classes=((0,), (1,), (3,)))
    datum = build_atlas(linear_model(strat)).data[0]
    with pytest.raises(EngineError):
        replace(datum, epsilon=Fraction(0))
    for delta in (0, Fraction(-1, 2)):
        with pytest.raises(PlumbingError):
            replace(FIXTURE, delta=delta)
    with pytest.raises(TypeError):
        replace(FIXTURE, radius=1)
    # and normalizes the way the constructor does
    assert replace(PARALLEL, edges=((1, 0),)).edges == ((0, 1),)
    assert replace(strat, field=COMPLEX) != strat
