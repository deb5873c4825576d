import collections
import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from strataglue import replace
from strataglue.dm_strata import edge_stratification
from strataglue.fields import COMPLEX, REAL, from_real_parts, real_axes
from strataglue.linear_strata import (LinearStratification, OrderError,
                                      chain_stratification,
                                      enumerate_stratifications, mask_of,
                                      popcount)
from strataglue.gluing_engine import (
    STATS,
    EngineError,
    GluingDatum,
    _exact_checks,
    build_atlas,
    check_compatible,
    coincide,
    evaluate,
    glue,
    image_region,
    induce,
    inward_extend,
    linear_model,
    normalize,
    phi,
    point_in_image,
    psi,
    region_is_empty,
    restrict,
    sew,
    tagged_samples,
    verify_cover,
    words_equal,
)
from strataglue.regions import (INF, Region, boundary_type, collar,
                               full_box, meet, region_contains,
                               region_subset, whole_stratum)
from strataglue.stable_graphs import build_poset

import oracles


def strat(m, classes, field=REAL):
    return LinearStratification(
        m, field, tuple(tuple(sorted(mask_of(I, m) for I in c))
                        for c in classes))


def on_every_support(model, cls, *boxes):
    """The region over class cls holding each box on every support."""
    return Region(cls, tuple((J, box) for box in boxes
                             for J in model.strat.classes[cls]))


M1 = linear_model(strat(1, [[()], [(1,)]]))
CHAIN2 = linear_model(strat(2, [[()], [(1,), (2,)], [(1, 2)]]))
SEP2 = linear_model(strat(2, [[()], [(1,)], [(2,)], [(1, 2)]]))
CHAIN3 = linear_model(chain_stratification(3))
SEP2C = linear_model(strat(2, [[()], [(1,)], [(2,)], [(1, 2)]], COMPLEX))
SEP3 = linear_model(strat(3, [[()], [(1,)], [(2,)], [(3,)],
                              [(1, 2), (1, 3), (2, 3)], [(1, 2, 3)]]))


class TestLinearModel:
    def test_m1_shape(self):
        assert M1.strat.num_classes == 2

    def test_chain3_strata(self):
        assert CHAIN3.strat.num_classes == 4

    def test_layers_bottom_up(self):
        assert CHAIN2.layers == ((0,), (1,), (2,))
        assert SEP2.layers == ((0,), (1, 2), (3,))


class TestWords:
    def test_phi_chain_collapses(self):
        w = (phi(0, 1), phi(1, 2))
        assert normalize(w) == (phi(0, 2),)

    def test_glue_absorbs_phi(self):
        assert normalize((phi(0, 1), glue(1))) == (glue(0),)

    def test_phi_identity_drops(self):
        assert normalize((phi(1, 1), glue(1))) == (glue(1),)

    def test_psi_glue(self):
        w = (psi(1, 0, {mask_of((1,), 2): 0, mask_of((2,), 2): 0}), glue(0))
        assert normalize(w) == (glue(1),)

    def test_psi_phi(self):
        w = (psi(1, 0, {mask_of((1,), 2): 0, mask_of((2,), 2): 0}), phi(0, 2))
        assert normalize(w) == (phi(1, 2),)

    def test_idempotent(self):
        w = (psi(2, 1, {mask_of((1, 2), 2): mask_of((1,), 2)}),
             phi(1, 1), phi(1, 2), glue(2))
        assert normalize(normalize(w)) == normalize(w)

    @given(st.lists(st.sampled_from(
        [glue(0), glue(1), glue(2), phi(0, 1), phi(1, 2), phi(0, 2),
         phi(1, 1), phi(2, 2), phi(0, 0)]), max_size=6))
    def test_normalize_idempotent_property(self, word):
        w = tuple(word)
        assert normalize(normalize(w)) == normalize(w)


class TestEvaluate:
    def test_glue_forgets_tags(self):
        s = CHAIN2.strat
        v = (Fraction(1), Fraction(1, 2))
        assert evaluate(s, (glue(0),), ((0,), v)) == v

    def test_phi_advances_chain(self):
        s = CHAIN2.strat
        v = (Fraction(1), Fraction(1, 2))
        chain = (0, mask_of((1,), 2))
        out = evaluate(s, (phi(0, 1),), (chain, v))
        assert out == ((mask_of((1,), 2),), v)

    def test_phi_falls_back_to_support(self):
        s = CHAIN2.strat
        v = (Fraction(1), Fraction(1, 2))
        out = evaluate(s, (phi(0, 2),), ((0,), v))
        assert out == ((mask_of((1, 2), 2),), v)

    def test_wrong_stratum_rejected(self):
        s = CHAIN2.strat
        with pytest.raises(EngineError):
            evaluate(s, (glue(2),), ((0,), (Fraction(1), Fraction(1))))

    def test_identity_phi_after_glue(self):
        # phi^a = phi^b . Phi^a_b at every sample point
        s = CHAIN2.strat
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            lhs = (glue(a),)
            rhs = (phi(a, b), glue(b))
            assert words_equal(s, REAL, lhs, rhs, (a, b))

    def test_identity_phi_composition(self):
        # Phi^a_c = Phi^b_c . Phi^a_b along every chain of three
        for model in (CHAIN2, CHAIN3, SEP2):
            s = model.strat
            n = s.num_classes
            for a in range(n):
                for b in s.above(a):
                    for c in s.above(b):
                        if len({a, b, c}) < 3:
                            continue
                        lhs = (phi(a, c),)
                        rhs = (phi(a, b), phi(b, c))
                        assert normalize(lhs) == normalize(rhs)
                        assert words_equal(s, model.field, lhs, rhs,
                                           (a, b, c))

    def test_words_equal_fails_closed(self):
        s = CHAIN2.strat
        # no support of class 2 sits inside one of class 1: no chain
        assert tagged_samples(s, REAL, (2, 1), 10) == []
        assert not words_equal(s, REAL, (glue(2),), (glue(2),), (2, 1))
        # every sample lies over stratum 1, where glue(0) cannot evaluate
        assert not words_equal(s, REAL, (glue(0),), (glue(0),), (1, 2))
        assert words_equal(s, REAL, (glue(1),), (glue(1),), (1, 2))


class TestRestrict:
    def test_identity_restriction(self):
        d = M1.canonical_datum(1)
        assert restrict(M1, d, d.region, d.epsilon) == d

    def test_halved_radius_same_values(self):
        d = CHAIN2.canonical_datum(0)
        r = restrict(CHAIN2, d, d.region, d.epsilon / 2)
        s = CHAIN2.strat
        for point in tagged_samples(s, REAL, (0, 2), 20):
            assert (evaluate(s, r.phi_word, point)
                    == evaluate(s, d.phi_word, point))

    def test_sub_box_membership(self):
        d = M1.canonical_datum(1)
        sub = on_every_support(M1, 1, ((Fraction(-1), Fraction(1)),))
        r = restrict(M1, d, sub, d.epsilon)
        assert point_in_image(M1, r, (Fraction(1, 2),))
        assert not point_in_image(M1, r, (Fraction(2),))
        assert point_in_image(M1, d, (Fraction(2),))

    def test_larger_radius_rejected(self):
        d = M1.canonical_datum(1)
        with pytest.raises(EngineError):
            restrict(M1, d, d.region, d.epsilon * 2)

    def test_outside_region_rejected(self):
        d = M1.canonical_datum(1)
        sub = on_every_support(M1, 1, ((Fraction(-1), Fraction(1)),))
        r = restrict(M1, d, sub, d.epsilon)
        with pytest.raises(EngineError):
            restrict(M1, r, d.region, d.epsilon)


class TestInduce:
    def test_collapses_to_canonical(self):
        d = CHAIN2.canonical_datum(0)
        img = image_region(CHAIN2, d, 1)
        e = induce(CHAIN2, d, 1, img, d.epsilon / 2)
        assert e.phi_word == (glue(1),)
        assert e.bundle_words[2] == (phi(1, 2),)

    def test_evaluation_matches_source(self):
        # evaluating the induced chart equals evaluating the source chart
        d = CHAIN2.canonical_datum(0)
        img = image_region(CHAIN2, d, 1)
        e = induce(CHAIN2, d, 1, img, d.epsilon / 2)
        s = CHAIN2.strat
        for point in tagged_samples(s, REAL, (1, 2), 30):
            assert (evaluate(s, e.phi_word, point)
                    == evaluate(s, (glue(1),), point))

    def test_same_stratum_rejected(self):
        d = CHAIN2.canonical_datum(1)
        with pytest.raises(OrderError):
            induce(CHAIN2, d, 1, d.region, d.epsilon)

    def test_region_outside_image_rejected(self):
        d = M1.canonical_datum(0)
        big = on_every_support(M1, 1, ((Fraction(-9), Fraction(9)),))
        with pytest.raises(EngineError):
            induce(M1, d, 1, big, d.epsilon / 2)

    def test_region_past_image_rejected(self):
        # the image over the first axis is the interval (-1, 1) on it; a
        # box reaching past it is refused by the guard
        d = SEP2.canonical_datum(0)
        img = image_region(SEP2, d, 1)
        wide = img.union(on_every_support(
            SEP2, 1, ((Fraction(-2), Fraction(2)),
                      (Fraction(-1), Fraction(1)))))
        with pytest.raises(EngineError, match="not inside the chart image"):
            induce(SEP2, d, 1, wide, d.epsilon / 2)

    def test_commutes_with_restriction(self):
        d = CHAIN2.canonical_datum(0)
        img = image_region(CHAIN2, d, 1)
        small = on_every_support(
            CHAIN2, 1, ((Fraction(-1, 2), Fraction(1, 2)),
                        (Fraction(-1, 4), Fraction(1, 4))))
        a = restrict(CHAIN2, induce(CHAIN2, d, 1, img, d.epsilon / 2),
                     small, d.epsilon / 4)
        b = induce(CHAIN2, restrict(CHAIN2, d, d.region, d.epsilon / 2),
                   1, small, d.epsilon / 4)
        assert coincide(CHAIN2, a, b)


class TestCoincideSew:
    def test_self_coincides(self):
        d = M1.canonical_datum(1)
        assert coincide(M1, d, d)
        merged = sew(M1, d, d)
        assert merged.epsilon < d.epsilon

    def test_overlapping_restrictions(self):
        d = M1.canonical_datum(1)
        left = restrict(
            M1, d, on_every_support(M1, 1, ((Fraction(-2), Fraction(1)),)),
            d.epsilon)
        right = restrict(
            M1, d, on_every_support(M1, 1, ((Fraction(-1), Fraction(2)),)),
            d.epsilon)
        assert coincide(M1, left, right)
        merged = sew(M1, left, right)
        assert point_in_image(M1, merged, (Fraction(-3, 2),))
        assert point_in_image(M1, merged, (Fraction(3, 2),))

    def test_metric_mismatch(self):
        d1 = M1.canonical_datum(1)
        d2 = M1.canonical_datum(1, scales=(Fraction(2),))
        assert not coincide(M1, d1, d2)
        with pytest.raises(EngineError):
            sew(M1, d1, d2)


class TestBoundaryType:
    def test_whole_stratum(self):
        assert boundary_type(M1.strat, REAL, whole_stratum(M1.strat, REAL, 1))

    def test_punctured_disk(self):
        u = on_every_support(M1, 1, ((Fraction(-1), Fraction(1)),))
        assert boundary_type(M1.strat, REAL, u)

    def test_interval_away_from_zero(self):
        u = on_every_support(M1, 1, ((Fraction(1), Fraction(2)),))
        assert not boundary_type(M1.strat, REAL, u)

    def test_chain2_strip_union(self):
        e = Fraction(1, 2)
        u = on_every_support(CHAIN2, 2,
                             ((-e, e), (-Fraction(9), Fraction(9))),
                             ((-Fraction(9), Fraction(9)), (-e, e)))
        assert not boundary_type(CHAIN2.strat, REAL, u)
        unbounded = on_every_support(CHAIN2, 2,
                                     ((-e, e), (-INF, INF)),
                                     ((-INF, INF), (-e, e)))
        assert boundary_type(CHAIN2.strat, REAL, unbounded)

    def test_collar_exactly_on_boundary_type(self):
        e = Fraction(1, 2)
        for model, region in (
                (M1, on_every_support(M1, 1, ((Fraction(-1), Fraction(1)),))),
                (M1, on_every_support(M1, 1, ((Fraction(1), Fraction(2)),))),
                (CHAIN2, on_every_support(
                    CHAIN2, 2, ((-e, e), (-Fraction(9), Fraction(9))),
                    ((-Fraction(9), Fraction(9)), (-e, e)))),
                (CHAIN2, whole_stratum(CHAIN2.strat, REAL, 2))):
            cut = collar(model.strat, REAL, region)
            assert (cut is not None) == boundary_type(model.strat, REAL,
                                                      region)
            if cut is not None:
                assert region_subset(model.strat, REAL, cut[0], region)


class TestInwardExtend:
    def test_global_datum_extends_to_itself(self):
        d = M1.canonical_datum(1)
        out, radius = inward_extend(M1, d)
        assert coincide(M1, out, d)
        assert out.region == d.region

    def test_restriction_extends_back(self):
        d = M1.canonical_datum(1)
        u = on_every_support(M1, 1, ((Fraction(-1), Fraction(1)),))
        r = restrict(M1, d, u, d.epsilon)
        out, radius = inward_extend(M1, r)
        assert out.region == whole_stratum(M1.strat, REAL, 1)
        assert coincide(M1, restrict(M1, out, u, out.epsilon), r)

    def test_perturbed_metric_kept(self):
        d = M1.canonical_datum(1, scales=(Fraction(3),))
        u = on_every_support(M1, 1, ((Fraction(-1), Fraction(1)),))
        r = restrict(M1, d, u, d.epsilon)
        out, _ = inward_extend(M1, r)
        assert out.scales == (Fraction(3),)

    def test_non_boundary_type_rejected(self):
        u = on_every_support(M1, 1, ((Fraction(1), Fraction(2)),))
        d = restrict(M1, M1.canonical_datum(1), u, Fraction(1))
        with pytest.raises(EngineError):
            inward_extend(M1, d)

    def test_non_boundary_type_rejected_chain2(self):
        # two bounded strips: near the far ends of each axis nothing of the
        # region hugs the boundary
        e = Fraction(1, 2)
        u = on_every_support(CHAIN2, 2,
                             ((-e, e), (-Fraction(9), Fraction(9))),
                             ((-Fraction(9), Fraction(9)), (-e, e)))
        d = restrict(CHAIN2, CHAIN2.canonical_datum(2), u, Fraction(1))
        with pytest.raises(EngineError, match="needs a boundary-type region"):
            inward_extend(CHAIN2, d)


class TestCompatibility:
    def test_with_own_restriction(self):
        d = CHAIN2.canonical_datum(0)
        r = restrict(CHAIN2, d, d.region, d.epsilon / 2)
        assert check_compatible(CHAIN2, d, r)

    def test_canonical_cross_strata(self):
        for model in (M1, CHAIN2, CHAIN3):
            data = [model.canonical_datum(a)
                    for a in range(model.strat.num_classes)]
            for d1, d2 in itertools.combinations(data, 2):
                assert check_compatible(model, d1, d2)

    def test_rescaled_metric_incompatible(self):
        d0 = M1.canonical_datum(0)
        d1 = M1.canonical_datum(1, scales=(Fraction(2),))
        assert not check_compatible(M1, d0, d1)


class TestBuildAtlas:
    def test_m1(self):
        rep = build_atlas(M1)
        assert len(rep.data) == 2
        assert rep.all_compatible
        assert rep.passes == 2

    def test_chain2(self):
        rep = build_atlas(CHAIN2)
        assert len(rep.data) == 3
        assert rep.all_compatible
        assert rep.separation_ok and rep.cover_ok

    def test_separated_classes(self):
        rep = build_atlas(SEP2)
        assert rep.all_compatible
        assert rep.separation_ok
        assert rep.passes == 3

    def test_exactly_k_passes(self):
        for model in (M1, CHAIN2, SEP2):
            rep = build_atlas(model)
            assert rep.passes == len(model.layers)

    def test_cover_fails_without_deep_chart(self):
        rep = build_atlas(CHAIN2)
        data = {a: d for a, d in rep.data.items() if a != 0}
        ok, witnesses = verify_cover(CHAIN2, data)
        assert not ok
        origin = (Fraction(0), Fraction(0))
        assert witnesses == (origin,)

    def test_separation_fails_without_bottom_chart(self):
        # the tubes around the two axes meet near the origin; without the
        # chart of the origin nothing lower holds that overlap
        rep = build_atlas(SEP2)
        data = {a: d for a, d in rep.data.items() if a != 0}
        (ok, witnesses), _ = _exact_checks(SEP2, data)
        assert not ok and witnesses
        for w in witnesses:
            assert point_in_image(SEP2, data[1], w)
            assert point_in_image(SEP2, data[2], w)

    def test_report_json_shape(self):
        rep = build_atlas(M1)
        js = rep.to_json()
        assert js["all_compatible"] is True
        assert js["separation"]["ok"] is True
        assert js["cover"]["ok"] is True
        assert js["passes"] == 2


BUILT_MODELS = [
    pytest.param(linear_model(s), id="%s%d-%d" % (name, m, i))
    for name, field, ms in (("R", REAL, (1, 2, 3)), ("C", COMPLEX, (1, 2)))
    for m in ms
    for i, s in enumerate(enumerate_stratifications(m, field))]


@pytest.mark.parametrize("model", BUILT_MODELS)
def test_chart_words_keep_the_vector(model):
    """The fact that makes sampled injectivity and coincidence checks
    vacuous: a chart word, built or induced, maps a tagged point over its
    stratum to that point's vector unchanged, so the image determines the
    point on each bundle component, and two data with the same normalized
    words agree at every point.  On its own stratum a built datum's image
    is exactly its region."""
    s, field = model.strat, model.field
    data = build_atlas(model).data

    def check(d):
        for c in s.above(d.stratum):
            for chain, vector in tagged_samples(s, field, (d.stratum, c), 8):
                assert evaluate(s, d.phi_word, (chain, vector)) == vector

    for g, d in data.items():
        check(d)
        own = image_region(model, d, g)
        assert region_subset(s, field, own, d.region)
        assert region_subset(s, field, d.region, own)
        for a in s.above(g):
            img = image_region(model, d, a)
            if a != g and not region_is_empty(model, img):
                check(induce(model, d, a, img, d.epsilon))


def layered_induction(model):
    """The paper's layered construction, run through the guarded public
    primitives: per layer, the data induced from every stratum below over
    its whole chart image are sewed and extended inward, and the radii below
    are capped at half the collar radius."""
    s = model.strat
    data = {}
    for layer in model.layers:
        for a in layer:
            if not data:
                data[a] = model.canonical_datum(a)
                continue
            eps = min(d.epsilon for d in data.values()) / 2
            below = [g for g in data if s.leq(g, a)]
            if not below:
                data[a] = model.canonical_datum(a, epsilon=eps)
                continue
            pieces = [induce(model, data[g], a,
                             image_region(model, data[g], a), eps)
                      for g in below]
            sewed = functools.reduce(functools.partial(sew, model), pieces)
            extended, radius = inward_extend(model, sewed)
            data[a] = replace(extended, epsilon=eps)
            for g in below:
                if data[g].epsilon > radius / 2:
                    data[g] = replace(data[g], epsilon=radius / 2)
    return data


@pytest.mark.parametrize("model", BUILT_MODELS + [
    pytest.param(linear_model(chain_stratification(4)), id="chain4")])
def test_layered_induction_reproduces_build_atlas(model):
    """build_atlas writes the closed form of the induce, sew, inward_extend
    chain; the chain's guards (each region inside its chart image, sewed
    data coinciding, a boundary-type sewed region, agreement on the collar)
    are checked here, and its data must be build_atlas's exactly."""
    assert layered_induction(model) == build_atlas(model).data


def seven_class_m3(axis):
    """The 7-class m = 3 stratification whose one merged class is the pair
    of coordinate planes through ``axis``."""
    planes = [(1, 2), (1, 3), (2, 3)]
    return strat(3, [[()], [(1,)], [(2,)], [(3,)],
                     [p for p in planes if axis in p]]
                 + [[p] for p in planes if axis not in p] + [[(1, 2, 3)]])


def edge_stratifications(g, n):
    distinct = {}
    for gc in build_poset(g, n).elements:
        s = edge_stratification(gc).stratification
        distinct.setdefault(s.classes, s)
    return list(distinct.values())


ORDER_STRATS = (
    [pytest.param(p.values[0].strat, id=p.id) for p in BUILT_MODELS]
    + [pytest.param(chain_stratification(4), id="chain4")]
    + [pytest.param(seven_class_m3(axis), id="m3-7class-%d" % axis)
       for axis in (1, 2, 3)]
    + [pytest.param(s, id="edges%d,%d-%d" % (g, n, i))
       for g, n in ((0, 5), (1, 2), (2, 0), (2, 1))
       for i, s in enumerate(edge_stratifications(g, n))])


@pytest.mark.parametrize("s", ORDER_STRATS)
def test_order_and_layers_match_all_supports_reference(s):
    """leq tests one support of a and linear_model reads the layers off
    cardinality; both must equal the order tested on every support and the
    layers that peeling its minimal classes gives."""
    n = s.num_classes
    assert ([[s.leq(a, b) for b in range(n)] for a in range(n)]
            == oracles.containment_order(s.classes))
    assert linear_model(s).layers == oracles.peeled_layers(s.classes)


class TestImages:
    def test_image_region_matches_pointwise(self):
        d = CHAIN2.canonical_datum(1, epsilon=Fraction(1, 2))
        img = image_region(CHAIN2, d, 2)
        vals = [Fraction(n, 4) for n in range(-6, 7)]
        for x in vals:
            for y in vals:
                v = (x, y)
                if CHAIN2.strat.stratum_of(v)[0] != 2:
                    continue
                assert (region_contains(CHAIN2.strat, REAL, img, v)
                        == point_in_image(CHAIN2, d, v))

    def test_empty_region_detection(self):
        r = on_every_support(CHAIN2, 2)
        assert region_is_empty(CHAIN2, r)
        tiny = on_every_support(CHAIN2, 2, ((Fraction(1), Fraction(2)),
                                            (Fraction(0), Fraction(0))))
        assert region_is_empty(CHAIN2, tiny)


def to_point(model, reals):
    """The point of K^m with the given real coordinates."""
    k = real_axes(model.field)
    return tuple(from_real_parts(model.field, reals[k * c:k * c + k])
                 for c in range(model.strat.m))


def incomparable_pairs(strat, data):
    """Each incomparable pair of strata of the data, with its lower strata."""
    return {(a, b): set(strat.below(a)) & set(strat.below(b))
            for a, b in itertools.combinations(sorted(data), 2)
            if not strat.leq(a, b) and not strat.leq(b, a)}


def two_box_data(model, data):
    """The data with radii 1 and regions cut down to two boxes on every
    support, one of them away from 0 on every axis."""
    num_axes = model.strat.m * real_axes(model.field)
    boxes = (((Fraction(-1, 2), Fraction(1, 2)),) * num_axes,
             ((Fraction(1, 4), INF),) * num_axes)
    return {a: replace(d, epsilon=Fraction(1),
                       region=on_every_support(model, a, *boxes))
            for a, d in data.items()}


@pytest.fixture(scope="module", params=[CHAIN2, SEP2, SEP2C, SEP3],
                ids=["chain2", "sep2", "sep2-complex", "sep3"])
def data_states(request):
    """A model and its states_of."""
    return request.param, states_of(request.param)


def states_of(model):
    """Data states of a model: the built atlas; all radii reset to 1, so
    that images of incomparable strata overlap; that without the bottom
    stratum, so that the overlaps are not inside a lower image; and the
    two-box data."""
    built = build_atlas(model).data
    wide = {a: replace(d, epsilon=Fraction(1)) for a, d in built.items()}
    return [built, wide, {a: d for a, d in wide.items() if a != 0},
            two_box_data(model, built)]


def piece_one_datum(*sides):
    """Data of M1 with only the stratum of the axis: its region holds the
    open intervals sides on the piece {1}, in that order."""
    return {1: GluingDatum(stratum=1, region=Region(1, tuple(
        (1, (side,)) for side in sides)), scales=(Fraction(1),),
        epsilon=Fraction(1), phi_word=(glue(1),),
        bundle_words={1: (phi(1, 1),)})}


class TestCoarseFirst:
    """Each question is asked on the pinned boxes first, and on the split
    cells only when they leave a gap."""

    ORIGIN = (Fraction(0),)

    def test_punctured_cells_covered_when_pinned_box_is_not(self):
        # (-inf, 0) and (0, inf) miss 0, so the pinned box (-inf, inf) of
        # the piece {1} is not covered; its cells (-inf, 0) and (0, inf) are
        data = piece_one_datum((-INF, Fraction(0)), (Fraction(0), INF))
        full = full_box(1)
        boxes = [box for _, box in data[1].region.terms]
        assert oracles.uncovered_point([oracles.pinned(1, 1, full)],
                                       boxes) == self.ORIGIN
        stats = dict.fromkeys(STATS, 0)
        _, (ok, witnesses) = _exact_checks(M1, data, stats=stats)
        # only the piece of the origin, which no datum holds, is uncovered
        assert not ok and witnesses == (self.ORIGIN,)
        assert stats["questions"] == 2
        assert stats["decided_coarse"] == 0
        assert stats["exact_fallbacks"] == 2

    def test_witness_is_the_exact_paths_when_both_fail(self):
        # the pinned box is first split at 0, the end of the first box, and
        # its gap is the origin, off the piece; the exact cells are
        # (-inf, 0), split at -1, and (0, inf), and the gap is -1
        data = piece_one_datum((Fraction(0), INF), (-INF, Fraction(-1)))
        full = full_box(1)
        boxes = [box for _, box in data[1].region.terms]
        coarse = oracles.uncovered_point([oracles.pinned(1, 1, full)], boxes)
        exact = oracles.uncovered_point(oracles.piece_cells(1, 1, full), boxes)
        assert coarse == self.ORIGIN and exact == (Fraction(-1),)
        _, (ok, witnesses) = _exact_checks(M1, data)
        assert not ok and witnesses == (self.ORIGIN, exact)

    @pytest.mark.parametrize("model", BUILT_MODELS)
    def test_built_atlas_needs_no_exact_question(self, model):
        stats = build_atlas(model).stats
        assert stats["questions"] == stats["decided_coarse"] > 0
        assert stats["exact_fallbacks"] == 0


class TestStats:
    # the models of the atlas benchmark, built as it builds them: chain(4),
    # the 7-class m = 3 model in each of its three relabellings, and the
    # complex m <= 2 models; their counts, in STATS order, show any change
    # in which questions are asked or how they are decided
    BENCHMARK_STATS = [
        (chain_stratification(4), (16, 16, 0, 5, 14)),
        *[(LinearStratification(3, REAL, classes), (16, 16, 0, 7, 22))
          for classes in (((0,), (1,), (2,), (4,), (3, 5), (6,), (7,)),
                          ((0,), (1,), (2,), (4,), (3, 6), (5,), (7,)),
                          ((0,), (1,), (2,), (4,), (3,), (5, 6), (7,)))],
        *zip([s for m in (1, 2)
              for s in enumerate_stratifications(m, COMPLEX)],
             [(2, 2, 0, 2, 2), (4, 4, 0, 3, 5), (5, 5, 0, 4, 8)], strict=True)]

    @pytest.mark.parametrize("s,counts", BENCHMARK_STATS, ids=[
        "chain4", "m3-7class-1", "m3-7class-2", "m3-7class-3", "complex-0",
        "complex-1", "complex-2"])
    def test_atlas_benchmark_models_pinned(self, s, counts):
        assert build_atlas(linear_model(s)).stats == dict(zip(STATS, counts))

    def test_two_builds_count_alike(self):
        for model in (CHAIN3, SEP2C, SEP3, linear_model(seven_class_m3(2))):
            first, second = build_atlas(model).stats, build_atlas(model).stats
            assert first == second
            assert tuple(first) == STATS
            assert first["questions"] == (first["decided_coarse"]
                                          + first["exact_fallbacks"])
            assert first["order_rows"] == model.strat.num_classes
            assert first["word_sets"] > 0

    def test_kept_out_of_json(self):
        rep = build_atlas(SEP2)
        assert "stats" not in rep.to_json()


class TestExactChecks:
    def test_verdicts_match_pointwise_oracle(self, data_states):
        model, states = data_states
        s = model.strat
        k = real_axes(model.field)
        split = 0
        for data in states:
            images = {(a, c): image_region(model, d, c)
                      for a, d in data.items() for c in s.above(a)}

            def in_image(a, reals):
                # the image regions agree with point_in_image at every
                # point the oracle visits
                point = to_point(model, reals)
                want = point_in_image(model, data[a], point)
                c = s.stratum_of(point)[0]
                assert want == ((a, c) in images and region_contains(
                    s, model.field, images[a, c], point)), (a, reals)
                return want

            separation, cover = oracles.separation_cover_pointwise(
                s.m * k, k, data, incomparable_pairs(s, data), in_image)
            (sep_ok, sep_wit), (cover_ok, cover_wit) = _exact_checks(
                model, data)
            assert sep_ok == (not separation)
            assert cover_ok == (not cover)
            # one witness per failing pair and piece, in that order
            assert ([s.stratum_of(w)[1] for w in sep_wit]
                    == [J for _, J in separation])
            assert [s.stratum_of(w)[1] for w in cover_wit] == cover
            assert verify_cover(model, data) == (cover_ok, cover_wit)
            split += len(separation)
        # a chain has no incomparable strata; the other models must split
        assert split or model is CHAIN2

    def test_witnesses_fail_pointwise(self, data_states):
        model, states = data_states
        for data in states:
            pairs = incomparable_pairs(model.strat, data)
            (_, sep_wit), (_, cover_wit) = _exact_checks(model, data)
            for w in sep_wit:
                inside = {a for a, d in data.items()
                          if point_in_image(model, d, w)}
                assert any({a, b} <= inside and not inside & lower
                           for (a, b), lower in pairs.items()), w
            for w in cover_wit:
                assert not any(point_in_image(model, d, w)
                               for d in data.values()), w


    def test_halving_every_radius_keeps_verdicts(self, data_states):
        """Halving every radius maps each whole-stratum image by x -> x/2,
        which keeps every support piece, so neither verdict nor the piece of
        any witness can change: build_atlas has no reason to halve radii.
        The two-box state is not a cone and is left out."""
        model, states = data_states
        s = model.strat

        def verdicts(data):
            return [(ok, [s.stratum_of(w)[1] for w in witnesses])
                    for ok, witnesses in _exact_checks(model, data)]

        for data in states[:3]:
            halved = {a: replace(d, epsilon=d.epsilon / 2)
                      for a, d in data.items()}
            assert verdicts(halved) == verdicts(data)


def checks_on_all_axes(model, data):
    """_exact_checks's answer asked question by question on every real
    axis: the image boxes from image_region, pinned to the piece by
    oracles.pinned, the cells by oracles.piece_cells, and each cover decided
    by oracles.uncovered_point (which drops the empty boxes itself), coarse
    first."""
    s, field = model.strat, model.field
    k = real_axes(field)

    def on(J, strata):
        c = s.class_of(J)
        return [box for a in strata if s.leq(a, c)
                for K, box in image_region(model, data[a], c).terms
                if K == J]

    def ask(J, inner, boxes):
        pinned = [p for p in (oracles.pinned(k, J, B) for B in inner)
                  if p is not None]
        if oracles.uncovered_point(pinned, boxes) is None:
            return None
        point = oracles.uncovered_point(
            [c for B in inner for c in oracles.piece_cells(k, J, B)], boxes)
        return None if point is None else to_point(model, point)

    separation = []
    for (a, b), lower in incomparable_pairs(s, data).items():
        for J in range(1 << s.m):
            if on(J, [a]) and on(J, [b]):
                separation.append(ask(
                    J, [meet(x, y) for x in on(J, [a]) for y in on(J, [b])],
                    on(J, [g for g in data if g in lower])))
    full = full_box(s.m * k)
    cover = [ask(J, [full], on(J, data)) for J in range(1 << s.m)]
    separation = tuple(w for w in separation if w is not None)
    cover = tuple(w for w in cover if w is not None)
    return (not separation, separation), (not cover, cover)


ENDS = [-INF, Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
        Fraction(1), INF]


def random_data(model, rng):
    """Data on a random set of strata, each with radius 1 or 1/2 and up to
    three random terms, some of them after the whole stratum's terms (all
    strata and all whole, two times in five): a box is open on the axes of
    its support, and off them it mostly holds 0 (a term whose box misses 0
    there has no image)."""
    s = model.strat
    k = real_axes(model.field)
    whole = rng.random() < 0.4
    data = {}
    for a in range(s.num_classes):
        if not whole and rng.random() < 0.15:
            continue
        terms = []
        if whole or rng.random() < 0.5:
            terms += whole_stratum(s, model.field, a).terms
        for _ in range(rng.randrange(1, 4)):
            I = rng.choice(s.classes[a])
            box = []
            for ax in range(s.m * k):
                if I >> (ax // k) & 1 or rng.random() < 0.1:
                    box.append(tuple(sorted(rng.sample(ENDS, 2))))
                else:
                    box.append(rng.choice([(-INF, INF), (Fraction(-1), INF),
                                           (Fraction(-1, 2), Fraction(1))]))
            terms.append((I, tuple(box)))
        data[a] = replace(model.canonical_datum(a),
                          epsilon=rng.choice([Fraction(1), Fraction(1, 2)]),
                          region=Region(a, tuple(terms)))
    return data


def with_empty_term(model, data, rng):
    """The data with one more term on a nonzero support, at a random
    place: a box that is a single point on one axis of its support, so
    empty, and holds 0 on every other axis."""
    s = model.strat
    k = real_axes(model.field)
    a = rng.choice([a for a in data if s.classes[a][0]])
    I = rng.choice(s.classes[a])
    point = rng.choice([ax for ax in range(s.m * k) if I >> (ax // k) & 1])
    x = rng.choice(ENDS[1:-1])
    box = tuple((x, x) if ax == point else (-INF, INF)
                for ax in range(s.m * k))
    terms = list(data[a].region.terms)
    terms.insert(rng.randrange(len(terms) + 1), (I, box))
    return {**data, a: replace(data[a], region=Region(a, tuple(terms)))}


@pytest.mark.parametrize("model", [CHAIN3, SEP2, SEP2C, SEP3],
                         ids=["chain3", "sep2", "sep2-complex", "sep3"])
def test_projected_checks_match_all_axes(model):
    """Asked on the axes of each piece, with the empty boxes dropped once,
    every question gives the verdict and witness it gives on all axes;
    and a term that is empty on an axis of its support changes neither."""
    rng = random.Random(2300 + model.strat.num_classes)
    seen = collections.Counter()
    for _ in range(30):
        data = random_data(model, rng)
        if not data:
            continue
        want = checks_on_all_axes(model, data)
        assert _exact_checks(model, data) == want
        assert verify_cover(model, data) == want[1]
        if any(s.classes[a][0] for s in [model.strat] for a in data):
            padded = with_empty_term(model, data, rng)
            assert checks_on_all_axes(model, padded) == want
            assert _exact_checks(model, padded) == want
        seen[want[0][0], want[1][0]] += 1
    # separation fails, and cover both holds and fails
    assert seen[False, True] + seen[False, False] > 0 or model is CHAIN3
    assert seen[True, True] + seen[False, True] > 0
    assert seen[True, False] + seen[False, False] > 0


@pytest.mark.parametrize("model", BUILT_MODELS)
def test_image_region_is_exact(model):
    """region_contains on image_region agrees with point_in_image at one
    point of every piece of the cut lines of a datum's image: its term ends,
    its fiber radii and 0, for the built data and the two-box data."""
    s, field = model.strat, model.field
    k = real_axes(field)
    built = build_atlas(model).data
    for data in (built, two_box_data(model, built)):
        for a, d in data.items():
            images = {c: image_region(model, d, c) for c in s.above(a)}
            ends = []
            for ax in range(s.m * k):
                e = d.epsilon / d.scales[ax // k]
                ends.append([0, -e, e] + [x for _, box in d.region.terms
                                          for x in box[ax]])
            for reals in itertools.product(
                    *map(oracles._representatives, ends)):
                point = to_point(model, reals)
                c = s.stratum_of(point)[0]
                got = c in images and region_contains(s, field, images[c],
                                                      point)
                assert got == point_in_image(model, d, point), (a, reals)


def test_image_region_keeps_pieces_apart():
    # (-3/2, 0) lies on piece {1} of class 1, outside the image of the
    # origin's chart; no term of the other piece {2} may admit it
    d = build_atlas(CHAIN2).data[0]
    point = (Fraction(-3, 2), Fraction(0))
    assert not point_in_image(CHAIN2, d, point)
    assert not region_contains(CHAIN2.strat, REAL,
                               image_region(CHAIN2, d, 1), point)


@pytest.mark.parametrize("model", BUILT_MODELS)
def test_check_compatible_decides_two_box_data(model):
    """Bounded regions on classes with several supports still get a verdict.
    The words are the built canonical ones, so every pair is compatible."""
    data = two_box_data(model, build_atlas(model).data)
    for d1, d2 in itertools.combinations(data.values(), 2):
        assert check_compatible(model, d1, d2) is True


def rescaled(model, d, boxed):
    """d with scales a+1, for a its stratum; if boxed, each term cut to
    the box (a+1, a+2) on its support axes and left whole off them."""
    s = model.strat
    k = real_axes(model.field)
    a = d.stratum
    region = d.region
    if boxed:
        side = (Fraction(a + 1), Fraction(a + 2))
        region = Region(a, tuple(
            (J, tuple(side if J >> (ax // k) & 1 else (-INF, INF)
                      for ax in range(s.m * k)))
            for J in s.classes[a]))
    return replace(d, scales=(Fraction(a + 1),) * s.m, region=region)


@pytest.mark.parametrize("model", BUILT_MODELS)
def test_check_compatible_needs_disjoint_images_when_metrics_differ(model):
    """The datum of stratum a gets scales a+1, so no two data share a
    metric and compatibility rests on the regions alone.  Over whole strata
    every two images meet on the top stratum: no pair is compatible.  With
    each term cut to the box (a+1, a+2) on its support axes and left whole
    off them, the images are disjoint: every pair is compatible."""
    built = build_atlas(model).data
    for boxed in (False, True):
        data = [rescaled(model, d, boxed) for d in built.values()]
        for d1, d2 in itertools.combinations(data, 2):
            assert check_compatible(model, d1, d2) is boxed


def eager_compatible(model, d1, d2):
    """check_compatible as it was defined before images were built lazily:
    on every common stratum each datum is induced over its whole chart
    image, and the two are handed to coincide."""
    s = model.strat

    def over(d, b):
        if b == d.stratum:
            return d
        return induce(model, d, b, image_region(model, d, b), d.epsilon)

    return all(coincide(model, over(d1, b), over(d2, b))
               for b in sorted(set(s.above(d1.stratum))
                               & set(s.above(d2.stratum))))


def test_check_compatible_matches_eager_definition():
    """On every pair of data of every built model's states, and of its two
    rescaled states (scales a+1 on stratum a, whole or boxed), the verdict
    of check_compatible is the eager definition's.  Every datum of a
    rescaled state has its own metric, so there the images decide: they
    meet in the whole state and are disjoint in the boxed one.  Elsewhere
    the words agree."""
    tally = collections.Counter()
    for model in (p.values[0] for p in BUILT_MODELS):
        built = build_atlas(model).data
        states = [("state", data) for data in states_of(model)] + [
            (kind, {a: rescaled(model, d, kind == "boxed")
                    for a, d in built.items()})
            for kind in ("whole", "boxed")]
        for kind, data in states:
            for d1, d2 in itertools.combinations(data.values(), 2):
                got = check_compatible(model, d1, d2)
                assert got == eager_compatible(model, d1, d2), (
                    kind, d1.stratum, d2.stratum)
                tally[kind, got] += 1
    assert tally == {("state", True): 756, ("whole", False): 207,
                     ("boxed", True): 207}


def all_singleton(m, field):
    """The stratification with one class per support, smallest first."""
    return LinearStratification(m, field, tuple(
        (J,) for J in sorted(range(1 << m), key=lambda J: (popcount(J), J))))


@pytest.mark.parametrize("m,field", [(4, COMPLEX), (5, REAL), (5, COMPLEX)])
def test_all_singleton_atlas_certified(m, field):
    """The largest models tier-1 builds: 16 strata over C^4 (8 real axes)
    and 32 over R^5 and over C^5 (10 real axes)."""
    rep = build_atlas(linear_model(all_singleton(m, field)))
    assert rep.all_compatible and rep.separation_ok and rep.cover_ok


def test_atlas_invariant_under_coordinate_relabelling():
    """Every real m <= 3 stratification under every permutation of its
    coordinates: the relabelled build gives the same three verdicts, and
    the same radius on the image of each class (class a keeps its index)."""
    pairs = changed = 0
    for m in (1, 2, 3):
        for s in enumerate_stratifications(m, REAL):
            rep = build_atlas(linear_model(s))
            for perm in itertools.permutations(range(1, m + 1)):
                classes = oracles.relabeled_classes(s.classes, perm)
                changed += classes != s.classes
                moved = build_atlas(linear_model(
                    LinearStratification(m, REAL, classes)))
                assert (moved.all_compatible, moved.separation_ok,
                        moved.cover_ok) == (rep.all_compatible,
                                            rep.separation_ok, rep.cover_ok)
                assert {a: d.epsilon for a, d in moved.data.items()} == \
                    {a: d.epsilon for a, d in rep.data.items()}
                pairs += 1
    assert (pairs, changed) == (77, 50)


# sha256 of pinned_outputs() as the rank-per-question region calculus
# produced it; a faster exact-check path must reproduce it byte for byte
PINNED_OUTPUTS_SHA256 = (
    "1c9434960533a989dcdddaed1eb342a9cff6d9ea7c6d1994f7bcb0702c377f00")


def pinned_outputs():
    """The report of every atlas-layer model (the real m <= 3 and complex
    m <= 2 models, chain(4) and the three m3-7class relabellings), and the
    exact-check verdicts and witnesses of each of its data states."""
    models = ([p.values[0] for p in BUILT_MODELS]
              + [linear_model(chain_stratification(4))]
              + [linear_model(seven_class_m3(axis)) for axis in (1, 2, 3)])
    records = []
    for model in models:
        records.append(build_atlas(model).to_json())
        for data in states_of(model):
            records.append([[ok, [[str(x) for x in w] for w in witnesses]]
                            for ok, witnesses in _exact_checks(model, data)])
    return json.dumps(records, sort_keys=True).encode()


def test_atlas_outputs_match_pinned_digest():
    assert len(BUILT_MODELS) == 18
    digest = hashlib.sha256(pinned_outputs()).hexdigest()
    assert digest == PINNED_OUTPUTS_SHA256
