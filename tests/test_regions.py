import random
from fractions import Fraction

import pytest

from strataglue import replace
from strataglue.fields import COMPLEX, REAL, real_axes, zero
from strataglue.gluing_engine import (_exact_checks, build_atlas,
                                      linear_model, region_is_empty)
from strataglue.linear_strata import (LinearStratification,
                                      enumerate_stratifications)
from strataglue.regions import (INF, Region, _inside, _on_piece, _piece_gap,
                                _ranking, boundary_type, covered, full_box,
                                meet, region_contains, region_subset,
                                split_nonzero, whole_stratum)

import oracles

ENDS = [-INF, Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
        Fraction(1), INF]


def random_interval(rng, point_ok):
    """An open interval between two ends, or a finite point interval."""
    if point_ok and rng.random() < 0.2:
        x = rng.choice(ENDS[1:-1])
        return (x, x)
    lo, hi = sorted(rng.sample(ENDS, 2))
    return (lo, hi)


def random_boxes(rng, num_axes):
    """Up to five boxes, sometimes with a duplicate.

    A side may be a single point, which leaves the open box empty."""
    boxes = [tuple(random_interval(rng, rng.random() < 0.1)
                   for _ in range(num_axes))
             for _ in range(rng.randrange(6))]
    if boxes and rng.random() < 0.3:
        boxes.append(rng.choice(boxes))
    return boxes


def test_covered_matches_pointwise_oracle():
    rng = random.Random(4)
    outcomes = []
    for _ in range(400):
        num_axes = rng.randrange(1, 4)
        cell = tuple(random_interval(rng, point_ok=True)
                     for _ in range(num_axes))
        boxes = random_boxes(rng, num_axes)
        rank, ends = _ranking([cell] + boxes, num_axes)
        gap = covered(rank(cell), [rank(b) for b in boxes
                                   if all(lo < hi for lo, hi in b)])
        want = oracles.covered_pointwise(cell, boxes)
        assert (gap is None) == want, (cell, boxes)
        if gap is not None:
            # the returned sub-cell, read back as values, is inside the
            # cell and not covered
            sub = tuple((e[lo], e[hi]) for e, (lo, hi) in zip(ends, gap))
            assert all(clo <= lo and hi <= chi
                       for (clo, chi), (lo, hi) in zip(cell, sub)), sub
            assert not oracles.covered_pointwise(sub, boxes), sub
        # the all-axes reference gives the point that the package's _inside
        # reads off its gap
        point = oracles.uncovered_point([cell], boxes)
        assert point == (None if gap is None else tuple(
            _inside(e[lo], e[hi]) for e, (lo, hi) in zip(ends, gap)))
        assert (point is None) == want, (cell, boxes)
        if point is not None:
            assert all(x == lo if lo == hi else lo < x < hi
                       for (lo, hi), x in zip(cell, point)), point
            assert not any(all(lo < x < hi for (lo, hi), x in zip(b, point))
                           for b in boxes), point
        outcomes.append(want)
    assert outcomes.count(True) > 40 and outcomes.count(False) > 40


class Reads(list):
    """A list of boxes that counts the boxes read by iterating over it."""

    reads = 0

    def __iter__(self):
        for box in super().__iter__():
            self.reads += 1
            yield box


def test_covered_matches_two_pass_reference():
    """covered returns the two-pass test's sub-cell (or None) on random
    ranked cells and boxes, and drops a cell that a box holds in one pass
    over the boxes, ending at the first box that holds it."""
    rng = random.Random(23)
    outcomes = []
    late = 0  # held cells whose first holder comes after another box
    for _ in range(800):
        num_axes = rng.randrange(1, 4)
        cell = tuple(random_interval(rng, point_ok=True)
                     for _ in range(num_axes))
        boxes = [b for b in random_boxes(rng, num_axes) + random_boxes(
            rng, num_axes) if all(lo < hi for lo, hi in b)]
        rank, _ = _ranking([cell] + boxes, num_axes)
        ranked = [rank(b) for b in boxes]
        reads = Reads(ranked)
        gap = covered(rank(cell), reads)
        assert gap == oracles.covered_two_pass(rank(cell), ranked), (
            cell, boxes)
        holders = [i for i, b in enumerate(boxes)
                   if oracles.covered_pointwise(cell, [b])]
        if holders:
            assert gap is None
            assert reads.reads == holders[0] + 1, (cell, boxes)
            late += holders[0] > 0
        outcomes.append(gap is None)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100
    assert late > 20


def test_ranking_keys_ends_by_exact_pairs():
    """Equal ends are one end whatever their type (the first one seen is
    kept, Fraction(0) always), the infinities rank first and last, and
    ranks and values agree with the sorted ends."""
    boxes = [((Fraction(1, 2), 1), (-INF, Fraction(-3))),
             ((Fraction(2, 4), INF), (0, Fraction(6, 2))),
             ((-INF, Fraction(-5, 7)), (Fraction(-3), INF))]
    rank, values = _ranking(boxes, 2)
    assert values == [{-2: -INF, -1: Fraction(-5, 7), 0: 0, 1: Fraction(1, 2),
                       2: 1, 3: INF},
                      {-2: -INF, -1: Fraction(-3), 0: 0, 1: Fraction(3),
                       2: INF}]
    assert [type(v[0]) for v in values] == [Fraction, Fraction]
    assert type(values[0][2]) is int
    assert [rank(b) for b in boxes] == [((1, 2), (-2, -1)), ((1, 3), (0, 1)),
                                        ((-2, -1), (-1, 2))]
    assert rank(((0, 0), (Fraction(0), Fraction(0)))) == ((0, 0), (0, 0))


STRATS = ([s for m in (1, 2, 3) for s in enumerate_stratifications(m)]
          + [s for m in (1, 2) for s in enumerate_stratifications(m, COMPLEX)])


@pytest.mark.parametrize("index", range(len(STRATS)))
def test_region_subset_matches_pointwise_oracle(index):
    strat = STRATS[index]
    k = real_axes(strat.field)
    num_axes = strat.m * k
    rng = random.Random(100 + index)
    outcomes = []
    for _ in range(30):
        cls = rng.randrange(strat.num_classes)

        def random_terms():
            return tuple((rng.choice(strat.classes[cls]), box)
                         for box in random_boxes(rng, num_axes))

        inner = Region(cls, random_terms())
        outer = Region(cls, random_terms())
        if rng.random() < 0.3:
            outer = inner.union(outer)
        got = region_subset(strat, strat.field, inner, outer)
        want = oracles.subset_pointwise(strat.m, k, list(inner.terms),
                                        list(outer.terms))
        assert got == want, (cls, inner, outer)
        outcomes.append(got)
    assert True in outcomes and False in outcomes


def test_ranks_keep_order_on_each_axis():
    cell = ((Fraction(0), Fraction(0)), (-INF, Fraction(1, 2)))
    boxes = [((Fraction(-1), Fraction(1)), (Fraction(1, 2), INF)),
             ((Fraction(2), Fraction(2)), (-INF, INF))]
    rank, values = _ranking([cell] + boxes, 2)
    # 0 and +/-INF are ends of every axis, and 0 ranks 0
    assert rank(cell) == ((0, 0), (-1, 1))
    assert [rank(b) for b in boxes] == [((-1, 1), (1, 2)), ((2, 2), (-1, 2))]
    assert values == [
        {-2: -INF, -1: Fraction(-1), 0: 0, 1: Fraction(1), 2: Fraction(2),
         3: INF},
        {-1: -INF, 0: 0, 1: Fraction(1, 2), 2: INF}]
    # the box that is a single point on axis 0 is empty: it is dropped, so
    # it does not split a cell open across 2 on that axis, and the witness
    # is the value of the whole cell, not one on the point 2
    wide = ((-INF, INF), (-INF, Fraction(1, 2)))
    for outer in (tuple(boxes), boxes[1:]):
        assert oracles.uncovered_point([wide], outer) == (0, Fraction(-1, 2))
    # the package drops it when it takes the box onto a piece
    assert _on_piece(1, 3, boxes[1]) is None
    assert _on_piece(1, 3, boxes[0]) == boxes[0]


@pytest.mark.parametrize("index", range(len(STRATS)))
def test_build_ranks_commute_with_cell_operations(index):
    """Ranks taken once over every box of a build give the ranked cells of
    the meets of its boxes on each support piece, on the piece's own axes,
    and the gap they leave there is the one the all-axes reference finds
    on values, as is the gap on the piece's axes on values."""
    strat = STRATS[index]
    k = real_axes(strat.field)
    num_axes = strat.m * k
    rng = random.Random(300 + index)
    outcomes = []
    for _ in range(60):
        boxes = random_boxes(rng, num_axes) + random_boxes(rng, num_axes)
        if not boxes:
            continue
        rank, values = _ranking(boxes, num_axes)
        J = rng.randrange(1 << strat.m)
        axes = [ax for ax in range(num_axes) if J >> (ax // k) & 1]
        groups = [range(a, a + k) for a in range(0, len(axes), k)]

        def unrank(cell):
            return tuple((values[ax][lo], values[ax][hi])
                         for ax, (lo, hi) in zip(axes, cell))

        def point(gap, end):
            # a point of the gap, whose ends are end(ax, side), on J's
            # axes, and 0 off J; or None
            if gap is None:
                return None
            out = [Fraction(0)] * num_axes
            for ax, (lo, hi) in zip(axes, gap):
                out[ax] = _inside(end(ax, lo), end(ax, hi))
            return tuple(out)

        B1 = rng.choice(boxes)
        B2 = B1 if rng.random() < 0.5 else rng.choice(boxes)
        cell = _on_piece(k, J, meet(B1, B2))
        ranked = _on_piece(k, J, meet(rank(B1), rank(B2)))
        assert (ranked is None) == (cell is None), (J, B1, B2)
        if cell is not None:
            assert unrank(ranked) == cell, (J, B1, B2)
            assert [unrank(c) for c in split_nonzero(ranked, groups)] == (
                split_nonzero(cell, groups)), (J, B1, B2)
        outer = rng.sample(boxes, rng.randrange(len(boxes) + 1))
        want = oracles.uncovered_point(
            oracles.piece_cells(k, J, meet(B1, B2)), outer)
        if cell is None:
            assert want is None
            continue
        gap = _piece_gap(k, [ranked], [
            p for b in outer if (p := _on_piece(k, J, rank(b))) is not None])
        assert point(gap, lambda ax, r: values[ax][r]) == want, (
            J, B1, B2, outer)
        gap = _piece_gap(k, [cell], [
            p for b in outer if (p := _on_piece(k, J, b)) is not None])
        assert point(gap, lambda ax, x: x) == want, (J, B1, B2, outer)
        outcomes.append(want is None)
    assert True in outcomes and False in outcomes


def test_point_side_box_is_empty():
    # an open box with a side lo == hi holds no point, so it is empty and
    # inside every region
    strat = LinearStratification(2, REAL, ((0,), (1,), (2,), (3,)))
    box = ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(1)))
    region = Region(3, ((3, box),))
    assert not region_contains(strat, REAL, region,
                               (Fraction(3, 2), Fraction(1)))
    assert region_is_empty(linear_model(strat), region)
    assert region_subset(strat, REAL, region, Region(3, ()))


def test_term_admits_only_its_own_support():
    # class 1 of the m = 2 chain has the supports {1} and {2}; a whole-box
    # term on {1} holds no point of {2}
    strat = LinearStratification(2, REAL, ((0,), (1, 2), (3,)))
    full = ((-INF, INF), (-INF, INF))
    one, two = Region(1, ((1, full),)), Region(1, ((2, full),))
    assert region_contains(strat, REAL, one, (Fraction(-3, 2), Fraction(0)))
    assert not region_contains(strat, REAL, one, (Fraction(0), Fraction(1)))
    assert region_subset(strat, REAL, one, one.union(two))
    assert not region_subset(strat, REAL, two, one)
    assert not region_subset(strat, REAL, one.union(two), one)
    assert region_is_empty(linear_model(strat), one.intersect(two))
    # the term on {2} keeps away from the zero locus of coordinate 2, and
    # the whole-box term on {1} does not make up for it
    away = Region(1, ((2, ((Fraction(-1), Fraction(1)),
                           (Fraction(1), Fraction(2)))),))
    assert not boundary_type(strat, REAL, one.union(away))
    assert boundary_type(strat, REAL, one.union(two))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_origin_piece(field):
    """The class of the empty support is the origin, whose piece has no
    axes: a term on it holds a point exactly when its box holds 0, and the
    cover question there has no axis to split."""
    strat = LinearStratification(1, field, ((0,), (1,)))
    model = linear_model(strat)
    k = real_axes(field)
    near = Region(0, ((0, ((Fraction(-1), Fraction(1)),) * k),))
    away = Region(0, ((0, ((Fraction(1), Fraction(2)),) + full_box(k - 1)),))
    empty = Region(0, ())
    for region in (near, whole_stratum(strat, field, 0)):
        assert not region_is_empty(model, region)
        assert not region_subset(strat, field, region, empty)
        assert region_subset(strat, field, empty, region)
    assert region_subset(strat, field, near, whole_stratum(strat, field, 0))
    assert region_is_empty(model, away)
    assert region_subset(strat, field, away, empty)
    # the datum of the origin's stratum covers the origin over near, and
    # leaves it, 0 on every axis, uncovered over away
    data = build_atlas(model).data
    for region, witnesses in ((near, ()), (away, ((zero(field),),))):
        checked = {**data, 0: replace(data[0], region=region)}
        assert _exact_checks(model, checked)[1] == (not witnesses, witnesses)
