import random
from fractions import Fraction

import pytest

from strataglue.fields import COMPLEX, real_axes
from strataglue.linear_strata import enumerate_stratifications
from strataglue.regions import (INF, Region, _ranked, covered,
                                region_subset)

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


def random_boxes(rng, num_axes, point_ok=True):
    """Up to five boxes, sometimes with a duplicate.

    With point_ok, a side may be a single point, which leaves the open box
    empty."""
    boxes = [tuple(random_interval(rng, point_ok and rng.random() < 0.1)
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
        (ranked_cell,), ranked_boxes = _ranked([cell], boxes)
        got = covered(ranked_cell, ranked_boxes)
        assert got == oracles.covered_pointwise(cell, boxes), (cell, boxes)
        outcomes.append(got)
    assert outcomes.count(True) > 40 and outcomes.count(False) > 40


STRATS = ([s for m in (1, 2, 3) for s in enumerate_stratifications(m)]
          + list(enumerate_stratifications(1, COMPLEX)))


@pytest.mark.parametrize("index", range(len(STRATS)))
def test_region_subset_matches_pointwise_oracle(index):
    strat = STRATS[index]
    k = real_axes(strat.field)
    num_axes = strat.m * k
    rng = random.Random(100 + index)
    outcomes = []
    for _ in range(30):
        cls = rng.randrange(strat.num_classes)
        # inner sides stay open: the cell decomposition reads a point side
        # of an inner box as a point, not as an empty interval
        inner = Region(cls, tuple(random_boxes(rng, num_axes, False)))
        outer = Region(cls, tuple(random_boxes(rng, num_axes)))
        if rng.random() < 0.3:
            outer = inner.union(outer)
        got = region_subset(strat, strat.field, inner, outer)
        want = oracles.subset_pointwise(set(strat.classes[cls]), strat.m, k,
                                        list(inner.boxes), list(outer.boxes))
        assert got == want, (cls, inner, outer)
        outcomes.append(got)
    assert True in outcomes and False in outcomes


def test_ranks_keep_order_on_each_axis():
    cell = ((Fraction(0), Fraction(0)), (-INF, Fraction(1, 2)))
    boxes = [((Fraction(-1), Fraction(1)), (Fraction(1, 2), INF)),
             ((Fraction(2), Fraction(2)), (-INF, INF))]
    (ranked_cell,), ranked_boxes = _ranked([cell], boxes)
    assert ranked_cell == ((1, 1), (0, 1))
    # the box that is a single point on axis 0 is empty and dropped
    assert ranked_boxes == [((0, 2), (1, 2))]
