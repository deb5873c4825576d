"""Exact open-box regions inside the strata of a coordinate model.

A region is a finite union of open axis-aligned boxes with rational corners,
read as intersected with one stratum V_a (the union of the support pieces
V^[I] over the class a).  Each field coordinate contributes one real axis
over the rationals and two over the Gaussian rationals.  All topology here
(containment, boundary-type, collars) is exact interval arithmetic; the only
non-rational values are the +/- infinity sentinels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import real_axes, real_parts
from .linear_strata import indices_of

INF = float("inf")


class RegionError(ValueError):
    pass


def full_box(num_axes):
    return tuple((-INF, INF) for _ in range(num_axes))


def meet(a, b):
    """The intersection of two open boxes (some side may come out empty)."""
    return tuple((max(al, bl), min(ah, bh))
                 for (al, ah), (bl, bh) in zip(a, b))


def axes_of(field, coord):
    """Real axis indices of the 1-based field coordinate."""
    k = real_axes(field)
    return tuple(range(k * (coord - 1), k * coord))


@dataclass(frozen=True)
class Region:
    """Union of open boxes, intersected with the stratum of class cls."""

    cls: int
    boxes: tuple  # each box: tuple of (lo, hi) open rational intervals

    def intersect(self, other):
        if self.cls != other.cls:
            raise RegionError("regions live over different strata")
        boxes = [meet(a, b) for a in self.boxes for b in other.boxes]
        return Region(self.cls, tuple(dict.fromkeys(
            c for c in boxes if all(lo < hi for lo, hi in c))))

    def union(self, other):
        if self.cls != other.cls:
            raise RegionError("regions live over different strata")
        return Region(self.cls, tuple(dict.fromkeys(self.boxes + other.boxes)))

    def to_json(self):
        def side(x):
            if x == INF:
                return "inf"
            if x == -INF:
                return "-inf"
            return [x.numerator, x.denominator]

        return {"class": self.cls,
                "boxes": [[[side(lo), side(hi)] for lo, hi in b]
                          for b in self.boxes]}


def whole_stratum(strat, field, cls):
    return Region(cls, (full_box(strat.m * real_axes(field)),))


# ---------------------------------------------------------------------------
# exact cover checking on cells
#
# A cell is a product of intervals, each either open (lo < hi) or a single
# point (lo == hi).  Boxes are open products.  covered() decides whether the
# whole cell sits inside the union of the boxes, splitting cells at box
# corners; termination holds because splits only happen at the finitely many
# corner values.  It only ever compares two interval ends on one axis, so
# _ranked() first replaces every end of the cells and boxes of one question
# by its rank among all those ends on its axis: ranks keep <, <= and ==, the
# answer is unchanged, and the splitting loop compares small ints instead of
# Fractions and the float infinities.  A sub-cell that no box meets is
# mapped back to values through the sorted ends and gives a witness point.

def _ranked(cells, boxes):
    """Cells and boxes with each interval end replaced by its rank on its axis.

    Also returns each axis's sorted ends, so rank r on axis ax stands for
    ends[ax][r].  Boxes that are empty on some axis meet no cell and are
    dropped.
    """
    if not cells:
        return [], [], []
    ends = []
    ranks = []
    for ax in range(len(cells[0])):
        axis_ends = {x for c in cells for x in c[ax]}
        axis_ends.update(x for b in boxes for x in b[ax])
        ends.append(sorted(axis_ends))
        ranks.append({x: i for i, x in enumerate(ends[-1])})

    def rank(c):
        return tuple((r[lo], r[hi]) for r, (lo, hi) in zip(ranks, c))

    return ([rank(c) for c in cells],
            [rank(b) for b in boxes if all(lo < hi for lo, hi in b)],
            ends)


def covered(cell, boxes):
    """A ranked sub-cell of the cell that meets none of the ranked boxes, or
    None when the cell lies inside their union."""
    stack = [cell]
    while stack:
        c = stack.pop()
        for b in boxes:
            for (blo, bhi), (lo, hi) in zip(b, c):
                if not (blo < lo < bhi if lo == hi else blo < hi and lo < bhi):
                    break
            else:
                break
        else:
            return c
        # b meets c: split c at the first axis where b does not contain it
        for ax, ((blo, bhi), (lo, hi)) in enumerate(zip(b, c)):
            if lo == hi or (blo <= lo and hi <= bhi):
                continue
            cuts = [x for x in (blo, bhi) if lo < x < hi]
            pts = [lo] + cuts + [hi]
            for i in range(len(pts) - 1):
                stack.append(c[:ax] + ((pts[i], pts[i + 1]),) + c[ax + 1:])
            for x in cuts:
                stack.append(c[:ax] + ((x, x),) + c[ax + 1:])
            break
        # no break: every axis contained, cell covered by b
    return None


def _inside(lo, hi):
    """One value of the point or open interval from lo to hi."""
    if lo == hi:
        return lo
    if lo == -INF:
        return Fraction(0) if hi == INF else hi - 1
    return lo + 1 if hi == INF else (lo + hi) / 2


def uncovered_point(cells, boxes):
    """A point of the cells outside the union of the open boxes, or None.

    The point is given by its real coordinates, one per axis.
    """
    cells, boxes, ends = _ranked(cells, boxes)
    for c in cells:
        gap = covered(c, boxes)
        if gap is not None:
            return tuple(_inside(e[lo], e[hi])
                         for e, (lo, hi) in zip(ends, gap))
    return None


def split_nonzero(cell, axis_groups):
    """Refine an open cell by the constraint that each field coordinate is
    nonzero.

    axis_groups lists, per constrained coordinate, its tuple of real axes.
    A real coordinate splits into the negative and positive parts; a complex
    one keeps the off-axis parts plus the punctured imaginary axis.
    """
    cells = [tuple(cell)]
    for axes in axis_groups:
        nxt = []
        for c in cells:
            if len(axes) == 1:
                a = axes[0]
                for piece in _punctured(c[a]):
                    nxt.append(c[:a] + (piece,) + c[a + 1:])
            else:
                a0, a1 = axes
                re_iv, im_iv = c[a0], c[a1]
                for piece in _punctured(re_iv):
                    nxt.append(c[:a0] + (piece,) + c[a0 + 1:])
                if re_iv[0] < 0 < re_iv[1]:
                    mid = c[:a0] + ((Fraction(0), Fraction(0)),) + c[a0 + 1:]
                    for piece in _punctured(im_iv):
                        nxt.append(mid[:a1] + (piece,) + mid[a1 + 1:])
        cells = nxt
    return cells


def _punctured(iv):
    """The nonzero open pieces of an open interval."""
    lo, hi = iv
    out = []
    if lo < 0:
        out.append((lo, min(hi, Fraction(0))))
    if hi > 0:
        out.append((max(lo, Fraction(0)), hi))
    return out


# ---------------------------------------------------------------------------
# region predicates against a stratification

def region_contains(strat, field, region, point):
    """Exact membership of a point of K^m in region-intersect-stratum."""
    cls, mask = strat.stratum_of(point)
    if cls != region.cls:
        return False
    coords = []
    for x in point:
        coords.extend(real_parts(x))
    return any(all(lo < c < hi for c, (lo, hi) in zip(coords, box))
               for box in region.boxes)


def _piece_cells(strat, field, mask, box):
    """Cells of a box on the support piece V^[I] of the mask I.

    The box is open, so a side with lo >= hi leaves it empty.  The axes off
    I are pinned at 0, so a box missing 0 there gives no cells; the
    coordinates in I are kept nonzero by split_nonzero.
    """
    if any(lo >= hi for lo, hi in box):
        return []
    cell = list(box)
    for coord in range(1, strat.m + 1):
        if not mask & (1 << (coord - 1)):
            for a in axes_of(field, coord):
                lo, hi = cell[a]
                if not lo < 0 < hi:
                    return []
                cell[a] = (Fraction(0), Fraction(0))
    return split_nonzero(cell, [axes_of(field, i) for i in indices_of(mask)])


def region_subset(strat, field, inner, outer):
    """Whether inner-intersect-stratum sits inside outer-intersect-stratum."""
    if inner.cls != outer.cls:
        raise RegionError("regions live over different strata")
    if full_box(strat.m * real_axes(field)) in outer.boxes:
        return True  # the whole stratum holds every region over it
    cells = [c for mask in strat.classes[inner.cls] for box in inner.boxes
             for c in _piece_cells(strat, field, mask, box)]
    return uncovered_point(cells, outer.boxes) is None


def _strip_radius(boxes, axes):
    """Half the smallest positive corner magnitude on the given axes."""
    vals = []
    for box in boxes:
        for a in axes:
            for side in box[a]:
                if side not in (INF, -INF) and side != 0:
                    vals.append(abs(side))
    return min(vals) / 2 if vals else Fraction(1)


def boundary_type(strat, field, region):
    """Whether the stratum complement of the region is closed in the closure.

    Checked per support piece and per coordinate: near the zero locus of
    each coordinate of the support there must be a uniform strip of the
    piece contained in the region.  With finitely many boxes the strip with
    radius below every corner magnitude decides the matter exactly.
    """
    return collar(strat, field, region) is not None


def collar(strat, field, region):
    """A boundary-type sub-region hugging the boundary, and its radius.

    The collar is the union, over the boundary strips of boundary_type, of
    the strip box intersected with the region's own boxes, so it sits
    inside the region on every support piece.  Returns (collar_region,
    radius), or None when the region is not boundary-type; radius is None
    when the stratum has no boundary (the class of the empty support).
    """
    num_axes = strat.m * real_axes(field)
    cells = []
    boxes = []
    radius = None
    for mask in strat.classes[region.cls]:
        for i in indices_of(mask):
            axes = axes_of(field, i)
            r = _strip_radius(region.boxes, axes)
            radius = r if radius is None else min(radius, r)
            strip = list(full_box(num_axes))
            for a in axes:
                strip[a] = (-r, r)
            cells += _piece_cells(strat, field, mask, strip)
            for box in region.boxes:
                cut = meet(strip, box)
                if all(lo < hi for lo, hi in cut):
                    boxes.append(cut)
    if uncovered_point(cells, region.boxes) is not None:
        return None
    return Region(region.cls, tuple(dict.fromkeys(boxes))), radius
