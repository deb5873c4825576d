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

INF = float("inf")


class RegionError(ValueError):
    pass


def full_box(num_axes):
    return tuple((-INF, INF) for _ in range(num_axes))


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
        boxes = []
        for a in self.boxes:
            for b in other.boxes:
                c = tuple((max(al, bl), min(ah, bh))
                          for (al, ah), (bl, bh) in zip(a, b))
                if all(lo < hi for lo, hi in c):
                    boxes.append(c)
        return Region(self.cls, tuple(boxes))

    def union(self, other):
        if self.cls != other.cls:
            raise RegionError("regions live over different strata")
        seen = []
        for b in self.boxes + other.boxes:
            if b not in seen:
                seen.append(b)
        return Region(self.cls, tuple(seen))

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
# corner values.

def _interval_contains(box_iv, cell_iv):
    blo, bhi = box_iv
    lo, hi = cell_iv
    if lo == hi:
        return blo < lo < bhi
    return blo <= lo and hi <= bhi


def _interval_overlaps(box_iv, cell_iv):
    blo, bhi = box_iv
    lo, hi = cell_iv
    if lo == hi:
        return blo < lo < bhi
    return max(blo, lo) < min(bhi, hi)


def covered(cell, boxes):
    stack = [tuple(cell)]
    while stack:
        c = stack.pop()
        hit = None
        for b in boxes:
            if all(_interval_overlaps(bi, ci) for bi, ci in zip(b, c)):
                hit = b
                break
        if hit is None:
            return False
        for ax, (bi, ci) in enumerate(zip(hit, c)):
            if _interval_contains(bi, ci):
                continue
            lo, hi = ci
            cuts = sorted({x for x in bi if lo < x < hi})
            pts = [lo] + cuts + [hi]
            pieces = [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
            pieces += [(x, x) for x in cuts]
            for p in pieces:
                stack.append(c[:ax] + (p,) + c[ax + 1:])
            break
        # no break: every axis contained, cell covered by hit
    return True


def split_nonzero(cell, axis_groups):
    """Refine a cell by the constraint that each field coordinate is nonzero.

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
                if _has_zero(re_iv):
                    mid = c[:a0] + ((Fraction(0), Fraction(0)),) + c[a0 + 1:]
                    for piece in _punctured(im_iv):
                        nxt.append(mid[:a1] + (piece,) + mid[a1 + 1:])
        cells = nxt
    return cells


def _has_zero(iv):
    lo, hi = iv
    if lo == hi:
        return lo == 0
    return lo < 0 < hi


def _punctured(iv):
    """Nonzero open/point pieces of an interval."""
    lo, hi = iv
    if lo == hi:
        return [] if lo == 0 else [iv]
    out = []
    if lo < 0:
        out.append((lo, min(hi, Fraction(0))))
    if hi > 0:
        out.append((max(lo, Fraction(0)), hi))
    return [p for p in out if p[0] < p[1]]


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


def _piece_cell(strat, field, mask, base_box):
    """Turn a box into a cell on the support piece V^[I] (off-I axes at 0)."""
    cell = list(base_box)
    for coord in range(1, strat.m + 1):
        if not mask & (1 << (coord - 1)):
            for a in axes_of(field, coord):
                lo, hi = cell[a]
                if not (lo < 0 < hi or lo == hi == 0):
                    return None
                cell[a] = (Fraction(0), Fraction(0))
    return tuple(cell)


def region_subset(strat, field, inner, outer):
    """Whether inner-intersect-stratum sits inside outer-intersect-stratum."""
    if inner.cls != outer.cls:
        raise RegionError("regions live over different strata")
    from .linear_strata import indices_of
    for mask in strat.classes[inner.cls]:
        groups = [axes_of(field, i) for i in indices_of(mask)]
        for box in inner.boxes:
            cell = _piece_cell(strat, field, mask, box)
            if cell is None:
                continue
            for sub in split_nonzero(cell, groups):
                if not covered(sub, outer.boxes):
                    return False
    return True


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
    ok, _ = _collar_data(strat, field, region)
    return ok


def _collar_data(strat, field, region):
    from .linear_strata import indices_of
    num_axes = strat.m * real_axes(field)
    strips = []
    for mask in strat.classes[region.cls]:
        support = indices_of(mask)
        groups = [axes_of(field, i) for i in support]
        for i in support:
            axes = axes_of(field, i)
            r = _strip_radius(region.boxes, axes)
            cell = list(full_box(num_axes))
            for a in axes:
                cell[a] = (-r, r)
            cell = _piece_cell(strat, field, mask, tuple(cell))
            for sub in split_nonzero(cell, groups):
                if not covered(sub, region.boxes):
                    return False, None
            strips.append((i, r))
    return True, strips


def collar(strat, field, region):
    """A boundary-type sub-region hugging the boundary, and its radius.

    Only defined when the region itself is boundary-type.  The collar is the
    union, over boundary strips, of the strip box intersected with the
    region's own boxes, so it sits inside the region on every support piece.
    Returns (collar_region, radius); radius is None when the stratum has no
    boundary (the class of the empty support).
    """
    ok, strips = _collar_data(strat, field, region)
    if not ok:
        raise RegionError("collar requires a boundary-type region")
    num_axes = strat.m * real_axes(field)
    boxes = []
    radius = None
    for i, r in strips:
        radius = r if radius is None else min(radius, r)
        strip = list(full_box(num_axes))
        for a in axes_of(field, i):
            strip[a] = (-r, r)
        for box in region.boxes:
            cut = tuple((max(sl, bl), min(sh, bh))
                        for (sl, sh), (bl, bh) in zip(strip, box))
            if all(lo < hi for lo, hi in cut):
                boxes.append(cut)
    dedup = []
    for b in boxes:
        if b not in dedup:
            dedup.append(b)
    return Region(region.cls, tuple(dedup)), radius
