"""Exact open-box regions inside the strata of a coordinate model.

A region over the stratum V_a (the union of the support pieces V^[J] over
the class a) is a finite union of terms (J, box): a term holds the points of
support exactly J, a support of a, that lie in an open axis-aligned box with
rational corners.  Each field coordinate contributes one real axis over the
rationals and two over the Gaussian rationals.  All topology here
(containment, boundary-type, collars) is exact interval arithmetic, decided
piece by piece on each support's own terms; the only non-rational values
are the +/- infinity sentinels.

Every question about the support piece V^[J] is asked on the k|J| real axes
of J, its own axes.  The piece is 0 on every axis off J, so a box meets it
only when it holds 0 on each of those axes, and then exactly in its part on
the axes of J (_on_piece).  A cell there, split so that each coordinate of
J is nonzero (split_nonzero), is a cell of the piece itself; subset, collar,
emptiness, separation and cover are all covers of such cells by the boxes
on the same axes (_piece_gap).  This works the same on values and on the
signed ranks of _ranking, since 0 ranks 0.
"""

from __future__ import annotations

from fractions import Fraction

from . import Record
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


class Region(Record):
    """Union of terms (J, box) over the stratum of class cls.

    A term holds the points of support exactly J that lie in the box."""

    # terms: each (J, box), a support bitmask and (lo, hi) intervals
    __slots__ = ("cls", "terms")

    def intersect(self, other):
        if self.cls != other.cls:
            raise RegionError("regions live over different strata")
        terms = [(J, meet(a, b)) for J, a in self.terms
                 for K, b in other.terms if J == K]
        return Region(self.cls, tuple(dict.fromkeys(
            (J, c) for J, c in terms if all(lo < hi for lo, hi in c))))

    def union(self, other):
        if self.cls != other.cls:
            raise RegionError("regions live over different strata")
        return Region(self.cls, tuple(dict.fromkeys(self.terms + other.terms)))

    def on(self, J):
        """The boxes of the terms on the support J."""
        return [box for K, box in self.terms if K == J]

    def to_json(self):
        def side(x):
            if x == INF:
                return "inf"
            if x == -INF:
                return "-inf"
            return [x.numerator, x.denominator]

        return {"class": self.cls,
                "terms": [[list(indices_of(J)),
                           [[side(lo), side(hi)] for lo, hi in b]]
                          for J, b in self.terms]}


def whole_stratum(strat, field, cls):
    full = full_box(strat.m * real_axes(field))
    return Region(cls, tuple((J, full) for J in strat.classes[cls]))


# ---------------------------------------------------------------------------
# exact cover checking on cells
#
# A cell is a product of intervals, each either open (lo < hi) or a single
# point (lo == hi).  Boxes are open products.  covered() decides whether the
# whole cell sits inside the union of the boxes: a cell that one box holds is
# dropped as soon as that box is found, and a cell that boxes meet but none
# holds is split at the corners of the first of them; termination holds
# because splits only happen at the finitely many corner values.  It only
# ever compares two interval ends on one axis, so _ranking() replaces each
# end by its signed rank: its index among the axis's ends, 0 and +/-INF
# included, minus the index of 0.  Ranks keep <, <= and ==, and 0 ranks 0,
# so meet, _on_piece and split_nonzero commute with ranking, and the
# splitting loop compares small ints instead of Fractions and the float
# infinities.  The ranking keys each finite end by its exact (numerator,
# denominator) pair, so it hashes ints, never a Fraction, and it sorts only
# the finite ends, with -INF and INF put first and last; the infinities are
# the only ends that are not rational, so no other float reaches it.  One
# ranking serves every question on the same ends, so one atlas build ranks
# once.  Only a sub-cell that no box meets is mapped back to values, and
# gives a witness point.

def _ranking(boxes, num_axes):
    """Signed ranks of the interval ends of the boxes: rank maps a box or
    cell with ends among these to its ranks, and values[ax][r] is the end
    of rank r on axis ax."""
    ranks, values = [], []
    for ax in range(num_axes):
        finite = {(0, 1): Fraction(0)}
        for box in boxes:
            for x in box[ax]:
                if x.__class__ is not float:
                    finite.setdefault((x.numerator, x.denominator), x)
        ends = sorted(finite.values())
        low = -1 - sum(num < 0 for num, _ in finite)
        values.append(dict(enumerate([-INF, *ends, INF], low)))
        rank = {(x.numerator, x.denominator): r
                for r, x in enumerate(ends, low + 1)}
        rank[-INF], rank[INF] = low, low + len(ends) + 1
        ranks.append(rank)

    def rank(box):
        return tuple((r[lo if lo.__class__ is float
                        else (lo.numerator, lo.denominator)],
                      r[hi if hi.__class__ is float
                        else (hi.numerator, hi.denominator)])
                     for r, (lo, hi) in zip(ranks, box))

    return rank, values


def covered(cell, boxes):
    """A sub-cell of the cell that meets none of the open boxes, or None
    when the cell lies inside their union.

    Cell and boxes are both values or both signed ranks (_ranking): only
    two ends on one axis are ever compared.  A popped sub-cell is dropped
    at the first box that holds it; only when none does are the boxes
    scanned for the first one that meets it, and the sub-cell is split at
    that box's corners (or returned when no box meets it)."""
    stack = [cell]
    while stack:
        c = stack.pop()
        for b in boxes:
            if all(blo < lo < bhi if lo == hi else blo <= lo and hi <= bhi
                   for (blo, bhi), (lo, hi) in zip(b, c)):
                break  # b holds the whole sub-cell
        else:
            for b in boxes:
                if all(blo < lo < bhi if lo == hi else blo < hi and lo < bhi
                       for (blo, bhi), (lo, hi) in zip(b, c)):
                    break
            else:
                return c
            # split c at the first axis where b, the first box meeting it,
            # does not contain it
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
    return None


def _inside(lo, hi):
    """One value of the point or open interval from lo to hi."""
    if lo == hi:
        return lo
    if lo == -INF:
        return Fraction(0) if hi == INF else hi - 1
    return lo + 1 if hi == INF else (lo + hi) / 2


def split_nonzero(cell, axis_groups):
    """Refine an open cell by the constraint that each field coordinate is
    nonzero.

    axis_groups lists, per constrained coordinate, its tuple of real axes.
    A real coordinate splits into its negative and positive parts; a complex
    one splits its real part likewise, plus its imaginary part over real 0.
    """
    cells = [tuple(cell)]
    for axes in axis_groups:
        a = axes[0]
        nxt = []
        for c in cells:
            for piece in _punctured(c[a]):
                nxt.append(c[:a] + (piece,) + c[a + 1:])
            if len(axes) == 2 and c[a][0] < 0 < c[a][1]:
                b, mid = axes[1], c[:a] + ((0, 0),) + c[a + 1:]
                for piece in _punctured(c[b]):
                    nxt.append(mid[:b] + (piece,) + mid[b + 1:])
        cells = nxt
    return cells


def _on_piece(k, J, box):
    """The box on the k|J| axes of the support J, or None when the piece
    V^[J] misses it: the box is open, so a side with lo >= hi leaves it
    empty, and a box missing 0 on an axis off J misses the piece.  Values
    and signed ranks alike."""
    out = []
    for ax, (lo, hi) in enumerate(box):
        if J >> (ax // k) & 1:
            if lo >= hi:
                return None
            out.append((lo, hi))
        elif not lo < 0 < hi:
            return None
    return tuple(out)


def _piece_gap(k, cells, boxes):
    """The first sub-cell of the cells, split into the piece's cells by
    split_nonzero, that the boxes leave uncovered, or None.

    Cells and boxes are on the piece's own axes (_on_piece), k per
    coordinate, and the boxes are nonempty."""
    for cell in cells:
        groups = [range(a, a + k) for a in range(0, len(cell), k)]
        for c in split_nonzero(cell, groups):
            gap = covered(c, boxes)
            if gap is not None:
                return gap
    return None


def _punctured(iv):
    """The nonzero open pieces of an open interval."""
    lo, hi = iv
    out = []
    if lo < 0:
        out.append((lo, min(hi, 0)))
    if hi > 0:
        out.append((max(lo, 0), hi))
    return out


# ---------------------------------------------------------------------------
# region predicates against a stratification

def region_contains(strat, field, region, point):
    """Exact membership of a point of K^m in the region."""
    mask = strat.stratum_of(point)[1]
    coords = []
    for x in point:
        coords.extend(real_parts(x))
    return any(all(lo < c < hi for c, (lo, hi) in zip(coords, box))
               for box in region.on(mask))


def region_subset(strat, field, inner, outer):
    """Whether the inner region sits inside the outer one, piece by
    piece."""
    if inner.cls != outer.cls:
        raise RegionError("regions live over different strata")
    k = real_axes(field)
    for J in strat.classes[inner.cls]:
        cells = [p for b in inner.on(J) if (p := _on_piece(k, J, b))
                 is not None]
        boxes = [p for b in outer.on(J) if (p := _on_piece(k, J, b))
                 is not None]
        if _piece_gap(k, cells, boxes) is not None:
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
    return collar(strat, field, region) is not None


def collar(strat, field, region):
    """A boundary-type sub-region hugging the boundary, and its radius.

    On each support piece the collar is the union, over the boundary strips
    of boundary_type, of the strip box intersected with the piece's own
    terms, so it sits inside the region.  Returns (collar_region, radius),
    or None when the region is not boundary-type; radius is None when the
    stratum has no boundary (the class of the empty support).
    """
    k = real_axes(field)
    terms = []
    radius = None
    for J in strat.classes[region.cls]:
        boxes = region.on(J)
        strips = []
        for i in indices_of(J):
            axes = axes_of(field, i)
            r = _strip_radius(boxes, axes)
            radius = r if radius is None else min(radius, r)
            strip = list(full_box(strat.m * k))
            for a in axes:
                strip[a] = (-r, r)
            strips.append(_on_piece(k, J, strip))
            for box in boxes:
                cut = meet(strip, box)
                if all(lo < hi for lo, hi in cut):
                    terms.append((J, cut))
        if _piece_gap(k, strips, [p for b in boxes if (
                p := _on_piece(k, J, b)) is not None]) is not None:
            return None
    return Region(region.cls, tuple(dict.fromkeys(terms))), radius
