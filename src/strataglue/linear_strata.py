"""Linearly stratified vector spaces over coordinate supports.

The space is K^m (K the rationals or Gaussian rationals) stratified by the
support pattern of the coordinates: the stratum of a point is the set I of
indices where it is nonzero.  Supports are grouped into index classes, all
members of one class having the same cardinality, and the classes carry the
partial order where one class precedes another when each of its supports is
contained in some support of the other.  Subsets of {1..m} are stored as
integer bitmasks throughout.
"""

from __future__ import annotations

import itertools

from . import Record, _set
from .fields import COMPLEX, REAL, is_zero


class StratificationError(ValueError):
    pass


class OrderError(StratificationError):
    pass


def mask_of(indices, m):
    """Bitmask of 1-based indices in R^m.  An index above m takes a bit of
    its own past m, not bit i - 1: the mask is out of range with the
    popcount it would have, and a huge index builds no huge int."""
    mask, seen = 0, set()
    for i in indices:
        if type(i) is not int or i < 1:
            raise StratificationError("index %r is not a positive integer"
                                      % (i,))
        if i in seen:
            raise StratificationError("index %d is repeated in a support"
                                      % i)
        seen.add(i)
        mask |= 1 << (i - 1 if i <= m else m + len(seen))
    return mask


def indices_of(mask):
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def popcount(mask):
    return bin(mask).count("1")


class LinearStratification(Record):
    """Partition of the power set of {1..m} into equal-cardinality classes."""

    # classes: tuple of sorted tuples of bitmasks
    __slots__ = ("m", "field", "classes")

    def __init__(self, m, field, classes):
        report = validate(m, classes, field)
        if not report.ok:
            raise StratificationError("; ".join(report.violations))
        _set(self, "m", m)
        _set(self, "field", field)
        _set(self, "classes", classes)

    @property
    def num_classes(self):
        return len(self.classes)

    def class_of(self, mask):
        for a, masks in enumerate(self.classes):
            if mask in masks:
                return a
        raise StratificationError("support %s not in any class"
                                  % (indices_of(mask),))

    def leq(self, a, b):
        """a precedes b: every support of a sits inside one of b.

        The first support of a decides: by the frontier condition, when one
        support of a fits inside a support of b, all of them do.
        """
        I = self.classes[a][0]
        return any(I & J == I for J in self.classes[b])

    def above(self, a):
        """S^a: indices of classes at or above a."""
        return tuple(b for b in range(self.num_classes) if self.leq(a, b))

    def below(self, a):
        return tuple(b for b in range(self.num_classes) if self.leq(b, a))

    def stratum_of(self, point):
        """Class index and support of an exact point of K^m."""
        if len(point) != self.m:
            raise StratificationError("point has wrong dimension")
        mask = 0
        for i, x in enumerate(point):
            if not is_zero(x):
                mask |= 1 << i
        return self.class_of(mask), mask

    def normal_stratum(self, a, b):
        """The b-part of the normal bundle over class a.

        Maps each base support I in class a to the supports J in class b
        with J containing I.  Requires b at or above a.
        """
        if not self.leq(a, b):
            raise OrderError("class %d is not above class %d" % (b, a))
        return {I: tuple(J for J in self.classes[b] if I & J == I)
                for I in self.classes[a]}

    def double_normal(self, a, b):
        """Pieces of the normal bundle of the b-part inside the bundle over a.

        For strictly ordered a, b this is one normal bundle N(V^[J]) per pair
        I in class a, J in class b with J containing I; each J also names the
        target piece in the bundle over b.
        """
        if a == b or not self.leq(a, b):
            raise OrderError("double normal needs strict order a < b")
        return tuple((I, J) for I in self.classes[a]
                     for J in self.classes[b] if I & J == I)

    def tau_embed(self, a, b, I, point):
        """Include a point of the bundle over class a into the b-stratum.

        The inclusion is the identity on coordinates; the point's support
        must lie in class b and contain the base support I.
        """
        if I not in self.classes[a]:
            raise StratificationError("base support not in class %d" % a)
        c, mask = self.stratum_of(point)
        if c != b:
            raise StratificationError(
                "point support %s is not in class %d" % (indices_of(mask), b))
        if I & mask != I:
            raise StratificationError("support does not contain the base")
        return tuple(point), b

    def to_json(self):
        return {
            "m": self.m,
            "field": self.field,
            "classes": [[list(indices_of(I)) for I in masks]
                        for masks in self.classes],
        }

    @classmethod
    def from_json(cls, data):
        return cls(*_read_json(data))


def _read_json(data):
    """The m, field and classes of a stratification's JSON form; the field
    is R unless given."""
    m = data["m"]
    # validate stops on a bad m before it reads any mask
    bound = m if type(m) is int and m >= 0 else 0
    classes = tuple(tuple(sorted(mask_of(I, bound) for I in masks))
                    for masks in data["classes"])
    return m, data.get("field", REAL), classes


class ValidationReport(Record):
    __slots__ = ("ok", "violations")

    def to_json(self):
        return {"ok": self.ok, "violations": list(self.violations)}


def validate(m, classes, field=REAL):
    """Check the partition, cardinality, and frontier axioms.

    The order axiom needs no check of its own: containment (every support
    of a inside some support of b) is a partial order on the classes of any
    partition into equal-cardinality classes.  Transitivity holds because
    I ⊆ J ⊆ K gives I ⊆ K for any sets.  Antisymmetry: a ≤ b ≤ a gives
    I ⊆ J ⊆ I′ with I, I′ in a, J in b and |I| = |I′|, so I = J lies in
    both classes, which the partition forbids unless a = b.  A bad m (not
    a nonnegative int, or a bool) stops the checks that read 2^m.
    """
    violations = []
    if field not in (REAL, COMPLEX):
        violations.append("unknown ground field %r" % (field,))
    if type(m) is not int or m < 0:
        violations.append("m must be a nonnegative integer, not %r" % (m,))
        return ValidationReport(False, tuple(violations))
    full = 1 << m
    seen = {}
    for a, masks in enumerate(classes):
        if not masks:
            violations.append("class %d is empty" % a)
            continue
        sizes = {popcount(I) for I in masks}
        if len(sizes) > 1:
            violations.append("class %d mixes cardinalities %s"
                              % (a, sorted(sizes)))
        for I in masks:
            if not 0 <= I < full:
                violations.append("class %d contains an out-of-range subset"
                                  % a)
            elif I in seen:
                violations.append(
                    "subset %s appears in classes %d and %d"
                    % (list(indices_of(I)), seen[I], a))
            else:
                seen[I] = a
    # listing the missing subsets scans all 2^m of them: only when that is
    # at most twice the subsets the classes list, else the count is given,
    # as 2^m - k when Python will not write it in decimal
    missing = full - len(seen)
    if missing > len(seen):
        try:
            count = "%d" % missing
        except ValueError:
            count = "2^%d - %d" % (m, len(seen))
        violations.append("%s subsets missing from the partition" % count)
    elif missing:
        violations.append("subsets missing from the partition: %s"
                          % [list(indices_of(I)) for I in range(full)
                             if I not in seen])
    if not violations:
        # frontier condition: if one support of a class fits inside some
        # support of another class, all of them must (a stratum closure
        # meeting another stratum has to contain it).  up[I] holds, as
        # bits, the classes with a support containing I: I's own class and
        # those in up[] of I plus one index.  a partially meets the closure
        # of b when b is in up[I] for some but not all I in a; then b is
        # larger than a, since the partition holds and each class has one
        # size.
        up, bits = [0] * full, [1 << i for i in range(m)]
        for I in range(full - 1, -1, -1):
            row = 1 << seen[I]
            for bit in bits:
                if not I & bit:
                    row |= up[I | bit]
            up[I] = row
        for a, masks in enumerate(classes):
            some = every = up[masks[0]]
            for I in masks:
                some, every = some | up[I], every & up[I]
            partial = some & ~every
            violations += ["class %d partially meets the closure of class %d"
                           % (a, b) for b in range(partial.bit_length())
                           if partial >> b & 1]
    return ValidationReport(not violations, tuple(violations))


def _partially_meets(A, B):
    """Some but not all supports of A lie inside a support of B."""
    dominated = [any(I & J == I for J in B) for I in A]
    return any(dominated) and not all(dominated)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def enumerate_stratifications(m, field=REAL):
    """Every stratification of K^m, exhaustively.

    Equal cardinality within a class means the classes refine the grouping
    of subsets by size, so the candidates are the products of set partitions
    of each size level, built from size 0 up.  The frontier condition only
    relates a class to one of larger size (distinct supports of one size
    never nest), so a level's partition is dropped, with every product above
    it, once one of its classes fails against an earlier level.  Output
    order is that of the full product, and is deterministic.
    """
    levels = []
    for k in range(m + 1):
        masks = [mask_of(c, m) for c in
                 itertools.combinations(range(1, m + 1), k)]
        levels.append([
            tuple(sorted(tuple(sorted(g)) for g in part))
            for part in _set_partitions(masks)])

    def extend(chosen, k):
        if k > m:
            yield LinearStratification(m, field, chosen)
            return
        for part in levels[k]:
            if not any(_partially_meets(A, B) for B in part for A in chosen):
                yield from extend(chosen + part, k + 1)

    yield from extend((), 0)


def matrix_is_invertible(matrix, field=REAL):
    """Exact invertibility by fraction-free style Gaussian elimination."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    if any(len(r) != n for r in rows):
        raise StratificationError("matrix must be square")
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not is_zero(rows[r][col]):
                pivot = r
                break
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / pv
            for c in range(col, n):
                rows[r][c] = rows[r][c] - factor * rows[col][c]
    return True


def preserves_stratification(matrix, strat):
    """Whether an invertible matrix maps each class's subspaces within class.

    The image of a coordinate subspace spanned by the axes in I is the span
    of the corresponding columns; it is again a coordinate subspace exactly
    when the union J of the column supports has size |I| (the columns are
    independent, so the span then fills the subspace).  The map preserves
    the stratification when J always lands in the class of I; classes hold
    one cardinality each, so that also forces |J| = |I|.
    """
    if not matrix_is_invertible(matrix, strat.field):
        raise StratificationError("matrix is singular")
    m = strat.m
    col_support = []
    for j in range(m):
        mask = 0
        for i in range(m):
            if not is_zero(matrix[i][j]):
                mask |= 1 << i
        col_support.append(mask)
    for I in range(1 << m):
        J = 0
        for j in range(m):
            if I & (1 << j):
                J |= col_support[j]
        if strat.class_of(J) != strat.class_of(I):
            return False
    return True


def chain_stratification(m, field=REAL):
    """The cardinality stratification: one class per support size."""
    classes = []
    for k in range(m + 1):
        classes.append(tuple(sorted(
            mask_of(c, m)
            for c in itertools.combinations(range(1, m + 1), k))))
    return LinearStratification(m, field, tuple(classes))
