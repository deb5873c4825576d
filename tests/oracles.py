"""Independent reference computations used to check the library.

Everything here is written against the definitions directly, sharing no code
paths with the package: a naive stable-graph generator with explicit
permutation-search isomorphism testing, the canonical key by a search over
every arrangement of equal vertices, a GF(2) cycle-space rank for the
first Betti number, simultaneous edge contraction by a union-find with a
separate numbering pass, the transitive closure of a relation, orbifold Euler
characteristics of moduli spaces of curves (Harer-Zagier's open values
summed over a stratification, and Keel's genus-0 recursion), a pointwise
normal-fiber stratifier on 0/1 grids, the
class order and its peeled layers tested on every support, the validation
of a stratification with the frontier condition tested on every ordered
pair of classes, every stratification by filtering all products of per-size
partitions, a coordinate relabelling of a stratification, a pointwise
decision of covers by unions of open boxes (and of the separation and cover
of chart images), the two-pass splitting cover test on ranked cells, a
support piece's cells on every real axis with a witness-giving cover test,
and a quadrature for hyperbolic horocycle lengths.
"""

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# naive stable graph enumeration

class RawGraph:
    """Plain labelled multigraph: genera list, edge pair list, tails list."""

    def __init__(self, genera, edges, tails):
        self.genera = list(genera)
        self.edges = [tuple(sorted(e)) for e in edges]
        self.tails = list(tails)  # tails[k] = vertex of tail label k+1

    def degree(self, v):
        d = 0
        for a, b in self.edges:
            if a == v:
                d += 1
            if b == v:
                d += 1
        return d

    def tail_count(self, v):
        return sum(1 for t in self.tails if t == v)

    def connected(self):
        nv = len(self.genera)
        seen = {0}
        frontier = [0]
        adj = {v: set() for v in range(nv)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == nv

    def stable(self):
        return all(
            2 - 2 * self.genera[v] - self.degree(v) - self.tail_count(v) < 0
            for v in range(len(self.genera))
        )

    def total_genus(self):
        return sum(self.genera) + len(self.edges) - len(self.genera) + 1

    def invariant(self, v):
        labels = tuple(sorted(k + 1 for k, t in enumerate(self.tails)
                              if t == v))
        loops = sum(1 for a, b in self.edges if a == b == v)
        return (self.genera[v], self.degree(v) + self.tail_count(v),
                loops, labels)

    def bucket_key(self):
        return (len(self.genera), len(self.edges),
                tuple(sorted(self.invariant(v)
                             for v in range(len(self.genera)))))

    def isomorphic(self, other):
        nv = len(self.genera)
        if nv != len(other.genera) or len(self.edges) != len(other.edges):
            return False
        mine = [self.invariant(v) for v in range(nv)]
        theirs = [other.invariant(v) for v in range(nv)]
        if sorted(mine) != sorted(theirs):
            return False
        slots = {}
        for v in range(nv):
            slots.setdefault(theirs[v], []).append(v)
        groups = {}
        for v in range(nv):
            groups.setdefault(mine[v], []).append(v)
        my_edges = sorted(self.edges)
        for images in itertools.product(
                *(itertools.permutations(slots[k]) for k in groups)):
            perm = [0] * nv
            for vs, img in zip(groups.values(), images):
                for s, i in zip(vs, img):
                    perm[s] = i
            mapped = sorted(tuple(sorted((perm[a], perm[b])))
                            for a, b in self.edges)
            if mapped != sorted(other.edges):
                continue
            if all(perm[self.tails[k]] == other.tails[k]
                   for k in range(len(self.tails))):
                return True
        return False


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _splits(labels, sizes):
    if not sizes:
        yield ()
        return
    for subset in itertools.combinations(labels, sizes[0]):
        rest_labels = [x for x in labels if x not in subset]
        for rest in _splits(rest_labels, sizes[1:]):
            yield (subset,) + rest


def naive_enumerate(g, n):
    """All iso classes of stable (g, n) graphs, as RawGraph representatives.

    Generates every connected multigraph with every genus assignment and
    every tail placement, keeps the stable ones of total genus g, and
    deduplicates by explicit isomorphism search.
    """
    assert 2 * g - 2 + n > 0
    buckets = {}
    reps = []
    max_v = max(1, 2 * g - 2 + n)
    max_e = 3 * g - 3 + n
    for nv in range(1, max_v + 1):
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
        for ne in range(nv - 1, max_e + 1):
            if ne - nv + 1 > g:
                continue
            for combo in itertools.combinations_with_replacement(pairs, ne):
                proto = RawGraph([0] * nv, combo, [])
                if not proto.connected():
                    continue
                degs = [proto.degree(v) for v in range(nv)]
                for genera in _compositions(g - (ne - nv + 1), nv):
                    need = [max(0, 3 - 2 * genera[v] - degs[v])
                            for v in range(nv)]
                    if sum(need) > n:
                        continue
                    for extra in _compositions(n - sum(need), nv):
                        sizes = [need[v] + extra[v] for v in range(nv)]
                        for split in _splits(tuple(range(1, n + 1)), sizes):
                            tails = [0] * n
                            for v, labels in enumerate(split):
                                for lab in labels:
                                    tails[lab - 1] = v
                            cand = RawGraph(genera, combo, tails)
                            assert cand.stable()
                            assert cand.total_genus() == g
                            key = cand.bucket_key()
                            bucket = buckets.setdefault(key, [])
                            if any(cand.isomorphic(old) for old in bucket):
                                continue
                            bucket.append(cand)
                            reps.append(cand)
    return reps


def gf2_cycle_rank(nv, edges):
    """First Betti number as |E| minus the GF(2) incidence rank.

    Loops have zero incidence columns, so they contribute directly to the
    cycle space, matching the topological count.
    """
    rows = []
    for a, b in edges:
        vec = 0
        if a != b:
            vec = (1 << a) | (1 << b)
        rows.append(vec)
    rank = 0
    basis = []
    for vec in rows:
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)
            rank += 1
    return len(edges) - rank


# ---------------------------------------------------------------------------
# the canonical key of a stable graph, by the search over every arrangement

def canonical_key_search(genera, edges, tails):
    """The encoding stable_graphs keys a graph by, as first defined.

    Vertices are sorted by (genus, valence, loop count, tail labels); every
    arrangement that permutes each run of equal invariants is tried, and the
    least (sorted relabelled edges, relabelled tails) is kept, prefixed by
    the vertex count and the sorted invariants.  It searches even when every
    run is a single vertex.
    """
    nv = len(genera)
    inv = []
    for v in range(nv):
        valence = sum((a == v) + (b == v) for a, b in edges) + tails.count(v)
        loops = sum(a == b == v for a, b in edges)
        labels = tuple(k + 1 for k, t in enumerate(tails) if t == v)
        inv.append((genera[v], valence, loops, labels))
    order = sorted(range(nv), key=inv.__getitem__)
    groups = [tuple(grp) for _, grp in
              itertools.groupby(order, key=inv.__getitem__)]
    best = None
    for arrangement in itertools.product(
            *map(itertools.permutations, groups)):
        perm = {old: new for new, old in
                enumerate(itertools.chain(*arrangement))}
        cand = (tuple(sorted(tuple(sorted((perm[u], perm[v])))
                             for u, v in edges)),
                tuple(perm[v] for v in tails))
        if best is None or cand < best:
            best = cand
    return (nv, tuple(inv[v] for v in order)) + best


# ---------------------------------------------------------------------------
# simultaneous edge contraction, as first defined

def contract_by_closure(genera, edges, tails, edge_ids):
    """(genera, edges, tails) of the graph with edge_ids contracted.

    A union-find with a nested find joins the contracted edges' ends, and a
    second pass numbers the components by the first vertex seen.  Each
    component's weight is its members' weights plus its first Betti number;
    surviving edges keep their order, each with its smaller end first.
    """
    D = set(edge_ids)
    parent = list(range(len(genera)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in D:
        u, v = edges[e]
        parent[find(u)] = find(v)
    comp_of = [find(v) for v in range(len(genera))]
    new_id = {}
    new_of = [new_id.setdefault(r, len(new_id)) for r in comp_of]
    new_genera = [1] * len(new_id)
    for v, i in enumerate(new_of):
        new_genera[i] += genera[v] - 1
    for e in D:
        new_genera[new_of[edges[e][0]]] += 1
    new_edges = []
    for e, (u, v) in enumerate(edges):
        if e not in D:
            a, b = new_of[u], new_of[v]
            new_edges.append((a, b) if a <= b else (b, a))
    return (tuple(new_genera), tuple(new_edges),
            tuple(new_of[v] for v in tails))


# ---------------------------------------------------------------------------
# the strict order of a poset, as the transitive closure of its covers

def transitive_closure(pairs):
    """Every (a, c) joined by a chain of one or more pairs, by Warshall's
    algorithm over the elements the pairs name."""
    reach = {}
    for a, b in pairs:
        reach.setdefault(a, set()).add(b)
        reach.setdefault(b, set())
    for k in reach:
        for a in reach:
            if k in reach[a]:
                reach[a] |= reach[k]
    return {(a, b) for a in reach for b in reach[a]}


# ---------------------------------------------------------------------------
# orbifold Euler characteristics of moduli spaces of curves

def bernoulli(m):
    """B_m (with B_1 = -1/2), from sum_{k <= j} C(j + 1, k) B_k = 0."""
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j))
                 / (j + 1))
    return b[m]


def chi_open(g, n):
    """chi(M_{g,n}) for 2g - 2 + n > 0 (Harer-Zagier, Invent. Math. 85,
    1986): chi(M_{g,1}) = -B_{2g}/(2g), chi(M_g) = chi(M_{g,1})/(2 - 2g),
    and each further point multiplies by the Euler characteristic of the
    punctured fibre, 2 - 2g - n."""
    if g == 0:
        return Fraction((-1) ** (n - 3) * math.factorial(n - 3))
    if n == 0:
        return chi_open(g, 1) / (2 - 2 * g)
    if n == 1:
        return -bernoulli(2 * g) / (2 * g)
    return (3 - 2 * g - n) * chi_open(g, n - 1)


def euler_sum(graphs, fibre=False):
    """Sum over (genera, edges, tails, |Aut|) of |Aut|^-1 prod_v chi(M_v).

    Over the classes of type (g, n) this is chi of the compactification,
    each open stratum being M_v's product modulo Aut.  With ``fibre`` each
    term is also weighted by 2 - 2g + |E|, the Euler characteristic of the
    nodal curve the graph describes, so the sum is chi of the universal
    curve over it, which is the compactification of type (g, n + 1).
    """
    total = Fraction(0)
    for genera, edges, tails, aut_order in graphs:
        valence = [0] * len(genera)
        for v in itertools.chain(*edges, tails):
            valence[v] += 1
        term = Fraction(1, aut_order)
        for g, m in zip(genera, valence):
            term *= chi_open(g, m)
        if fibre:
            genus = sum(genera) + len(edges) - len(genera) + 1
            term *= 2 - 2 * genus + len(edges)
        total += term
    return total


def keel_euler(n):
    """chi(M_{0,n} compactified) by Keel's recursion for the Poincare
    polynomial (Trans. AMS 330, 1992) at q = 1."""
    chi = {3: Fraction(1)}
    for k in range(3, n):
        chi[k + 1] = 2 * chi[k] + Fraction(1, 2) * sum(
            math.comb(k, j) * chi[j + 1] * chi[k - j + 1]
            for j in range(2, k - 1))
    return chi[n]


# ---------------------------------------------------------------------------
# pointwise normal-fiber stratification

def pointwise_normal_strata(m, classes, alpha, beta):
    """(N(V_alpha))_beta computed from sample points, not from the formula.

    For each base support I in class alpha, take every 0/1 fiber vector over
    the complementary coordinates, form the actual point of V, and record
    which total supports land in class beta.
    """
    result = {}
    j_beta = {frozenset(J) for J in classes[beta]}
    for I in classes[alpha]:
        I = frozenset(I)
        comp = [i for i in range(1, m + 1) if i not in I]
        hits = set()
        for bits in itertools.product((0, 1), repeat=len(comp)):
            point = {i: 1 for i in I}
            for i, b in zip(comp, bits):
                point[i] = b
            support = frozenset(i for i, v in point.items() if v != 0)
            if support in j_beta:
                hits.add(support)
        result[I] = hits
    return result


# ---------------------------------------------------------------------------
# the class order and its layers, from the definition

def containment_order(classes):
    """le[a][b]: every support of class a lies inside some support of b.

    Supports are bitmasks; every support of a is tested, not just one.
    """
    return [[all(any(I & J == I for J in B) for I in A) for B in classes]
            for A in classes]


def peeled_layers(classes):
    """Layers of the order: repeatedly remove the minimal remaining classes."""
    le = containment_order(classes)
    remaining = set(range(len(classes)))
    layers = []
    while remaining:
        layer = tuple(sorted(a for a in remaining
                             if not any(le[b][a] for b in remaining
                                        if b != a)))
        assert layer, "the order has a cycle"
        layers.append(layer)
        remaining -= set(layer)
    return tuple(layers)


# ---------------------------------------------------------------------------
# every stratification, by filtering the full product of per-size partitions

def _set_partitions(items):
    """Set partitions of a list, in the package's enumeration order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def product_candidates(m):
    """Every product of set partitions of the supports of each size, as a
    class tuple, in enumeration order."""
    levels = []
    for k in range(m + 1):
        supports = [sum(1 << (i - 1) for i in c)
                    for c in itertools.combinations(range(1, m + 1), k)]
        levels.append([tuple(sorted(tuple(sorted(g)) for g in part))
                       for part in _set_partitions(supports)])
    for combo in itertools.product(*levels):
        yield tuple(g for part in combo for g in part)


def stratifications_by_product(m):
    """Class tuples of every stratification of K^m, in enumeration order.

    Every product candidate is kept when no class has some, but not all, of
    its supports inside a support of another class (the frontier condition,
    tested on every ordered pair of classes).
    """
    return [classes for classes in product_candidates(m)
            if all(len({any(I & J == I for J in B) for I in A}) == 1
                   for A in classes for B in classes if A != B)]


def relabeled_classes(classes, perm):
    """The class tuple with coordinate i moved to perm[i - 1] (1-based).

    Each class keeps its index and its supports are sorted again, so class
    a of the result is the image of class a.
    """
    def move(mask):
        return sum(1 << (perm[i] - 1) for i in range(len(perm))
                   if mask >> i & 1)
    return tuple(tuple(sorted(map(move, masks))) for masks in classes)


def validate_all_pairs(m, classes, field):
    """(ok, violations) of a stratification, with the package's messages.

    The ground field, then per class emptiness, mixed cardinalities, range
    and repeats, then missing subsets; only when all of those pass, the
    frontier condition on every ordered pair of distinct classes.
    """
    def indices(I):
        return [i + 1 for i in range(m) if I >> i & 1]

    violations = []
    if field not in ("R", "C"):
        violations.append("unknown ground field %r" % (field,))
    seen = {}
    for a, masks in enumerate(classes):
        if not masks:
            violations.append("class %d is empty" % a)
            continue
        sizes = sorted({bin(I).count("1") for I in masks})
        if len(sizes) > 1:
            violations.append("class %d mixes cardinalities %s"
                              % (a, sizes))
        for I in masks:
            if not 0 <= I < (1 << m):
                violations.append("class %d contains an out-of-range subset"
                                  % a)
            elif I in seen:
                violations.append("subset %s appears in classes %d and %d"
                                  % (indices(I), seen[I], a))
            else:
                seen[I] = a
    missing = [indices(I) for I in range(1 << m) if I not in seen]
    if missing:
        violations.append("subsets missing from the partition: %s"
                          % missing)
    if not violations:
        for a, A in enumerate(classes):
            for b, B in enumerate(classes):
                inside = {any(I & J == I for J in B) for I in A}
                if a != b and len(inside) == 2:
                    violations.append(
                        "class %d partially meets the closure of class %d"
                        % (a, b))
    return not violations, tuple(violations)


# ---------------------------------------------------------------------------
# hyperbolic length of a horocycle by quadrature

def horocycle_length_quadrature(c, steps=20000):
    """Length of the image of Im z = y under the cusp metric |dz|/Im z.

    The curve |w| = c in the disk pulls back to the horizontal line at
    height y = -log(c) / (2 pi), traversed over one period x in [0, 1].
    Integrated by the composite Simpson rule.
    """
    assert 0 < c < math.exp(-2 * math.pi)
    y = -math.log(c) / (2 * math.pi)

    def speed(x):
        # |dz| along the unit-speed parametrization of the horizontal line
        return 1.0 / y

    if steps % 2:
        steps += 1
    h = 1.0 / steps
    total = speed(0.0) + speed(1.0)
    for k in range(1, steps):
        total += (4 if k % 2 else 2) * speed(k * h)
    return total * h / 3.0


# ---------------------------------------------------------------------------
# pointwise cover decision for unions of open boxes
#
# Intervals are pairs (lo, hi) of Fractions or +/- infinity floats.  Cut the
# line of each axis at every finite interval end: membership in any of the
# intervals is constant on each cut value and on each open piece between
# consecutive cuts, so testing one point of every product of pieces decides
# containment exactly.

def _representatives(ends):
    """One point of each piece of the line cut at the given ends."""
    cuts = sorted({x for x in ends if abs(x) != math.inf})
    if not cuts:
        return [Fraction(0)]
    mids = [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]
    return [cuts[0] - 1] + cuts + mids + [cuts[-1] + 1]


def _in_open_box(box, point):
    return all(lo < x < hi for (lo, hi), x in zip(box, point))


def covered_pointwise(cell, boxes):
    """Whether a cell lies in the union of open boxes.

    Each interval of the cell is open (lo < hi) or a single point
    (lo == hi)."""
    reps = [_representatives([x for iv in [cell[ax]] + [b[ax] for b in boxes]
                              for x in iv])
            for ax in range(len(cell))]
    for point in itertools.product(*reps):
        in_cell = all(x == lo if lo == hi else lo < x < hi
                      for (lo, hi), x in zip(cell, point))
        if in_cell and not any(_in_open_box(b, point) for b in boxes):
            return False
    return True


def covered_two_pass(cell, boxes):
    """A sub-cell of the cell that meets none of the open boxes, or None.

    The splitting cover test in two passes per popped sub-cell: collect
    every box that meets it, return it when there is none, drop it when
    one of them holds it, and otherwise split it at the corners of the
    first of them on the first axis where that box does not contain it.
    Ends are compared only with each other, so ranks serve as well as
    values."""
    stack = [cell]
    while stack:
        c = stack.pop()
        meeting = [b for b in boxes if all(
            blo < lo < bhi if lo == hi else blo < hi and lo < bhi
            for (blo, bhi), (lo, hi) in zip(b, c))]
        if not meeting:
            return c
        if any(all(lo == hi or blo <= lo and hi <= bhi
                   for (blo, bhi), (lo, hi) in zip(b, c)) for b in meeting):
            continue
        b = meeting[0]
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


# A support piece V^[J] on every real axis: the package asks each question
# on J's own axes instead, so this form is the reference it must match.  A
# box is pinned to the closure of the piece (0 on each axis off J), the
# pinned cell is split at 0 on each coordinate of J in the order the package
# splits (so witnesses compare), and the cover test is covered_two_pass on
# values, which returns the same sub-cell as on ranks.

def pinned(k, J, box):
    """The open box on the closure of the piece V^[J], as one cell on every
    axis (k per coordinate), or None when the piece misses the box: a side
    lo >= hi leaves it empty, and off J it must hold 0, where it is pinned
    to the point 0."""
    if any(lo >= hi for lo, hi in box):
        return None
    cell = list(box)
    for ax in range(len(box)):
        if not J >> (ax // k) & 1:
            if not cell[ax][0] < 0 < cell[ax][1]:
                return None
            cell[ax] = (0, 0)
    return tuple(cell)


def _nonzero_parts(iv):
    """The negative and positive parts of an open interval, if any."""
    lo, hi = iv
    return [p for p in ((lo, min(hi, 0)), (max(lo, 0), hi)) if p[0] < p[1]]


def piece_cells(k, J, box):
    """The cells of the piece V^[J] in the box, on every axis: its pinned
    cell split so that each coordinate of J is nonzero.  A real coordinate
    splits into its negative and positive parts; a complex one splits its
    real part likewise and, where the real part holds 0, its imaginary part
    over real part 0."""
    cell = pinned(k, J, box)
    cells = [] if cell is None else [cell]
    for a in range(0, len(box), k):
        if not J >> (a // k) & 1:
            continue
        split = []
        for c in cells:
            split += [c[:a] + (p,) + c[a + 1:] for p in _nonzero_parts(c[a])]
            if k == 2 and c[a][0] < 0 < c[a][1]:
                split += [c[:a] + ((0, 0), p) + c[a + 2:]
                          for p in _nonzero_parts(c[a + 1])]
        cells = split
    return cells


def _inside(lo, hi):
    """One value of the point or open interval from lo to hi."""
    if lo == hi:
        return lo
    if lo == -math.inf:
        return Fraction(0) if hi == math.inf else hi - 1
    return lo + 1 if hi == math.inf else (lo + hi) / 2


def uncovered_point(cells, boxes):
    """A point of the cells outside the union of the open boxes, one value
    per axis, or None.  The empty boxes are dropped, and the point is one
    of the first sub-cell that covered_two_pass leaves uncovered."""
    boxes = [b for b in boxes if all(lo < hi for lo, hi in b)]
    for cell in cells:
        gap = covered_two_pass(cell, boxes)
        if gap is not None:
            return tuple(_inside(lo, hi) for lo, hi in gap)
    return None


def subset_pointwise(m, k, inner, outer):
    """Whether the inner terms lie in the outer ones in K^m.

    A term (support, box) holds the points of exactly that support bitmask
    that lie in the open box; coordinate c owns the k real axes
    k*c .. k*c+k-1 and is nonzero when one of them is.  0 is a cut on every
    axis, so the support is constant on each piece too."""
    reps = [_representatives([0] + [x for _, b in inner + outer
                                     for x in b[ax]])
            for ax in range(m * k)]

    def holds(terms, support, point):
        return any(J == support and _in_open_box(b, point) for J, b in terms)

    for point in itertools.product(*reps):
        support = sum(1 << c for c in range(m)
                      if any(point[k * c:k * c + k]))
        if holds(inner, support, point) and not holds(outer, support, point):
            return False
    return True


def separation_cover_pointwise(num_axes, k, data, pairs, in_image):
    """Separation and cover failures of chart images, found point by point.

    data maps each stratum to its datum; only the box ends of its region
    terms and its fiber radii epsilon/scale are read, as cut values on every
    axis, together with 0.  Each chart image is a union of open boxes on the
    points of a support at least a base support, so membership is constant
    on each product of pieces of the cut lines, and one point per product
    decides both conditions.  pairs maps each incomparable pair (a, b) to
    the set of its common lower strata; in_image(a, point) is the membership
    of the point, given by its real coordinates, in the image of data[a].
    Returns the sorted failing (pair, support) and the sorted uncovered
    supports.
    """
    ends = [[0] for _ in range(num_axes)]
    for d in data.values():
        for ax in range(num_axes):
            e = d.epsilon / d.scales[ax // k]
            ends[ax] += [x for _, box in d.region.terms for x in box[ax]]
            ends[ax] += [-e, e]
    separation, cover = set(), set()
    for point in itertools.product(*map(_representatives, ends)):
        support = sum(1 << c for c in range(num_axes // k)
                      if any(point[k * c:k * c + k]))
        inside = {a for a in data if in_image(a, point)}
        if not inside:
            cover.add(support)
        for (a, b), lower in pairs.items():
            if {a, b} <= inside and not inside & lower:
                separation.add(((a, b), support))
    return sorted(separation), sorted(cover)


# ---------------------------------------------------------------------------
# deterministic rational sample streams

def rational_stream(seed, count):
    """Deterministic pseudorandom nonzero Fractions in [-2, 2]."""
    state = seed * 2654435761 % (2 ** 32)
    out = []
    while len(out) < count:
        state = (state * 1103515245 + 12345) % (2 ** 31)
        num = (state % 65) - 32
        state = (state * 1103515245 + 12345) % (2 ** 31)
        den = (state % 16) + 1
        if num == 0:
            continue
        out.append(Fraction(num, den))
    return out
