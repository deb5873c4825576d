"""Weighted stable dual graphs and their contraction poset.

A graph records nonnegative integer genus weights on vertices, a multiset of
edges (loops allowed), and labelled tails.  The module provides genus and
stability tests, simultaneous edge contraction, canonical forms up to
isomorphism fixing the tails pointwise, and automorphism groups.

The classes of a type (g, n) are enumerated by degeneration: starting from
the one-vertex graph of genus g with n tails, each class is degenerated at
one node in every possible way (a new loop, or a vertex split in two), level
by level.  A class with k edges appears at level k, and each degeneration
found is a cover of the contraction poset, since contracting the new edge
gives back the class it came from.  A split of a vertex is chosen by counts
over half-edges that the class's own automorphisms interchange: how many of
its loops move whole, how many by one half, and how many edges of each
bundle of parallel edges, with the tails as a subset.  Splits with the same
counts differ by permuting loops or parallel edges or flipping loops, which
fix every tail, so dropping all but one of them drops only isomorphic
duplicates; of a split and its side-swapped twin, one is taken.  One pass
thus yields the classes, the covers and the layer decomposition; the poset
stores only these, its order being the transitive closure of the covers.
The pass keys each candidate from its raw parts and builds a graph only for
a key not seen before; graphs made from valid graphs (contractions,
relabelings, class representatives) skip the public constructor's checks.
Each vertex's genus, valence, loops and tail labels are computed in one
helper, which stability, valence, dimension, canonical keys and
automorphisms all read.  A key holds them, so a class's dimension is read
off it, and it needs no search when no two invariants are equal.  The pass
numbers each class when its key is first seen and sorts the ids by key
once, at the end.
"""

from __future__ import annotations

import itertools

from . import Record, _set


class GraphError(ValueError):
    pass


class ConnectivityError(GraphError):
    pass


class StabilityError(GraphError):
    pass


def _union(parent, u, v):
    """Join the components of u and v, the larger root under the smaller,
    so each parent is at most its vertex and each root is its component's
    smallest vertex."""
    while parent[u] != u:
        u = parent[u]
    while parent[v] != v:
        v = parent[v]
    if u < v:
        parent[v] = u
    else:
        parent[u] = v


def _parts_of(genera, edges, tails, parent, mask, pairs):
    """Parts of the contraction by the edges in mask, from the parents that
    ``_union`` left along them.  Components are numbered by their smallest
    vertex, each with genus by closure: its members' genera plus its Betti
    number, cut edges inside minus vertices plus one.  Surviving edges keep
    their order, each the normal-form ``pairs[a][b]`` of its new ends."""
    new_of = []  # the component number of each vertex
    new_genera = []
    for v, p in enumerate(parent):
        if p == v:
            new_of.append(len(new_genera))
            new_genera.append(genera[v])
        else:  # p < v, so new_of[p] is its component's
            c = new_of[p]
            new_of.append(c)
            new_genera[c] += genera[v] - 1
    new_edges = []
    for u, v in edges:
        if mask & 1:
            new_genera[new_of[u]] += 1
        else:
            new_edges.append(pairs[new_of[u]][new_of[v]])
        mask >>= 1
    return (tuple(new_genera), tuple(new_edges),
            tuple(map(new_of.__getitem__, tails)))


def _pairs(nv):
    return [[(a, b) if a <= b else (b, a) for b in range(nv)]
            for a in range(nv)]


def _contracted(genera, edges, tails, cut):
    """StableGraph.contract on parts, by the set cut of valid edge ids: a
    ``_union`` per cut edge, then ``_parts_of``, as a row entry is made."""
    parent = list(range(len(genera)))
    for e in cut:
        _union(parent, *edges[e])
    return _parts_of(genera, edges, tails, parent,
                     sum(1 << e for e in set(cut)), _pairs(len(genera)))


def _contraction_row(genera, edges, tails):
    """The contraction by every edge mask, in mask order, in one pass: a
    mask's parents are those of the mask without its lowest edge plus one
    union, and its entry is ``_parts_of`` them, never one built from
    another entry.  The entries share their edge pairs."""
    pairs = _pairs(len(genera))
    parents = [list(range(len(genera)))]
    for mask in range(1, 1 << len(edges)):
        low = mask & -mask
        parent = parents[mask ^ low][:]
        _union(parent, *edges[low.bit_length() - 1])
        parents.append(parent)
    return [_parts_of(genera, edges, tails, parent, mask, pairs)
            for mask, parent in enumerate(parents)]


class StableGraph(Record):
    """A weighted dual graph.

    ``genera[v]`` is the genus weight of vertex ``v`` (vertices are
    ``0..len(genera)-1``).  ``edges[e]`` is an unordered endpoint pair stored
    as ``(u, v)`` with ``u <= v``; the two half-edges of edge ``e`` are
    ``(e, 0)`` attached at ``u`` and ``(e, 1)`` attached at ``v``.
    ``tails[k]`` is the vertex carrying the tail labelled ``k + 1``.
    """

    __slots__ = ("genera", "edges", "tails")

    def __init__(self, genera, edges, tails):
        genera = tuple(int(g) for g in genera)
        if not genera:
            raise GraphError("graph needs at least one vertex")
        if any(g < 0 for g in genera):
            raise GraphError("genus weights must be nonnegative")
        nv = len(genera)
        normal = []
        for e in edges:
            u, v = e
            if not (0 <= u < nv and 0 <= v < nv):
                raise GraphError("edge endpoint out of range: %r" % (e,))
            normal.append((u, v) if u <= v else (v, u))
        tails = tuple(int(t) for t in tails)
        if any(not 0 <= t < nv for t in tails):
            raise GraphError("tail vertex out of range")
        _set(self, "genera", genera)
        _set(self, "edges", tuple(normal))
        _set(self, "tails", tails)

    def _compared(self):  # Record's, spelled out: graphs compare often
        return self.genera, self.edges, self.tails

    @property
    def num_vertices(self):
        return len(self.genera)

    @property
    def num_edges(self):
        return len(self.edges)

    def valence(self, v):
        """m_v: tails plus half-edges at v (a loop contributes two)."""
        return _vertex_invariants(self.genera, self.edges, self.tails)[v][1]

    def is_connected(self):
        parent = list(range(self.num_vertices))
        for u, v in self.edges:
            _union(parent, u, v)
        return all(parent[v] != v for v in range(1, self.num_vertices))

    def genus(self):
        """Total genus: sum of weights plus the first Betti number."""
        if not self.is_connected():
            raise ConnectivityError("genus undefined for disconnected graph")
        b1 = self.num_edges - self.num_vertices + 1
        return sum(self.genera) + b1

    def is_stable(self):
        return all(2 - 2 * g - m < 0 for g, m, _, _ in
                   _vertex_invariants(self.genera, self.edges, self.tails))

    def dimension(self):
        """3g - 3 + n - |E|: on a connected graph, the sum over vertices of
        3g_v - 3 + m_v.  Stability is checked before connectivity."""
        dim = _dimension(_vertex_invariants(self.genera, self.edges,
                                            self.tails))
        self.genus()  # ConnectivityError on a disconnected graph
        return dim

    def contract(self, edge_ids):
        """Contract the edge subset simultaneously.

        Each connected component of the contracted subgraph collapses to one
        vertex whose weight is the sum of the member weights plus the first
        Betti number of the component, so the total genus is preserved.
        Surviving edges keep their relative order.  It stays public because
        perfbench's per-layer metrics name it.
        """
        D = set(edge_ids)
        for e in D:
            if not 0 <= e < len(self.edges):
                raise GraphError("edge id %r not in graph" % (e,))
        return StableGraph._of(*_contracted(self.genera, self.edges,
                                            self.tails, D))

    def relabeled(self, perm):
        """Apply a vertex relabeling; ``perm[v]`` is the new id of v."""
        if sorted(perm) != list(range(self.num_vertices)):
            raise GraphError("not a vertex permutation: %r" % (perm,))
        genera = [0] * self.num_vertices
        for v, g in enumerate(self.genera):
            genera[perm[v]] = g
        edges = tuple((perm[u], perm[v]) if perm[u] <= perm[v]
                      else (perm[v], perm[u]) for u, v in self.edges)
        tails = tuple(perm[v] for v in self.tails)
        return StableGraph._of(tuple(genera), edges, tails)

    @classmethod
    def _of(cls, genera, edges, tails):
        """Unchecked graph from normal-form parts (int tuples, u <= v)."""
        graph = object.__new__(cls)
        _set(graph, "genera", genera)
        _set(graph, "edges", edges)
        _set(graph, "tails", tails)
        return graph

    def canonical_form(self):
        """Canonical isomorphism class; tails fixed pointwise.

        The key is ``_canonical_key`` of the parts; the class graph is the
        one the key serializes, built without re-validation.
        """
        return _class_of(_canonical_key(self.genera, self.edges, self.tails))

    def to_json(self):
        return {
            "vertices": [{"id": v, "genus": g}
                         for v, g in enumerate(self.genera)],
            "edges": [{"half_edges": [[e, 0], [e, 1]], "ends": [u, v]}
                      for e, (u, v) in enumerate(self.edges)],
            "tails": {str(k + 1): v for k, v in enumerate(self.tails)},
        }

    @classmethod
    def from_json(cls, data):
        genera = {rec["id"]: rec["genus"] for rec in data["vertices"]}
        nv = len(data["vertices"])
        if genera.keys() != set(range(nv)):
            raise GraphError("vertex ids must be 0..nv-1")
        edges = tuple(tuple(rec["ends"]) for rec in data["edges"])
        tails_map = {int(k): v for k, v in data["tails"].items()}
        n = len(tails_map)
        if sorted(tails_map) != list(range(1, n + 1)):
            raise GraphError("tail labels must be 1..n")
        tails = tuple(tails_map[k] for k in range(1, n + 1))
        return cls(tuple(genera[v] for v in range(nv)), edges, tails)

    def describe(self):
        """Compact one-line form, stable across runs."""
        gs = ",".join(str(g) for g in self.genera)
        es = ",".join("%d-%d" % e for e in self.edges)
        ts = ",".join("%d:%d" % (k + 1, v) for k, v in enumerate(self.tails))
        return "g=(%s);e=(%s);t=(%s)" % (gs, es, ts)


class GraphClass(Record):
    """Isomorphism class of stable graphs, keyed by canonical encoding."""

    __slots__ = ("key", "graph")

    def _compared(self):  # equality and the hash read the key alone
        return (self.key,)

    def describe(self):
        return self.graph.describe()


def _vertex_invariants(genera, edges, tails):
    """Per vertex: genus, valence, loop count and tail labels."""
    valence = [0] * len(genera)
    loops = [0] * len(genera)
    labels = [()] * len(genera)
    for u, v in edges:
        valence[u] += 1
        valence[v] += 1
        if u == v:
            loops[u] += 1
    for k, v in enumerate(tails):
        valence[v] += 1
        labels[v] += (k + 1,)
    return list(zip(genera, valence, loops, labels))


def _dimension(invariants):
    """Sum of 3g_v - 3 + m_v over the vertices' invariants; StabilityError
    if a vertex is unstable (2g_v - 2 + m_v <= 0)."""
    dim = 0
    for g, m, _, _ in invariants:
        if 2 * g + m < 3:
            raise StabilityError("dimension requires a stable graph")
        dim += 3 * g - 3 + m
    return dim


def _canonical_key(genera, edges, tails):
    """Canonical encoding of the graph with these parts; tails fixed.

    Minimizes the serialized form over all vertex orderings that sort
    vertices by an isomorphism-invariant key, so equal encodings are
    equivalent to tail-respecting isomorphism.  With distinct invariants
    every group is a singleton, so the sorted order is the only such
    ordering and the key is read off it.  Each edge is read as an
    unordered pair, so the parts need not be in normal form.
    """
    inv = _vertex_invariants(genera, edges, tails)
    nv = len(genera)
    order = sorted(range(nv), key=inv.__getitem__)
    ranked = tuple(map(inv.__getitem__, order))
    if len(set(ranked)) == nv:  # every group a singleton
        arrangements = (order,)
    else:  # the sorted order with each run of equal invariants permuted
        arrangements = map(itertools.chain.from_iterable, itertools.product(
            *(itertools.permutations(grp) for _, grp in
              itertools.groupby(order, key=inv.__getitem__))))
    best = None
    new = [0] * nv
    for arrangement in arrangements:
        for i, v in enumerate(arrangement):
            new[v] = i
        cand = (tuple(sorted((new[u], new[v]) if new[u] <= new[v]
                             else (new[v], new[u]) for u, v in edges)),
                tuple(map(new.__getitem__, tails)))
        if best is None or cand < best:
            best = cand
    return (nv, ranked) + best


def _class_of(key):
    """The class a canonical key encodes, with the graph it serializes."""
    return GraphClass(key, StableGraph._of(tuple(i[0] for i in key[1]),
                                           key[2], key[3]))


def _key_dimension(key):
    """Dimension of the class a key encodes, read off its invariants."""
    return _dimension(key[1])


class Automorphism(Record):
    """Structure-preserving permutation fixing every labelled tail."""

    # half_edge_map: (e, h) image indexed by 2*e + h
    __slots__ = ("vertex_perm", "half_edge_map")

    def edge_perm(self):
        return tuple(self.half_edge_map[2 * e][0]
                     for e in range(len(self.half_edge_map) // 2))


class AutomorphismGroup(Record):
    __slots__ = ("elements",)

    @property
    def order(self):
        return len(self.elements)


def automorphism_group(graph):
    """All automorphisms, by brute force over compatible vertex orderings.

    Tail labels are part of the vertex invariant, so every ordering tried
    fixes each tail's vertex.  The edges between a vertex pair go to the
    edges between its image pair in every order; a loop's two half-edges
    go to either side of its image, and a non-loop half-edge goes to the
    side at the image of its vertex.
    """
    edges = graph.edges
    inv = _vertex_invariants(graph.genera, edges, graph.tails)
    groups = {}
    for v, key in enumerate(inv):
        groups.setdefault(key, []).append(v)
    by_pair = {}
    for e, pair in enumerate(edges):
        by_pair.setdefault(pair, []).append(e)
    loops = [e for (u, v), es in by_pair.items() if u == v for e in es]
    elements = []
    for images in itertools.product(
            *(itertools.permutations(g) for g in groups.values())):
        perm = [0] * len(inv)
        for src_group, img_group in zip(groups.values(), images):
            for s, i in zip(src_group, img_group):
                perm[s] = i
        target = [by_pair.get(tuple(sorted((perm[u], perm[v]))), ())
                  for u, v in by_pair]
        if any(len(t) != len(es) for t, es in zip(target, by_pair.values())):
            continue
        for edge_images in itertools.product(
                *map(itertools.permutations, target)):
            base = {e: e2 for es, imgs in zip(by_pair.values(), edge_images)
                    for e, e2 in zip(es, imgs)}
            for flips in itertools.product((0, 1), repeat=len(loops)):
                flip = dict(zip(loops, flips))
                half = []
                for e, (u, v) in enumerate(edges):
                    e2 = base[e]
                    side = flip[e] if u == v else int(edges[e2][0] != perm[u])
                    half += [(e2, side), (e2, 1 - side)]
                elements.append(Automorphism(tuple(perm), tuple(half)))
    return AutomorphismGroup(tuple(elements))


def _degenerations(graph):
    """Every one-edge degeneration of graph up to isomorphism, as raw
    (genera, edges, tails), some of them more than once.

    At each vertex v: add a loop and lower the weight by one, or split v
    into v and a new vertex joined by a new edge, distributing the weight
    and every half-edge and tail at v over the two sides so that both stay
    stable.  Contracting the new edge gives back graph.  One scan buckets
    the edges and tails by vertex: at v, its loops, its other edges grouped
    by far end into bundles of parallel edges, and its tails.  A split is
    chosen by counts: a loops move whole and b by one half, c of each
    bundle's edges move, then a subset of the tails and the new vertex's
    weight g1.  Permuting the loops at v, flipping a loop and permuting a
    bundle are automorphisms of graph that fix every tail, so two splits
    with the same counts, tails and weight are isomorphic: only the first
    loops and bundle edges move.  Swapping the two sides of a split gives
    an isomorphic graph, so each split is yielded once: if v has a tail its
    first tail stays at v, and otherwise the counts (a, c_1, ...) may not
    exceed those left at v (L - a - b, k_1 - c_1, ...), nor g1 the weight
    left at v when the two are equal.  A count whose number of moved half-
    edges and tails leaves no stable weight is dropped before any part is
    built.
    """
    genera, edges, tails = graph.genera, graph.edges, graph.tails
    nv = len(genera)
    ends = [[] for _ in genera]  # (far end, edge id) per half-edge
    for e, (u, w) in enumerate(edges):
        ends[u].append((w, e))
        ends[w].append((u, e))
    at = [[] for _ in genera]
    for k, t in enumerate(tails):
        at[t].append(k)
    for v, gv in enumerate(genera):
        if gv:
            yield (genera[:v] + (gv - 1,) + genera[v + 1:],
                   edges + ((v, v),), tails)
        m = len(ends[v]) + len(at[v])
        if 2 * gv + m < 4:  # no split leaves both sides stable
            continue
        loops, bundles = [], {}
        for w, e in ends[v]:
            if w == v:
                loops.append(e)
            else:
                bundles.setdefault(w, []).append(e)
        loops = loops[::2]  # a loop's two halves are listed together
        nl, movable = len(loops), at[v][1:]
        sizes = [len(es) for es in bundles.values()]
        # split[g1]: the genera when the new vertex takes weight g1
        split = [genera[:v] + (gv - g1,) + genera[v + 1:] + (g1,)
                 for g1 in range(gv + 1)]
        # fits[x]: the weights g1 of the new vertex that keep both sides
        # stable when x half-edges and tails move: 2 g1 + x >= 2 and
        # 2 (gv - g1) + m - x >= 2
        fits = [range(max(0, (3 - x) // 2),
                      gv + 1 - max(0, (3 - m + x) // 2)) for x in range(m + 1)]
        for (a, b), *cs in itertools.product(
                [(a, b) for a in range(nl + 1) for b in range(nl + 1 - a)],
                *(range(k + 1) for k in sizes)):
            h = 2 * a + b + sum(cs)
            if at[v]:  # weights[t]: those when t more tails move
                weights = fits[h:h + len(movable) + 1]
                if not any(weights):
                    continue
            else:
                mine = [a, *cs]
                theirs = [nl - a - b, *(k - c for k, c in zip(sizes, cs))]
                ws = fits[h]
                if mine > theirs or not ws:
                    continue
                if mine == theirs:
                    ws = range(ws.start, min(ws.stop, gv // 2 + 1))
                weights = [ws]
            new_edges = [*edges, (v, nv)]
            for e in loops[:a]:
                new_edges[e] = (nv, nv)
            for e in loops[a:a + b]:
                new_edges[e] = (v, nv)
            for (w, es), c in zip(bundles.items(), cs):
                for e in es[:c]:
                    new_edges[e] = (w, nv)
            new_edges = tuple(new_edges)
            for t, ws in enumerate(weights):
                if not ws:
                    continue
                for chosen in itertools.combinations(movable, t):
                    new_tails = list(tails)
                    for k in chosen:
                        new_tails[k] = nv
                    new_tails = tuple(new_tails)
                    for g1 in ws:
                        yield split[g1], new_edges, new_tails


def _degeneration_pass(g, n):
    """Classes of type (g, n) and their covers, by repeated degeneration.

    Returns the classes sorted by key, the cover pairs (child, parent) as
    indices into that order, and the levels: ``levels[k]`` lists the sorted
    indices of the classes with k edges.  Every cover is found, since if
    C/e is isomorphic to P then C is a degeneration of P's representative.
    """
    if g < 0 or n < 0:
        raise GraphError("g and n must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise StabilityError("no stable graphs for 2g-2+n <= 0")
    root = StableGraph((g,), (), (0,) * n).canonical_form()
    ids = {root.key: 0}  # key -> class id, in the order first found
    found = [root]
    levels = [[0]]
    covers = set()
    while levels[-1]:
        fresh = []
        for parent in levels[-1]:
            for parts in _degenerations(found[parent].graph):
                key = _canonical_key(*parts)
                child = ids.setdefault(key, len(found))
                if child == len(found):
                    found.append(_class_of(key))
                    fresh.append(child)
                covers.add((child, parent))
        levels.append(fresh)
    levels.pop()
    order = sorted(range(len(found)), key=lambda i: found[i].key)
    rank = {i: r for r, i in enumerate(order)}
    covers = {(rank[a], rank[b]) for a, b in covers}
    levels = [sorted(map(rank.__getitem__, level)) for level in levels]
    return tuple(map(found.__getitem__, order)), covers, levels


def enumerate_stable_graphs(g, n):
    """All isomorphism classes of stable graphs of type (g, n), sorted.

    Enumerates by degeneration from the one-vertex graph: every class is
    reached from a class with one edge fewer by adding a loop or splitting
    a vertex, and each candidate is keyed and deduplicated.
    """
    return _degeneration_pass(g, n)[0]


class StrataPoset(Record):
    """Contraction poset of graph classes for one type (g, n).

    ``covers`` holds the one-edge contractions as index pairs ``(a, b)``:
    contracting one edge of ``elements[a]`` gives ``elements[b]``.  The
    strict order ``a ≺ b`` (contracting some nonempty edge set of a gives
    b) is the transitive closure of ``covers``.  ``layers[k]`` is the k-th
    batch of the layered construction: the minimal elements of what
    remains after removing earlier layers, which are the classes with k
    edges fewer than the most degenerate ones.  ``top`` is the class with
    no edges.
    """

    __slots__ = ("signature", "elements", "covers", "layers", "top")

    def to_json(self):
        return {
            "signature": list(self.signature),
            "elements": [c.describe() for c in self.elements],
            "dimensions": [c.graph.dimension() for c in self.elements],
            "covers": sorted([a, b] for a, b in self.covers),
            "layers": [list(layer) for layer in self.layers],
            "top": self.top,
        }

    def to_dot(self):
        """Hasse diagram in DOT, nodes annotated with dimensions."""
        lines = ["digraph strata_poset {", "  rankdir=BT;"]
        for i, c in enumerate(self.elements):
            lines.append('  n%d [label="%s\\ndim=%d"];'
                         % (i, c.describe(), c.graph.dimension()))
        for a, b in sorted(self.covers):
            lines.append("  n%d -> n%d;" % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(g, n):
    elements, covers, levels = _degeneration_pass(g, n)
    return StrataPoset(
        signature=(g, n),
        elements=elements,
        covers=frozenset(covers),
        layers=tuple(tuple(level) for level in reversed(levels)),
        top=levels[0][0],
    )
