import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from strataglue.stable_graphs import (
    ConnectivityError,
    GraphError,
    StabilityError,
    StableGraph,
    automorphism_group,
    build_poset,
    enumerate_stable_graphs,
)
from strataglue.stable_graphs import (_canonical_key, _degenerations,
                                      _key_dimension)
from strataglue.dm_strata import edge_stratification

import oracles

# the signatures of the benchmark's graphs workload, in its order
GRAPH_SIGNATURES = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3),
                    (1, 4), (2, 0), (2, 1), (2, 2), (3, 0)]
# the acceptance gate's signatures: every one with 3g - 3 + n <= 4
GATE_SIGNATURES = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
                   (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1)]
# every signature with 3g - 3 + n <= 5 but (0, 8), and (2, 3), (3, 0),
# (3, 1), (4, 0), and (2, 4), (3, 2), (4, 1) over those three: the
# Euler-characteristic checks
EULER_SIGNATURES = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
                    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
                    (2, 0), (2, 1), (2, 2), (2, 3), (2, 4),
                    (3, 0), (3, 1), (3, 2), (4, 0), (4, 1)]
# signatures at 3g - 3 + n = 6, dense in loops and parallel edges
DEGENERATE_SIGNATURES = [(2, 3), (3, 1), (4, 0)]


def G(genera, edges, tails):
    return StableGraph(tuple(genera), tuple(edges), tuple(tails))


class TestGenus:
    def test_weight_only(self):
        assert G([2], [], []).genus() == 2

    def test_single_loop(self):
        assert G([0], [(0, 0)], []).genus() == 1

    def test_parallel_edges_cycle_rank(self):
        g = G([1, 0], [(0, 1), (0, 1)], [])
        assert g.genus() == 2
        # b1 cross-checked against a GF(2) cycle-space rank
        assert oracles.gf2_cycle_rank(2, g.edges) == 1

    def test_disconnected_rejected(self):
        g = G([1, 1], [], [1])
        with pytest.raises(ConnectivityError):
            g.genus()

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=0, max_size=6),
           st.lists(st.integers(0, 2), min_size=4, max_size=4))
    def test_b1_matches_gf2_rank(self, edges, genera):
        g = StableGraph(tuple(genera), tuple(edges), ())
        if not g.is_connected():
            return
        b1 = g.genus() - sum(genera)
        assert b1 == oracles.gf2_cycle_rank(4, g.edges)


class TestStability:
    def test_three_valent_genus_zero(self):
        assert G([0], [], [0, 0, 0]).is_stable()

    def test_two_valent_genus_zero(self):
        assert not G([0], [], [0, 0]).is_stable()

    def test_bare_genus_one(self):
        assert not G([1], [], []).is_stable()


class TestContract:
    def test_empty_contraction_is_identity(self):
        g = G([1], [(0, 0)], [0])
        assert g.contract(set()) == g

    def test_loop_contraction_raises_weight(self):
        g = G([1], [(0, 0)], [0])
        c = g.contract({0})
        assert c == G([2], [], [0])
        assert c.genus() == g.genus()

    def test_edge_contraction_sums_weights(self):
        g = G([1, 0], [(0, 1)], [0, 1, 1])
        c = g.contract({0})
        assert c == G([1], [], [0, 0, 0])
        assert c.genus() == g.genus()

    def test_unknown_edge_rejected(self):
        with pytest.raises(GraphError):
            G([1], [(0, 0)], [0]).contract({3})

    @pytest.mark.parametrize("g,n", [(0, 6), (1, 4), (2, 2), (3, 0)])
    def test_matches_closure_reference(self, g, n):
        """contract equals the closure-based definition as a labelled graph
        (genera, edges, tails and vertex numbering) on every edge subset of
        every class, and of a seeded relabelling of it; an edge id out of
        range raises."""
        rng = random.Random(10 * g + n)
        for gc in enumerate_stable_graphs(g, n):
            perm = list(range(gc.graph.num_vertices))
            rng.shuffle(perm)
            for graph in (gc.graph, gc.graph.relabeled(perm)):
                ne = graph.num_edges
                for mask in range(1 << ne):
                    D = {e for e in range(ne) if mask >> e & 1}
                    c = graph.contract(D)
                    assert (c.genera, c.edges, c.tails) == (
                        oracles.contract_by_closure(
                            graph.genera, graph.edges, graph.tails, D))
                for bad in (-1, ne):
                    with pytest.raises(GraphError):
                        graph.contract({0, bad} if ne else {bad})

    def test_genus_and_stability_preserved(self):
        for gc in enumerate_stable_graphs(1, 2):
            g = gc.graph
            for r in range(1, g.num_edges + 1):
                for D in itertools.combinations(range(g.num_edges), r):
                    c = g.contract(set(D))
                    assert c.genus() == g.genus()
                    assert c.is_stable()
                    assert c.dimension() == g.dimension() + len(D)

    def test_composition_law(self):
        # contracting I then the image of I' \ I equals contracting I u I'
        for gc in enumerate_stable_graphs(2, 0):
            g = gc.graph
            edge_ids = range(g.num_edges)
            for I in map(set, itertools.chain.from_iterable(
                    itertools.combinations(edge_ids, r)
                    for r in range(g.num_edges + 1))):
                emap = {e: i for i, e in enumerate(sorted(set(edge_ids) - I))}
                mid = g.contract(I)
                for Ip in map(set, itertools.chain.from_iterable(
                        itertools.combinations(edge_ids, r)
                        for r in range(g.num_edges + 1))):
                    image = {emap[e] for e in Ip - I}
                    lhs = g.contract(I | Ip).canonical_form()
                    rhs = mid.contract(image).canonical_form()
                    assert lhs == rhs


class TestCanonicalForm:
    def test_vertex_relabel_invariance(self):
        g1 = G([1, 0], [(0, 1)], [1, 1, 1])
        g2 = G([0, 1], [(0, 1)], [0, 0, 0])
        assert g1.canonical_form() == g2.canonical_form()

    def test_distinct_vertex_counts_differ(self):
        loop = G([0], [(0, 0)], [0])
        bridge = G([0, 1], [(0, 1)], [0])
        assert loop.canonical_form() != bridge.canonical_form()

    def test_tail_splits_of_0_4(self):
        # one-edge (0,4) graphs: 4! tail orders fall into 3 split classes
        classes = set()
        for order in itertools.permutations(range(4)):
            tails = [0] * 4
            tails[order[0]] = 0
            tails[order[1]] = 0
            tails[order[2]] = 1
            tails[order[3]] = 1
            classes.add(G([0, 0], [(0, 1)], tails).canonical_form())
        assert len(classes) == 3

    def test_congruence_with_oracle_search(self):
        reps = [gc.graph for gc in enumerate_stable_graphs(1, 2)]
        raws = [oracles.RawGraph(g.genera, g.edges, g.tails) for g in reps]
        for i, a in enumerate(raws):
            for j, b in enumerate(raws):
                same = reps[i].canonical_form() == reps[j].canonical_form()
                assert same == (i == j)
                assert a.isomorphic(b) == (i == j)

    @given(st.permutations(list(range(3))))
    def test_relabeled_graph_same_class(self, perm):
        g = G([0, 1, 0], [(0, 1), (1, 2), (0, 2)], [0, 2])
        assert g.relabeled(perm).canonical_form() == g.canonical_form()

    def test_relabeled_rejects_non_permutation(self):
        g = G([0, 1, 0], [(0, 1), (1, 2), (0, 2)], [0, 2])
        for perm in ([0, 0, 1], [0, 1, 3], [-1, 0, 1], [0, 1]):
            with pytest.raises(GraphError):
                g.relabeled(perm)

    @pytest.mark.parametrize("g,n", GRAPH_SIGNATURES)
    def test_key_invariant_and_fixed_point(self, g, n):
        # the key of scrambled raw parts: vertices relabelled, edges
        # reordered, endpoints swapped
        rng = random.Random(100 * g + n)
        for gc in enumerate_stable_graphs(g, n):
            rep = gc.graph
            perm = list(range(rep.num_vertices))
            rng.shuffle(perm)
            genera = [0] * rep.num_vertices
            for v, w in enumerate(rep.genera):
                genera[perm[v]] = w
            edges = [(perm[v], perm[u]) if rng.random() < 0.5
                     else (perm[u], perm[v]) for u, v in rep.edges]
            rng.shuffle(edges)
            tails = tuple(perm[v] for v in rep.tails)
            assert _canonical_key(tuple(genera), tuple(edges), tails) \
                == gc.key
            again = rep.canonical_form()
            assert again == gc and again.graph == rep

    def test_key_matches_the_search_on_every_candidate(self):
        # one degeneration pass over the benchmark signatures; a key's
        # sorted invariants repeat exactly where the key is searched
        total = repeated = 0
        for g, n in GRAPH_SIGNATURES:
            for gc in enumerate_stable_graphs(g, n):
                for parts in _degenerations(gc.graph):
                    key = _canonical_key(*parts)
                    assert key == oracles.canonical_key_search(*parts)
                    total += 1
                    repeated += len(set(key[1])) < key[0]
        # one candidate per split up to permuting loops and parallel edges
        assert (total, repeated) == (1391, 112)

    @pytest.mark.parametrize("g,n", [(0, 4), (0, 5), (1, 1), (1, 2), (2, 2)])
    def test_key_matches_the_search_on_contractions(self, g, n):
        for gc in enumerate_stable_graphs(g, n):
            for c in edge_stratification(gc).contractions:
                assert _canonical_key(*c) == oracles.canonical_key_search(*c)

    def test_frozen_digest(self):
        # classes and posets of the benchmark signatures, byte for byte
        h = hashlib.sha256()
        for g, n in GRAPH_SIGNATURES:
            h.update(repr([(c.key, c.graph.genera, c.graph.edges,
                            c.graph.tails)
                           for c in enumerate_stable_graphs(g, n)]).encode())
            h.update(json.dumps(build_poset(g, n).to_json(),
                                sort_keys=True).encode())
        assert h.hexdigest() == ("6cf35b57a65e4a4de76f0847cdd85382"
                                 "457c353ffe2885d630a55fee72b1310f")


def assert_as_public(graph):
    """A graph built unchecked equals the validating constructor's, with
    the same field tuples (normal form: ints, each edge with u <= v)."""
    public = StableGraph(graph.genera, graph.edges, graph.tails)
    assert graph == public
    for name in ("genera", "edges", "tails"):
        field = getattr(graph, name)
        assert type(field) is tuple
        assert repr(field) == repr(getattr(public, name))


class TestPrivateConstructor:
    @pytest.mark.parametrize("g,n", GATE_SIGNATURES)
    def test_contract_matches_public(self, g, n):
        for gc in enumerate_stable_graphs(g, n):
            ne = gc.graph.num_edges
            for mask in range(1 << ne):
                assert_as_public(gc.graph.contract(
                    {e for e in range(ne) if mask >> e & 1}))

    @pytest.mark.parametrize("g,n", GATE_SIGNATURES)
    def test_relabeled_and_canonical_match_public(self, g, n):
        rng = random.Random(10 * g + n)
        for gc in enumerate_stable_graphs(g, n):
            assert_as_public(gc.graph)
            perm = list(range(gc.graph.num_vertices))
            rng.shuffle(perm)
            moved = gc.graph.relabeled(perm)
            assert_as_public(moved)
            assert_as_public(moved.canonical_form().graph)

    def test_contract_normalises_edges(self):
        # contracting edge 0 merges vertices 0 and 2, so edge (1, 2)
        # becomes (1, 0) before it is normalised
        g = G([0, 0, 0], [(0, 2), (1, 2), (0, 1)], [0, 1, 1, 2])
        c = g.contract({0})
        assert c.edges == ((0, 1), (0, 1))
        assert_as_public(c)


class TestAutomorphisms:
    def test_rigid_three_pointed_sphere(self):
        assert automorphism_group(G([0], [], [0, 0, 0])).order == 1

    def test_two_loops_order_eight(self):
        grp = automorphism_group(G([0], [(0, 0), (0, 0)], []))
        assert grp.order == 8

    def test_vertex_swap_order_two(self):
        grp = automorphism_group(G([1, 1], [(0, 1)], []))
        assert grp.order == 2

    def test_tails_pin_vertices(self):
        grp = automorphism_group(G([1, 1], [(0, 1)], [0]))
        assert grp.order == 1

    def test_closure_under_composition(self):
        g = G([0], [(0, 0), (0, 0)], [])
        grp = automorphism_group(g)
        perms = {a.half_edge_map for a in grp.elements}
        for a in grp.elements:
            for b in grp.elements:
                comp = tuple(
                    b.half_edge_map[2 * e + h]
                    for e, h in a.half_edge_map
                )
                assert comp in perms

    def test_frozen_digest(self):
        # every element of every class's group over the benchmark
        # signatures, in the order the search yields them
        h = hashlib.sha256()
        for g, n in GRAPH_SIGNATURES:
            for c in enumerate_stable_graphs(g, n):
                h.update(repr(automorphism_group(c.graph).elements).encode())
        assert h.hexdigest() == ("00029c81fa9cd660bf8388898c466907"
                                 "054bf342809b78416106d5936993e76e")

    @pytest.mark.parametrize("g,n", GATE_SIGNATURES)
    def test_elements_are_automorphisms(self, g, n):
        # each element checked on the graph itself, not through the search
        for gc in enumerate_stable_graphs(g, n):
            graph = gc.graph
            halves = [(e, h) for e in range(graph.num_edges) for h in (0, 1)]
            elements = automorphism_group(graph).elements
            assert len(set(elements)) == len(elements)
            for a in elements:
                perm, half = a.vertex_perm, a.half_edge_map
                assert sorted(perm) == list(range(graph.num_vertices))
                assert [graph.genera[w] for w in perm] == list(graph.genera)
                assert all(perm[v] == v for v in graph.tails)
                assert sorted(half) == halves
                for e in range(graph.num_edges):
                    (e2, h0), (e3, h1) = half[2 * e], half[2 * e + 1]
                    assert e2 == e3 and h0 != h1
                for (e, h), (e2, h2) in zip(halves, half):
                    assert graph.edges[e2][h2] == perm[graph.edges[e][h]]


@functools.lru_cache(maxsize=None)
def euler_terms(g, n):
    """(genera, edges, tails, |Aut|) of every class of type (g, n)."""
    return tuple((c.graph.genera, c.graph.edges, c.graph.tails,
                  automorphism_group(c.graph).order)
                 for c in enumerate_stable_graphs(g, n))


class TestEulerCharacteristic:
    """The classes and automorphism orders against orbifold Euler
    characteristics from sources that share nothing with the enumerator."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_genus_zero_matches_keel(self, n):
        assert oracles.euler_sum(euler_terms(0, n)) == oracles.keel_euler(n)

    def test_genus_one_one_point(self):
        assert oracles.euler_sum(euler_terms(1, 1)) == Fraction(5, 12)

    @pytest.mark.parametrize("g,n", [(g, n) for g, n in EULER_SIGNATURES
                                     if (g, n + 1) in EULER_SIGNATURES])
    def test_universal_curve(self, g, n):
        # chi of type (g, n + 1) is chi of the universal curve over (g, n)
        assert oracles.euler_sum(euler_terms(g, n + 1)) == \
            oracles.euler_sum(euler_terms(g, n), fibre=True)


class TestEnumeration:
    def test_frozen_counts(self):
        assert len(enumerate_stable_graphs(0, 3)) == 1
        assert len(enumerate_stable_graphs(0, 4)) == 4
        assert len(enumerate_stable_graphs(1, 1)) == 2
        # the genus >= 1 values agree with Bini-Harer (J. Eur. Math. Soc.
        # 13, 2011); (0, 8)'s 39208 classes take about 10 s and are left out
        for (g, n), count in {(1, 5): 1576, (2, 3): 555, (3, 1): 181,
                              (4, 0): 379}.items():
            assert len(enumerate_stable_graphs(g, n)) == count
            assert len(build_poset(g, n).elements) == count

    def test_unstable_signature_rejected(self):
        with pytest.raises(StabilityError):
            enumerate_stable_graphs(0, 2)

    @pytest.mark.parametrize("g,n", [(-1, 5), (2, -1), (-1, 0)])
    def test_negative_signature_rejected(self, g, n):
        with pytest.raises(GraphError):
            enumerate_stable_graphs(g, n)
        with pytest.raises(GraphError):
            build_poset(g, n)

    @pytest.mark.parametrize("g,n", [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0),
                                     (1, 3), (2, 1)])
    def test_matches_naive_generator(self, g, n):
        ours = {gc.key for gc in enumerate_stable_graphs(g, n)}
        naive = oracles.naive_enumerate(g, n)
        naive_keys = {StableGraph(r.genera, r.edges, r.tails)
                      .canonical_form().key for r in naive}
        assert len(naive_keys) == len(naive)
        assert ours == naive_keys

    @pytest.mark.parametrize("g,n,count", [(0, 4, 3), (0, 5, 10),
                                           (1, 2, 2), (2, 0, 2)])
    def test_root_degenerations_once_per_split(self, g, n, count):
        # a split and its side-swapped twin are one candidate, not two
        root = G([g], [], [0] * n)
        assert len(list(_degenerations(root))) == count

    @pytest.mark.parametrize("g,n,count", [(2, 3, 1947), (3, 1, 633),
                                           (4, 0, 1618)])
    def test_degeneration_candidates(self, g, n, count):
        # one candidate per split up to permuting loops and parallel edges,
        # at signatures where most classes have them
        assert sum(len(list(_degenerations(gc.graph)))
                   for gc in enumerate_stable_graphs(g, n)) == count

    def test_closed_under_contraction(self):
        keys = {gc.key for gc in enumerate_stable_graphs(1, 2)}
        for gc in enumerate_stable_graphs(1, 2):
            g = gc.graph
            for e in range(g.num_edges):
                assert g.contract({e}).canonical_form().key in keys

    def test_edge_bound(self):
        for gc in enumerate_stable_graphs(2, 0):
            assert gc.graph.num_edges <= 3


class TestPoset:
    def test_0_4_shape(self):
        p = build_poset(0, 4)
        assert len(p.elements) == 4
        assert p.elements[p.top].graph.num_edges == 0
        # minimal: no cover, hence no chain of covers, ends at it
        minimal = [i for i in range(4)
                   if not any((j, i) in p.covers for j in range(4))]
        assert len(minimal) == 3
        assert all((i, p.top) in p.covers for i in minimal)

    def test_1_1_chain(self):
        p = build_poset(1, 1)
        assert len(p.elements) == 2
        assert len(p.layers) == 2

    def test_unique_top_zero_edges(self):
        for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0)]:
            p = build_poset(g, n)
            assert p.elements[p.top].graph.num_edges == 0

    def test_layers_partition_and_first_layer(self):
        p = build_poset(1, 2)
        seen = [i for layer in p.layers for i in layer]
        assert sorted(seen) == list(range(len(p.elements)))
        max_e = max(c.graph.num_edges for c in p.elements)
        assert set(p.layers[0]) == {
            i for i, c in enumerate(p.elements)
            if c.graph.num_edges == max_e}

    def test_layers_are_antichains(self):
        p = build_poset(1, 2)
        order = oracles.transitive_closure(p.covers)
        for layer in p.layers:
            for a in layer:
                for b in layer:
                    if a != b:
                        assert (a, b) not in order

    @pytest.mark.parametrize("g,n", GRAPH_SIGNATURES + DEGENERATE_SIGNATURES)
    def test_covers_are_the_one_edge_contractions(self, g, n):
        """The covers against a source that never degenerates: the classes
        of each class's one-edge contractions are exactly its parents in
        the poset, so every cover arises so."""
        p = build_poset(g, n)
        index = {c.key: i for i, c in enumerate(p.elements)}
        assert p.covers == {
            (i, index[c.graph.contract({e}).canonical_form().key])
            for i, c in enumerate(p.elements)
            for e in range(c.graph.num_edges)}

    @pytest.mark.parametrize("g,n", [(1, 2), (0, 5), (2, 1), (3, 0)])
    def test_order_matches_multi_edge_contraction(self, g, n):
        p = build_poset(g, n)
        order = oracles.transitive_closure(p.covers)
        for i, c in enumerate(p.elements):
            g = c.graph
            reachable = set()
            for r in range(1, g.num_edges + 1):
                for D in itertools.combinations(range(g.num_edges), r):
                    key = g.contract(set(D)).canonical_form().key
                    reachable.add(next(
                        k for k, el in enumerate(p.elements)
                        if el.key == key))
            assert reachable == {b for a, b in order if a == i}


class TestSerialization:
    def test_json_roundtrip(self):
        g = G([1, 0], [(0, 1), (1, 1)], [0, 1])
        assert StableGraph.from_json(g.to_json()) == g

    @pytest.mark.parametrize("g,n", GRAPH_SIGNATURES)
    def test_json_roundtrip_every_class(self, g, n):
        for gc in enumerate_stable_graphs(g, n):
            back = StableGraph.from_json(gc.graph.to_json())
            assert back == gc.graph
            assert back.canonical_form() == gc

    @pytest.mark.parametrize("ids", [[-1, 1], [0, 0], [0, 2], [1, 2]])
    def test_bad_vertex_ids_rejected(self, ids):
        data = G([1, 0], [(0, 1), (1, 1)], [0, 1]).to_json()
        for rec, v in zip(data["vertices"], ids):
            rec["id"] = v
        with pytest.raises(GraphError, match="vertex ids"):
            StableGraph.from_json(data)

    def test_dot_contains_dimensions(self):
        dot = build_poset(1, 1).to_dot()
        assert "dim=0" in dot and "dim=1" in dot


class TestDimension:
    def test_values(self):
        assert G([1], [], [0]).dimension() == 1
        assert G([0], [(0, 0)], [0]).dimension() == 0
        assert G([2], [], []).dimension() == 3

    def test_vertexwise_formula(self):
        for gc in enumerate_stable_graphs(2, 1):
            g = gc.graph
            local = sum(3 * g.genera[v] - 3 + g.valence(v)
                        for v in range(g.num_vertices))
            assert g.dimension() == local

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            G([1], [], []).dimension()

    @pytest.mark.parametrize("g,n", [(g, n) for g, n in EULER_SIGNATURES
                                     if 3 * g - 3 + n <= 5])
    def test_key_dimension_is_the_graph_dimension(self, g, n):
        for gc in build_poset(g, n).elements:
            assert _key_dimension(gc.key) == gc.graph.dimension()

    def test_stability_is_checked_before_connectivity(self):
        with pytest.raises(StabilityError,
                           match="dimension requires a stable graph"):
            G([0, 0], [], []).dimension()
        with pytest.raises(ConnectivityError,
                           match="genus undefined for disconnected graph"):
            G([2, 2], [], []).dimension()
