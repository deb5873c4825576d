import itertools

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
from strataglue.stable_graphs import _degenerations

import oracles


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
                emap = g.surviving_edge_map(I)
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


class TestEnumeration:
    def test_frozen_counts(self):
        assert len(enumerate_stable_graphs(0, 3)) == 1
        assert len(enumerate_stable_graphs(0, 4)) == 4
        assert len(enumerate_stable_graphs(1, 1)) == 2

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
        minimal = [i for i in range(4)
                   if not any((j, i) in p.order for j in range(4))]
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
        for layer in p.layers:
            for a in layer:
                for b in layer:
                    if a != b:
                        assert (a, b) not in p.order

    @pytest.mark.parametrize("g,n", [(1, 2), (0, 5), (2, 1), (3, 0)])
    def test_order_matches_multi_edge_contraction(self, g, n):
        p = build_poset(g, n)
        for i, c in enumerate(p.elements):
            g = c.graph
            reachable = set()
            for r in range(1, g.num_edges + 1):
                for D in itertools.combinations(range(g.num_edges), r):
                    key = g.contract(set(D)).canonical_form().key
                    reachable.add(next(
                        k for k, el in enumerate(p.elements)
                        if el.key == key))
            assert reachable == {b for a, b in p.order if a == i}


class TestSerialization:
    def test_json_roundtrip(self):
        g = G([1, 0], [(0, 1), (1, 1)], [0, 1])
        assert StableGraph.from_json(g.to_json()) == g

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
