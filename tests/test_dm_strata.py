import hashlib
import json

import pytest

from strataglue import dm_strata, replace
from strataglue.dm_strata import (
    aut_equivariance,
    contraction_functoriality,
    dm_report,
    edge_stratification,
    verify_dimension_matching,
)
from strataglue.fields import COMPLEX, real_axes
from strataglue.gluing_engine import GluingDatum, build_atlas, linear_model
from strataglue.linear_strata import popcount, validate
from strataglue.regions import Region
from strataglue.stable_graphs import (StableGraph, _contracted,
                                      automorphism_group, build_poset,
                                      enumerate_stable_graphs)

import oracles


def G(genera, edges, tails):
    return StableGraph(tuple(genera), tuple(edges), tuple(tails))


LOOP11 = G([0], [(0, 0)], [0]).canonical_form()
TWOLOOP = G([0], [(0, 0), (0, 0)], []).canonical_form()
BRIDGE_LOOP = G([1, 0], [(0, 1), (1, 1)], []).canonical_form()
PARALLEL = G([1, 0], [(0, 1), (0, 1)], []).canonical_form()


class TestEdgeStratification:
    def test_loop_chain(self):
        es = edge_stratification(LOOP11)
        assert es.num_classes == 2
        assert [masks for _, masks in es.targets] == [(0,), (1,)]

    def test_two_loops_middle_class(self):
        es = edge_stratification(TWOLOOP)
        assert es.num_classes == 3
        assert [masks for _, masks in es.targets] == [(0,), (1, 2), (3,)]

    def test_separating_edge_splits_classes(self):
        # bridge and loop contract to non-isomorphic graphs
        es = edge_stratification(BRIDGE_LOOP)
        assert [masks for _, masks in es.targets] == [(0,), (1,), (2,), (3,)]

    def test_validates_as_stratification(self):
        for gc in enumerate_stable_graphs(1, 2):
            es = edge_stratification(gc)
            report = validate(gc.graph.num_edges, es.stratification.classes)
            assert report.ok

    def test_equal_cardinality_per_class(self):
        for gc in enumerate_stable_graphs(2, 0):
            es = edge_stratification(gc)
            for _, masks in es.targets:
                assert len({popcount(m) for m in masks}) == 1

    def test_zero_edge_graph(self):
        es = edge_stratification(G([1], [], [0]).canonical_form())
        assert es.num_classes == 1


class TestDimensionMatching:
    def test_loop(self):
        assert verify_dimension_matching(edge_stratification(LOOP11))["ok"]

    def test_0_5_one_edge(self):
        g = G([0, 0], [(0, 1)], [0, 0, 0, 1, 1]).canonical_form()
        rep = verify_dimension_matching(edge_stratification(g))
        assert rep["ok"]
        assert g.graph.dimension() + 1 == 2

    def test_all_small_signatures(self):
        for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0)]:
            for gc in enumerate_stable_graphs(g, n):
                assert verify_dimension_matching(edge_stratification(gc))["ok"]

    def test_wrong_target_dimension_fails(self):
        # LOOP11 (dimension 0) contracts its loop to the genus-1 vertex
        # (dimension 1); naming LOOP11 itself as that target breaks 0 + 1
        es = edge_stratification(LOOP11)
        (same, none), (_, one) = es.targets
        assert same == LOOP11 and popcount(one[0]) == 1
        rep = verify_dimension_matching(
            replace(es, targets=((same, none), (LOOP11, one))))
        assert not rep["ok"]
        assert rep["violations"] == ["%s: %d + %d != %d"
                                     % (LOOP11.describe(), 0, 1, 0)]


class TestFunctoriality:
    def test_loop(self):
        assert contraction_functoriality(edge_stratification(LOOP11))["ok"]

    def test_exhaustive_small(self):
        for g, n in [(1, 2), (2, 0), (2, 1)]:
            for gc in enumerate_stable_graphs(g, n):
                assert contraction_functoriality(edge_stratification(gc))["ok"]

    def test_reads_the_kept_contractions(self):
        """The check compares against edge_stratification's table of direct
        contractions: a wrong entry at any mask of any class, the edgeless
        ones included, is a violation on exactly the pairs that read it, in
        the check's order.  With an extra tail on vertex 0 (same edges, so
        every two-step contraction still runs), the pairs that read the
        entry on one side fail, and the pair (I, I) that reads it on both
        agrees.  With the genera as a list, not in the normal form that a
        contraction returns, every contraction of the entry is right and
        exactly the pairs that read it as I' fail, (I, I) included.  So
        every pair is a violation in some case, and a check that skipped
        one would miss it."""
        for g, n in [(1, 2), (2, 0)]:
            for gc in enumerate_stable_graphs(g, n):
                es = edge_stratification(gc)
                table = es.contractions
                ne = gc.graph.num_edges
                pairs = [(I, J) for I in range(1 << ne)
                         for J in range(1 << ne) if J & I == I]
                for mask, c in enumerate(table):
                    cases = (
                        (G(c.genera, c.edges, c.tails + (0,)),
                         lambda I, J: (I == mask) != (J == mask)),
                        (StableGraph._of(list(c.genera), c.edges, c.tails),
                         lambda I, J: J == mask))
                    for wrong, reads in cases:
                        bad = replace(es, contractions=table[:mask]
                                      + (wrong,) + table[mask + 1:])
                        expected = ["I=[] is not the graph"] * (mask == 0)
                        expected += ["I=%s I'=%s" % (edge_list(I),
                                                     edge_list(J))
                                     for I, J in pairs if reads(I, J)]
                        assert contraction_functoriality(bad) == {
                            "ok": False, "violations": expected}, mask

    def test_builds_no_graph_per_pair(self, monkeypatch):
        """The second step runs on parts: no contraction and no graph."""
        ess = [edge_stratification(gc)
               for gc in enumerate_stable_graphs(2, 1)]
        calls = []

        def counted(*args):
            calls.append(args)

        monkeypatch.setattr(StableGraph, "contract", counted)
        monkeypatch.setattr(StableGraph, "_of", counted)
        assert all(contraction_functoriality(es)["ok"] for es in ess)
        assert calls == []

    @pytest.mark.parametrize("g,n", [(1, 3), (2, 1)])
    def test_two_step_parts_match_closure_reference(self, g, n):
        """On every nested pair I inside I' of every class, the second step
        on the parts of the kept contraction by I equals the closure
        reference applied twice, and applied once by I'."""
        for gc in enumerate_stable_graphs(g, n):
            graph = gc.graph
            parts = (graph.genera, graph.edges, graph.tails)
            es = edge_stratification(gc)
            ne = graph.num_edges
            for I in range(1 << ne):
                first = es.contractions[I]
                outside = edge_list(((1 << ne) - 1) ^ I)
                for J in range(1 << ne):
                    if J & I != I:
                        continue
                    image = {outside.index(e) for e in edge_list(J ^ I)}
                    assert _contracted(first.genera, first.edges,
                                       first.tails, image) == (
                        oracles.contract_by_closure(
                            *oracles.contract_by_closure(
                                *parts, edge_list(I)), image)) == (
                        oracles.contract_by_closure(*parts, edge_list(J)))


def edge_list(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def wrong_entries(es):
    """Each kept contraction made wrong in the two ways of
    test_reads_the_kept_contractions, with the violations it gives."""
    table = es.contractions
    ne = es.graph_class.graph.num_edges
    pairs = [(I, J) for I in range(1 << ne)
             for J in range(1 << ne) if J & I == I]
    for mask, c in enumerate(table):
        cases = (
            (G(c.genera, c.edges, c.tails + (0,)),
             lambda I, J: (I == mask) != (J == mask)),
            (StableGraph._of(list(c.genera), c.edges, c.tails),
             lambda I, J: J == mask))
        for wrong, reads in cases:
            expected = ["I=[] is not the graph"] * (mask == 0)
            expected += ["I=%s I'=%s" % (edge_list(I), edge_list(J))
                         for I, J in pairs if reads(I, J)]
            yield (replace(es, contractions=table[:mask] + (wrong,)
                           + table[mask + 1:]), expected)


class TestContractionTable:
    """dm_report shares one contraction table between its classes' edge
    stratifications and functoriality checks; called alone, each builds
    its own."""

    @pytest.mark.parametrize("with_atlas", [False, True])
    @pytest.mark.parametrize("g,n", [(0, 5), (1, 2), (2, 1), (2, 2)])
    def test_report_is_the_checks_run_alone(self, g, n, with_atlas):
        report = dm_report(g, n, with_atlas=with_atlas)
        alone = public_report(g, n, with_atlas)
        assert len(report["classes"]) == len(alone["classes"])
        for entry, expected in zip(report["classes"], alone["classes"]):
            assert entry == expected, entry["graph"]
        assert report == alone

    def test_wrong_entry_with_the_true_rows_held(self):
        """A wrong kept contraction gives the violations it gives alone
        when the shared table already holds the true rows of every class
        of the signature; the genera-as-list entry is keyed as the true
        one, so its row is the true row."""
        for g, n in [(1, 2), (2, 0)]:
            table = dm_strata._Contractions()
            ess = [edge_stratification(gc, table)
                   for gc in build_poset(g, n).elements]
            assert all(contraction_functoriality(es, table)["ok"]
                       for es in ess)
            held = dict(table.rows)
            for es in ess:
                for bad, expected in wrong_entries(es):
                    assert contraction_functoriality(bad, table) == {
                        "ok": False, "violations": expected}
            assert all(table.rows[parts] is row
                       for parts, row in held.items())

    @pytest.mark.parametrize("g,n", [(1, 3), (2, 1), (2, 2), (0, 6)])
    def test_row_is_each_mask_contracted(self, g, n):
        """The one-pass row of every class graph is, mask by mask, its
        contraction by that mask alone."""
        table = dm_strata._Contractions()
        for gc in build_poset(g, n).elements:
            graph = gc.graph
            parts = (graph.genera, graph.edges, graph.tails)
            row = table.row(*parts)
            assert len(row) == 1 << graph.num_edges
            for mask, entry in enumerate(row):
                assert entry == _contracted(*parts, edge_list(mask)), (
                    gc.describe(), mask)

    @pytest.mark.parametrize("g,n", [(0, 5), (1, 3), (2, 1)])
    def test_each_labelled_graph_once(self, g, n, monkeypatch):
        """A report builds one row for each distinct labelled graph it
        meets, the kept contractions of its classes, and keys only those
        that are not class graphs: its table is seeded with the poset's
        classes and their keys, so it builds no class of its own."""
        classes = build_poset(g, n).elements
        met = {(c.genera, c.edges, c.tails)
               for gc in classes
               for c in edge_stratification(gc).contractions}
        class_parts = {(gc.graph.genera, gc.graph.edges, gc.graph.tails)
                       for gc in classes}
        calls = {"_contraction_row": [], "_canonical_key": [],
                 "_class_of": []}

        def counted(name):
            fn = getattr(dm_strata, name)

            def call(*args):
                calls[name].append(args)
                return fn(*args)
            return call

        for name in calls:
            monkeypatch.setattr(dm_strata, name, counted(name))
        dm_report(g, n, with_atlas=False)
        monkeypatch.undo()
        rows = calls["_contraction_row"]
        keyed = calls["_canonical_key"]
        assert len(rows) == len(set(rows)) and set(rows) == met
        assert len(keyed) == len(set(keyed))
        assert set(keyed) == met - class_parts
        assert calls["_class_of"] == []


class TestEquivariance:
    def test_trivial_group(self):
        rep = aut_equivariance(edge_stratification(LOOP11))
        assert rep["ok"]

    def test_loop_swap(self):
        rep = aut_equivariance(edge_stratification(TWOLOOP))
        assert rep["ok"]
        assert rep["aut_order"] == 8

    def test_parallel_edges(self):
        rep = aut_equivariance(edge_stratification(PARALLEL))
        assert rep["ok"]
        assert rep["aut_order"] >= 2

    def test_all_small_signatures(self):
        for g, n in [(0, 5), (1, 2), (2, 0)]:
            for gc in enumerate_stable_graphs(g, n):
                assert aut_equivariance(edge_stratification(gc))["ok"]


class TestReport:
    def test_1_1_with_atlas(self):
        rep = dm_report(1, 1, with_atlas=True)
        assert rep["ok"]
        assert len(rep["classes"]) == 2
        assert all(e["atlas_compatible"] for e in rep["classes"])
        assert all(e["atlas_separated"] for e in rep["classes"])

    def test_deterministic(self):
        assert dm_report(1, 2, with_atlas=False) == dm_report(
            1, 2, with_atlas=False)

    @pytest.fixture
    def built(self, monkeypatch):
        """The (field, classes) of every stratification the reports build
        an atlas of, as a set: one report builds each once."""
        built = set()

        def counted(model):
            built.add((model.strat.field, model.strat.classes))
            return build_atlas(model)

        monkeypatch.setattr(dm_strata, "build_atlas", counted)
        return built

    def test_dimension_five_over_complex_charts(self, built):
        """(2,2) and (1,5), 3g-3+n = 5: every verdict of every class holds
        on the complex charts of 58 distinct stratifications."""
        verdicts = ("dimension_matching", "functoriality", "equivariance",
                    "atlas_compatible", "atlas_separated", "atlas_covers")
        for (g, n), count in (((2, 2), 75), ((1, 5), 1576)):
            rep = dm_report(g, n, with_atlas=True)
            assert len(rep["classes"]) == count
            for entry in rep["classes"]:
                assert all(entry[v] for v in verdicts), entry["graph"]
        assert len(built) == 58
        assert all(field == COMPLEX for field, _ in built)

    def test_dimension_six_over_complex_charts(self, built):
        """(3,0) and (2,3), 3g-3+n = 6: every verdict of every class holds
        on the complex charts of 148 distinct stratifications."""
        verdicts = ("dimension_matching", "functoriality", "equivariance",
                    "atlas_compatible", "atlas_separated", "atlas_covers")
        for (g, n), count in (((3, 0), 42), ((2, 3), 555)):
            rep = dm_report(g, n, with_atlas=True)
            assert len(rep["classes"]) == count
            for entry in rep["classes"]:
                assert all(entry[v] for v in verdicts), entry["graph"]
        assert len(built) == 148
        assert all(field == COMPLEX for field, _ in built)

    def test_frozen_digest(self):
        # the reports of seven signatures, byte for byte
        h = hashlib.sha256()
        for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (0, 6), (1, 3)]:
            h.update(json.dumps(dm_report(g, n), sort_keys=True).encode())
        assert h.hexdigest() == ("772a16de72c605b172ad4fcc58986fdc"
                                 "8732c6da5e519dee58a5df80dde2064a")


def public_report(g, n, with_atlas=False):
    """dm_report class by class through the public functions, each called
    alone: edge_stratification, then the three checks, and with the atlas
    one build per class."""
    entries = []
    for gc in build_poset(g, n).elements:
        es = edge_stratification(gc)
        dim_rep = verify_dimension_matching(es)
        fun_rep = contraction_functoriality(es)
        aut_rep = aut_equivariance(es)
        entry = {
            "graph": gc.describe(),
            "edges": gc.graph.num_edges,
            "dimension": gc.graph.dimension(),
            "num_classes": es.num_classes,
            "dimension_matching": dim_rep["ok"],
            "functoriality": fun_rep["ok"],
            "aut_order": aut_rep["aut_order"],
            "equivariance": aut_rep["ok"],
        }
        if with_atlas:
            report = build_atlas(linear_model(es.stratification))
            entry["atlas_compatible"] = report.all_compatible
            entry["atlas_separated"] = report.separation_ok
            entry["atlas_covers"] = report.cover_ok
        entries.append(entry)
    ok = all(e.get(verdict, True) for e in entries for verdict in (
        "dimension_matching", "functoriality", "equivariance",
        "atlas_compatible", "atlas_separated", "atlas_covers"))
    return {"signature": [g, n], "ok": ok, "classes": entries}


# every signature with 3g - 3 + n <= 5 but (0, 8), whose 39,208 classes
# take some 25 s of edge stratifications
SMALL_SIGNATURES = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
                    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
                    (2, 0), (2, 1), (2, 2)]


@pytest.mark.parametrize("g,n", SMALL_SIGNATURES)
def test_every_target_is_a_poset_class(g, n):
    classes = set(build_poset(g, n).elements)
    for gc in classes:
        for target, _ in edge_stratification(gc).targets:
            assert target in classes, (gc.describe(), target.describe())


@pytest.mark.parametrize("g,n", [(2, 3), (3, 1), (4, 0)])
def test_targets_are_the_poset_interval(g, n):
    """The degeneration pass and the contraction layer agree beyond the
    naive enumerator's reach: a class's edge-stratification targets are
    exactly the classes reachable from it along build_poset's covers, itself
    included, and leq on its stratification is reachability between them."""
    poset = build_poset(g, n)
    index = {gc: i for i, gc in enumerate(poset.elements)}
    up = [[] for _ in poset.elements]
    for a, b in poset.covers:
        up[a].append(b)
    closure = {}

    def reachable(a):
        if a not in closure:
            closure[a] = frozenset({a}).union(*map(reachable, up[a]))
        return closure[a]

    table = dm_strata._Contractions()
    for gc in poset.elements:
        es = edge_stratification(gc, table)
        targets = [index.get(target) for target, _ in es.targets]
        assert len(set(targets)) == len(targets)
        assert set(targets) == reachable(index[gc]), gc.describe()
        position = {a: i for i, a in enumerate(targets)}
        for i, a in enumerate(targets):
            assert set(es.stratification.above(i)) == {
                position[b] for b in reachable(a)}, (gc.describe(), i)


def moved(strat, perm, datum):
    """The datum with coordinate e moved to perm[e]: its supports, the real
    axes of its boxes and its scales permuted, and its class and every
    class its words name sent to the class of the moved supports."""
    k = real_axes(strat.field)

    def move(mask):
        return sum(1 << perm[e] for e in range(len(perm)) if mask >> e & 1)

    def permuted(values, width):
        out = [None] * len(values)
        for i, value in enumerate(values):
            out[perm[i // width] * width + i % width] = value
        return tuple(out)

    cls = [strat.class_of(move(masks[0])) for masks in strat.classes]

    def word(w):
        return tuple(
            ("PSI", cls[p[1]], cls[p[2]],
             tuple(sorted((move(J), move(I)) for J, I in p[3])))
            if p[0] == "PSI" else (p[0],) + tuple(cls[c] for c in p[1:])
            for p in w)

    region = Region(cls[datum.region.cls], tuple(sorted(
        (move(J), permuted(box, k)) for J, box in datum.region.terms)))
    words = {cls[b]: word(w) for b, w in datum.bundle_words.items()}
    return GluingDatum(cls[datum.stratum], region, permuted(datum.scales, 1),
                       datum.epsilon, word(datum.phi_word), words)


class TestOrbifoldGuard:
    def test_built_atlas_is_automorphism_invariant(self):
        """The chart at a class is C^E modulo Aut: each automorphism's edge
        permutation, acting on the coordinates, maps every datum of the
        class's built atlas to itself, on every class through 3g-3+n = 5
        but those of (0, 8).  build_atlas writes class-indexed data with
        whole-stratum regions and uniform scales, so this holds by
        construction; the test guards any change to that.  The count is of
        the (automorphism, datum) pairs whose permutation moves an edge."""
        atlases = {}
        moves = 0
        for g, n in SMALL_SIGNATURES:
            for gc in build_poset(g, n).elements:
                strat = edge_stratification(gc).stratification
                if strat.classes not in atlases:
                    atlases[strat.classes] = build_atlas(
                        linear_model(strat)).data
                data = atlases[strat.classes].values()
                for aut in automorphism_group(gc.graph).elements:
                    perm = aut.edge_perm()
                    for datum in data:
                        assert moved(strat, perm, datum) == datum
                        moves += perm != tuple(sorted(perm))
        assert moves == 6917


class TestSharedPerReport:
    @pytest.mark.parametrize("g,n", [(1, 3), (0, 5)])
    def test_one_dimension_per_class(self, g, n, monkeypatch):
        """dm_report calls the validating dimension once per class, for the
        entry, and its report is the one the public per-class path
        gives."""
        calls = []
        dimension = StableGraph.dimension

        def counted(graph):
            calls.append(graph)
            return dimension(graph)

        monkeypatch.setattr(StableGraph, "dimension", counted)
        report = dm_report(g, n, with_atlas=False)
        assert len(calls) == len(report["classes"])
        monkeypatch.undo()
        assert report == public_report(g, n)
