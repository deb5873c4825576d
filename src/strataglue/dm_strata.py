"""Edge-contraction stratifications of stable graphs.

For a stable graph class the subsets of its edge set are grouped by the
isomorphism class of the contracted graph.  These groups partition the power
set of the edges, members of one group share their cardinality, and the
resulting object is a linearly stratified vector space of dimension |E|: the
local model of the gluing chart around the corresponding boundary stratum,
whose gluing bundle is a sum of one line per edge.  The checks here are the
combinatorial shadows of the chart identities: dimension matching,
functoriality of iterated contraction, and equivariance under the graph's
automorphisms.  Each check reads only its EdgeStratification, and
dm_report is their composition, class by class over the poset.

A labelled graph is held here only as its parts (genera, edges, tails).
A contraction table holds the row and the class of each one met, each
computed once; dm_report shares one table, seeded with the poset's
classes, between all its classes, and a public function called alone
builds its own, unseeded.
"""

from __future__ import annotations

from . import Record
from .fields import COMPLEX
from .gluing_engine import build_atlas, linear_model
from .linear_strata import LinearStratification
from .stable_graphs import (_canonical_key, _class_of, _contraction_row,
                            _key_dimension, automorphism_group, build_poset)


class EdgeStratification(Record):
    """Partition of the edge power set by contraction target."""

    # targets: (target GraphClass, tuple of edge masks) per class;
    # contractions: the parts of the contracted graph per edge mask, the
    # class graph's row of the contraction table
    __slots__ = ("graph_class", "targets", "stratification", "contractions")

    @property
    def num_classes(self):
        return len(self.targets)


class _Contractions:
    """Rows and classes of labelled graphs, keyed by their parts.  A row
    is the contraction by every edge mask, built in one pass over the
    masks; its entries are interned, so each distinct labelled graph is
    stored once and equal entries are one object.  A seeded table maps
    each seed class's graph parts and key to that class, so only other
    parts are keyed, and only a key no seed has is built: the class its
    key serializes, equal to the poset's class of that key."""

    __slots__ = ("rows", "parts", "classes", "by_key")

    def __init__(self, seed=()):
        self.rows = {}     # parts -> contraction by each edge mask
        self.parts = {}    # parts -> the one object holding them
        self.classes = {(gc.graph.genera, gc.graph.edges, gc.graph.tails):
                        gc for gc in seed}  # parts -> GraphClass
        self.by_key = {gc.key: gc for gc in seed}  # key -> GraphClass

    def row(self, parts):
        try:
            row = self.rows.get(parts)
        except TypeError:  # genera not a tuple: key them as one
            parts = (tuple(parts[0]),) + parts[1:]
            row = self.rows.get(parts)
        if row is None:
            intern = self.parts.setdefault
            parts = intern(parts, parts)
            entries = _contraction_row(*parts)
            row = self.rows[parts] = tuple(map(intern, entries, entries))
        return row

    def class_of(self, parts):
        gc = self.classes.get(parts)
        if gc is None:
            key = _canonical_key(*parts)
            gc = self.by_key.get(key)
            if gc is None:
                gc = self.by_key[key] = _class_of(key)
            self.classes[parts] = gc
        return gc


def edge_stratification(gc, table=None):
    """Group edge subsets by the class of the contracted graph.

    The groups are emitted in a deterministic order (by cardinality, then
    by smallest member) and assembled into a linearly stratified space of
    dimension |E|, which is validated on construction.  It is over C: a
    node is smoothed by the plumbing z*w = t with t complex, so the chart
    at the class is C^E modulo its automorphisms, stratified by which
    gluing parameters vanish.  The contractions are the graph's row of
    the contraction table, and each target is the table's class of a row
    entry.
    """
    if table is None:
        table = _Contractions()
    graph = gc.graph
    row = table.row((graph.genera, graph.edges, graph.tails))
    groups = {}
    for mask, parts in enumerate(row):
        groups.setdefault(table.class_of(parts), []).append(mask)
    targets = sorted(((target, tuple(masks))
                      for target, masks in groups.items()),
                     key=lambda pair: (pair[1][0].bit_count(), pair[1]))
    classes = tuple(masks for _, masks in targets)
    strat = LinearStratification(graph.num_edges, COMPLEX, classes)
    return EdgeStratification(gc, tuple(targets), strat, row)


def verify_dimension_matching(es):
    """Contracting k edges must raise the dimension by exactly k.

    Each class holds subsets of one size k, read off its first member: the
    stratification is validated on construction.  Each dimension is
    read off the class's key.
    """
    dim = _key_dimension(es.graph_class.key)
    violations = []
    for target, masks in es.targets:
        k = masks[0].bit_count()
        target_dim = _key_dimension(target.key)
        if dim + k != target_dim:
            violations.append("%s: %d + %d != %d" % (target.describe(), dim,
                                                     k, target_dim))
    return {"ok": not violations, "violations": violations}


def contraction_functoriality(es, table=None):
    """Nested contractions compose: Ctr by a superset equals the two-step.

    For every nested pair I inside I' the contraction by I' must equal,
    as a labelled graph, first contracting I and then the image of I' minus
    I.  Both number vertices by smallest original vertex and keep the order
    of surviving edges, so this is exact, not up to isomorphism.  The
    second step is read off the contraction table's row of the kept
    contraction by I, and compared with the contraction kept for I'.  The
    image numbers the edges outside I in order, so the I' above I, in
    increasing order, have as images the subsets of that contraction's
    edges in increasing order.  All 3^|E| pairs are compared.  The
    contraction by no edges must be the graph itself, so the check can
    fail on a class without edges too.
    """
    if table is None:
        table = _Contractions()
    graph = es.graph_class.graph
    full = (1 << graph.num_edges) - 1
    direct = es.contractions
    violations = ([] if direct[0] == (graph.genera, graph.edges, graph.tails)
                  else ["I=[] is not the graph"])
    for inner, kept in enumerate(direct):
        row = table.row(kept)
        rest = full ^ inner
        extra = 0  # runs over the subsets of rest in increasing order
        for image in range(1 << rest.bit_count()):
            outer = inner | extra
            if row[image] != direct[outer]:
                violations.append("I=%s I'=%s" % (_edge_list(inner),
                                                  _edge_list(outer)))
            extra = (extra - rest) & rest
    return {"ok": not violations, "violations": violations}


def _edge_list(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def aut_equivariance(es):
    """Graph automorphisms must permute each contraction class into itself."""
    graph = es.graph_class.graph
    grp = automorphism_group(graph)
    ne = graph.num_edges
    mask_sets = [set(masks) for _, masks in es.targets]
    violations = []
    for a in grp.elements:
        perm = a.edge_perm()
        for i, (_, masks) in enumerate(es.targets):
            for mask in masks:
                image = 0
                for e in range(ne):
                    if mask & (1 << e):
                        image |= 1 << perm[e]
                if image not in mask_sets[i]:
                    violations.append(
                        "automorphism moves a subset out of class %d" % i)
    return {"ok": not violations, "violations": violations,
            "aut_order": grp.order}


def dm_report(g, n, with_atlas=True):
    """Per-class verification report for one signature.

    Each class of the poset gets its edge stratification and the three
    checks on it, each what the public function gives alone.  With the
    atlas, the gluing engine runs on each stratification; since the
    outcome depends only on the stratification, one report runs it once
    per field and class data.  Without it, the report holds the graph
    checks alone.
    """
    classes = build_poset(g, n).elements
    table = _Contractions(classes)
    atlas_cache = {}
    entries = []
    for gc in classes:
        es = edge_stratification(gc, table)
        dim_rep = verify_dimension_matching(es)
        fun_rep = contraction_functoriality(es, table)
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
            key = (es.stratification.field, es.stratification.classes)
            if key not in atlas_cache:
                report = build_atlas(linear_model(es.stratification))
                atlas_cache[key] = (report.all_compatible,
                                    report.separation_ok,
                                    report.cover_ok)
            compatible, separated, covered = atlas_cache[key]
            entry["atlas_compatible"] = compatible
            entry["atlas_separated"] = separated
            entry["atlas_covers"] = covered
        entries.append(entry)
    ok = all(e["dimension_matching"] and e["functoriality"]
             and e["equivariance"]
             and e.get("atlas_compatible", True)
             and e.get("atlas_separated", True)
             and e.get("atlas_covers", True) for e in entries)
    return {"signature": [g, n], "ok": ok, "classes": entries}
