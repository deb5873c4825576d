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
"""

from __future__ import annotations

from . import Record
from .fields import COMPLEX
from .gluing_engine import build_atlas, linear_model
from .linear_strata import LinearStratification, popcount
from .stable_graphs import (_canonical_key, _class_of, _contracted,
                            _key_dimension, automorphism_group, build_poset)


class EdgeStratification(Record):
    """Partition of the edge power set by contraction target."""

    # targets: (target GraphClass, tuple of edge masks) per class;
    # contractions: the labelled contracted graph per edge mask
    __slots__ = ("graph_class", "targets", "stratification", "contractions")

    @property
    def num_classes(self):
        return len(self.targets)


def gluing_bundle_rank(gc):
    """Rank of the sum of one line per node: the edge count."""
    return gc.graph.num_edges


def edge_stratification(gc):
    """Group edge subsets by the class of the contracted graph.

    The groups are emitted in a deterministic order (by cardinality, then
    by smallest member) and assembled into a linearly stratified space of
    dimension |E|, which is validated on construction.  It is over C: a
    node is smoothed by the plumbing z*w = t with t complex, so the chart
    at the class is C^E modulo its automorphisms, stratified by which
    gluing parameters vanish.  Each target is the class its key
    serializes, equal to the poset's class of that key.
    """
    graph = gc.graph
    ne = graph.num_edges
    contractions = tuple(
        graph.contract({e for e in range(ne) if mask & (1 << e)})
        for mask in range(1 << ne))
    groups = {}
    for mask, c in enumerate(contractions):
        groups.setdefault(_canonical_key(c.genera, c.edges, c.tails),
                          []).append(mask)
    targets = sorted(
        ((_class_of(key), tuple(sorted(masks)))
         for key, masks in groups.items()),
        key=lambda pair: (popcount(pair[1][0]), pair[1]))
    classes = tuple(masks for _, masks in targets)
    strat = LinearStratification(ne, COMPLEX, classes)
    return EdgeStratification(gc, tuple(targets), strat, contractions)


def verify_dimension_matching(es):
    """Contracting k edges must raise the dimension by exactly k.

    Each class holds subsets of one size k, read off its first member: the
    stratification is validated on construction.  Each dimension is
    read off the class's key.
    """
    dim = _key_dimension(es.graph_class.key)
    violations = []
    for target, masks in es.targets:
        k = popcount(masks[0])
        target_dim = _key_dimension(target.key)
        if dim + k != target_dim:
            violations.append("%s: %d + %d != %d" % (target.describe(), dim,
                                                     k, target_dim))
    return {"ok": not violations, "violations": violations}


def contraction_functoriality(es):
    """Nested contractions compose: Ctr by a superset equals the two-step.

    For every nested pair I inside I' the contraction by I' must equal,
    as a labelled graph, first contracting I and then the image of I' minus
    I.  Both number vertices by smallest original vertex and keep the order
    of surviving edges, so this is exact, not up to isomorphism.  A
    labelled graph is its parts, so the second step runs on the parts of
    the kept contraction by I and is compared with the parts kept for I':
    the same comparison, with no graph per pair.  The image numbers the
    edges outside I in order, so the I' above I, in increasing order, have
    as images the subsets of that contraction's edges in increasing order.
    The contraction by no edges must be the graph itself, so the check can
    fail on a class without edges too.
    """
    graph = es.graph_class.graph
    ne = graph.num_edges
    subsets = range(1 << ne)
    edges = [{e for e in range(ne) if mask & (1 << e)} for mask in subsets]
    full = subsets[-1]
    direct = es.contractions
    parts = [(c.genera, c.edges, c.tails) for c in direct]
    violations = [] if direct[0] == graph else ["I=[] is not the graph"]
    for inner, (genera, kept, tails) in enumerate(parts):
        rest = full ^ inner
        extra = 0  # runs over the subsets of rest in increasing order
        for image in edges[:1 << len(edges[rest])]:
            outer = inner | extra
            if _contracted(genera, kept, tails, image) != parts[outer]:
                violations.append("I=%s I'=%s" % (sorted(edges[inner]),
                                                  sorted(edges[outer])))
            extra = (extra - rest) & rest
    return {"ok": not violations, "violations": violations}


def aut_equivariance(es):
    """Graph automorphisms must permute each contraction class into itself."""
    graph = es.graph_class.graph
    grp = automorphism_group(graph)
    ne = graph.num_edges
    violations = []
    for a in grp.elements:
        perm = a.edge_perm()
        for i, (target, masks) in enumerate(es.targets):
            mask_set = set(masks)
            for mask in masks:
                image = 0
                for e in range(ne):
                    if mask & (1 << e):
                        image |= 1 << perm[e]
                if image not in mask_set:
                    violations.append(
                        "automorphism moves a subset out of class %d" % i)
    return {"ok": not violations, "violations": violations,
            "aut_order": grp.order}


def dm_report(g, n, with_atlas=True):
    """Per-class verification report for one signature.

    Each class of the poset gets its edge stratification and the three
    checks on it.  With the atlas, the gluing engine runs on that
    stratification; since the outcome depends only on the stratification,
    one report runs it once per field and class data.  Without it, the
    report holds the graph checks alone.
    """
    atlas_cache = {}
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
