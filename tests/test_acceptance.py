"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS line on success (visible
with -s or in captured output).  Failures surface as ordinary assertion
errors with context.
"""

import io
import json
import math
import time
from fractions import Fraction
from itertools import combinations

from strataglue.cli import main as cli_main
from strataglue.dm_strata import dm_report
from strataglue.fields import REAL, GaussianRational
from strataglue.gluing_engine import (
    build_atlas,
    glue,
    linear_model,
    normalize,
    phi,
    words_equal,
)
from strataglue.linear_strata import (
    chain_stratification,
    enumerate_stratifications,
    indices_of,
)
from strataglue.plumbing import (
    HorocycleStructure,
    PlumbingFixture,
    blend,
    canonical_horocycle,
    plumb,
    validate_horocycle,
)
from strataglue.stable_graphs import build_poset, enumerate_stable_graphs

import oracles

# every signature with 3g - 3 + n <= 4
SIGNATURES = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
              (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1)]

FROZEN_COUNTS = {(0, 3): 1, (0, 4): 4, (0, 5): 26, (0, 6): 236,
                 (0, 7): 2752, (1, 1): 2, (1, 2): 5, (1, 3): 23,
                 (1, 4): 163, (2, 0): 7, (2, 1): 16}


def report(num, text):
    print("[criterion %d] %s: PASS" % (num, text))


def test_criterion_1_enumeration_matches_oracle():
    t0 = time.monotonic()
    for g, n in SIGNATURES:
        classes = enumerate_stable_graphs(g, n)
        assert len(classes) == FROZEN_COUNTS[(g, n)], (g, n)
        naive = oracles.naive_enumerate(g, n)
        assert len(classes) == len(naive), (g, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, "enumeration sweep took %.1fs" % elapsed
    report(1, "enumeration agrees with the brute-force oracle "
              "on all 11 signatures in %.1fs" % elapsed)


def test_criterion_2_poset_properties():
    for g, n in SIGNATURES:
        poset = build_poset(g, n)
        top = poset.elements[poset.top]
        assert top.graph.num_edges == 0, (g, n)
        max_edges = max(c.graph.num_edges for c in poset.elements)
        first = {poset.elements[i].graph.num_edges for i in poset.layers[0]}
        assert first == {max_edges}, (g, n)
        for c in poset.elements:
            graph = c.graph
            dim = graph.dimension()
            for k in range(graph.num_edges + 1):
                for D in combinations(range(graph.num_edges), k):
                    assert graph.contract(set(D)).dimension() == dim + k
    report(2, "unique top, maximal-edge first layer, and dimension "
              "increments hold on all posets")


def test_criterion_3_double_normal_matches_pointwise_oracle():
    mismatches = 0
    for m in range(1, 5):
        for s in enumerate_stratifications(m):
            sets = [[frozenset(indices_of(I)) for I in c]
                    for c in s.classes]
            for a in range(s.num_classes):
                for b in range(s.num_classes):
                    if a == b or not s.leq(a, b):
                        continue
                    expected = oracles.pointwise_normal_strata(m, sets, a, b)
                    got = {}
                    for I, J in s.double_normal(a, b):
                        got.setdefault(frozenset(indices_of(I)),
                                       set()).add(frozenset(indices_of(J)))
                    for I in expected:
                        if got.get(I, set()) != expected[I]:
                            mismatches += 1
    assert mismatches == 0
    report(3, "double normal strata match the pointwise oracle for every "
              "valid stratification with m <= 4, zero mismatches")


def test_criterion_4_atlas_construction():
    checked = 0
    for m in range(1, 4):
        for s in enumerate_stratifications(m):
            model = linear_model(s)
            t0 = time.monotonic()
            rep = build_atlas(model)
            elapsed = time.monotonic() - t0
            assert rep.passes == len(model.layers), s.classes
            assert rep.all_compatible, s.classes
            assert rep.separation_ok, rep.separation_witnesses
            assert rep.cover_ok, rep.cover_witnesses
            assert elapsed < 30, "atlas for %s took %.1fs" % (s.classes,
                                                              elapsed)
            checked += 1
    assert checked == 15
    report(4, "all 15 m <= 3 models build certified atlases in K passes "
              "with separation and cover decided exactly")


def test_criterion_5_chart_identities():
    for m in range(1, 4):
        for s in enumerate_stratifications(m):
            n = s.num_classes
            for a in range(n):
                for b in s.above(a):
                    if a == b:
                        continue
                    lhs = (glue(a),)
                    rhs = (phi(a, b), glue(b))
                    assert normalize(lhs) == normalize(rhs)
                    assert words_equal(s, REAL, lhs, rhs, (a, b))
                    for c in s.above(b):
                        if len({a, b, c}) < 3:
                            continue
                        lhs = (phi(a, c),)
                        rhs = (phi(a, b), phi(b, c))
                        assert normalize(lhs) == normalize(rhs)
                        assert words_equal(s, REAL, lhs, rhs, (a, b, c))
    report(5, "chart transition identities hold in normal form and at "
              "every nested support chain in all m <= 3 models")


def test_criterion_6_plumbing():
    fixture = PlumbingFixture(
        GaussianRational(Fraction(1, 64), Fraction(1, 128)), Fraction(1, 2))
    values = oracles.rational_stream(7, 12000)
    checked = 0
    i = 0
    while checked < 1000:
        z = GaussianRational(values[i] / 4, values[i + 1] / 4)
        i += 2
        if not fixture.in_annulus(z):
            continue
        assert z * plumb(z, fixture) == fixture.t
        checked += 1
    for k in range(1, 51):
        c = math.exp(-2 * math.pi * (1 + k / 8))
        assert abs(oracles.horocycle_length_quadrature(c)
                   - (-2 * math.pi / math.log(c))) < 1e-9
    h1 = HorocycleStructure(
        Fraction(3, 2), Fraction(1, 8),
        (GaussianRational(1),
         GaussianRational(Fraction(1, 7), Fraction(-1, 9)),
         GaussianRational(Fraction(2, 11))))
    out = blend(canonical_horocycle(), h1, Fraction(5, 13))
    assert out.coefficients[0] == GaussianRational(1)
    ok, reason = validate_horocycle(out)
    assert ok, reason
    report(6, "plumbing involution exact on 1000 inputs, horocycle length "
              "within 1e-9 of quadrature on 50 values, blend normalized")


def test_criterion_7_dm_layer():
    for g, n in SIGNATURES:
        rep = dm_report(g, n, with_atlas=True)
        assert rep["ok"], (g, n)
        for entry in rep["classes"]:
            assert entry["dimension_matching"], entry["graph"]
            assert entry["functoriality"], entry["graph"]
            assert entry["equivariance"], entry["graph"]
            assert entry["atlas_compatible"], entry["graph"]
            assert entry["atlas_separated"], entry["graph"]
            assert entry["atlas_covers"], entry["graph"]
    report(7, "edge stratifications verify and feed all-compatible "
              "atlases for every class with 3g-3+n <= 4")


def _cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out, err=io.StringIO())
    return code, out.getvalue()


def test_criterion_8_cli_golden(tmp_path):
    model = linear_model(chain_stratification(2))
    path = tmp_path / "chain2.json"
    path.write_text(json.dumps(model.to_json()))
    for argv in (["graphs", "poset", "0", "4", "--dot"],
                 ["dm", "report", "1", "1"],
                 ["glue", "run", str(path)]):
        first = _cli(argv)
        second = _cli(argv)
        assert first == second, argv
        assert first[0] == 0, argv
        assert first[1], argv
    report(8, "CLI outputs are byte-identical across runs for the three "
              "golden commands")
