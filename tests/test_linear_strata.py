import hashlib
import itertools
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from strataglue.dm_strata import edge_stratification
from strataglue.fields import COMPLEX, REAL, GaussianRational
from strataglue.linear_strata import (
    LinearStratification,
    OrderError,
    StratificationError,
    ValidationReport,
    _read_json,
    _set_partitions,
    chain_stratification,
    enumerate_stratifications,
    indices_of,
    mask_of,
    preserves_stratification,
    validate,
)
from strataglue.stable_graphs import build_poset

import oracles


def bounded_memory():
    # in a child: a scan of the power set fails at once with MemoryError
    # instead of filling the host's memory before the timeout
    resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))


def strat(m, classes, field=REAL):
    return LinearStratification(
        m, field,
        tuple(tuple(sorted(mask_of(I, m) for I in c)) for c in classes))


CHAIN2 = strat(2, [[()], [(1,), (2,)], [(1, 2)]])
# {1} fits inside {1,3} but {2} does not: the class {{1},{2}} meets the
# closure of {{1,3}} without being contained in it
FRONTIER_FAILURE = tuple(tuple(mask_of(I, 3) for I in c) for c in (
    ((),), ((1,), (2,)), ((3,),), ((1, 3),), ((1, 2), (2, 3)), ((1, 2, 3),)))


class TestValidate:
    def test_chain_example_valid(self):
        report = validate(2, CHAIN2.classes)
        assert report.ok

    def test_m1_valid(self):
        assert validate(1, ((0,), (1,))).ok

    def test_cardinality_mix_invalid(self):
        classes = ((0, mask_of((1,), 2)),
                   (mask_of((2,), 2), mask_of((1, 2), 2)))
        report = validate(2, classes)
        assert not report.ok
        assert any("cardinalities" in v for v in report.violations)

    @pytest.mark.parametrize("m", [-1, 2.5, True, "2", None])
    def test_m_not_a_nonnegative_int_is_a_violation(self, m):
        report = validate(m, ((0,),))
        assert report.violations == (
            "m must be a nonnegative integer, not %r" % (m,),)

    def test_bad_m_is_reported_with_the_field(self):
        assert validate(-1, ((0,),), "X").violations == (
            "unknown ground field 'X'",
            "m must be a nonnegative integer, not -1")

    @pytest.mark.parametrize("index", [0, -2, 1.5, True])
    def test_mask_of_names_a_bad_index(self, index):
        with pytest.raises(StratificationError,
                           match="index %r is not a positive integer"
                           % (index,)):
            mask_of((1, index), 2)

    def test_mask_of_names_a_repeated_index(self):
        with pytest.raises(StratificationError,
                           match="index 2 is repeated in a support"):
            mask_of((2, 1, 2), 2)

    def test_mask_of_puts_an_index_above_m_past_m(self):
        # each index above m takes a bit of its own from m up
        mask = mask_of((2, 10 ** 11, 1), 1)
        assert mask & 1 and mask.bit_count() == 3 and mask.bit_length() < 8
        assert mask_of((1, 3), 3) == 0b101
        with pytest.raises(StratificationError,
                           match="index %d is repeated" % 10 ** 11):
            mask_of((10 ** 11, 1, 10 ** 11), 1)

    @pytest.mark.parametrize("big", [[3], [1, 3], [3, 4]])
    def test_a_huge_index_reads_as_any_index_above_m(self, big):
        """A file naming 10^11 gets the report it gets with m + 1 in its
        place, whatever the support's size, and builds no 2^(10^11)."""
        def report(index):
            data = {"m": 2, "field": "C", "classes": [
                [[]], [[1]], [[2]], [[1, 2]],
                [[index if i == 3 else i for i in big]]]}
            m, field, classes = _read_json(data)
            return validate(m, classes, field)
        assert report(10 ** 11) == report(3)
        assert any("out-of-range" in v for v in report(3).violations)

    def test_from_json_reads_a_missing_field_as_r(self):
        strat = LinearStratification.from_json({"m": 1,
                                                "classes": [[[]], [[1]]]})
        assert strat == chain_stratification(1, REAL)

    @pytest.mark.parametrize("m", [1.5, -1, True])
    def test_from_json_keeps_m(self, m):
        with pytest.raises(StratificationError, match="m must be"):
            LinearStratification.from_json(
                {"m": m, "field": "R", "classes": [[[]], [[1]]]})

    def test_missing_subset_invalid(self):
        report = validate(2, ((0,), (mask_of((1, 2), 2),)))
        assert not report.ok
        assert any("missing" in v for v in report.violations)

    def test_large_m_gives_the_missing_count_at_once(self):
        """With far fewer subsets listed than the 2^64 there are, the report
        counts the missing ones instead of listing them.  It runs in a child
        with a timeout, so that a scan of the power set fails the test
        instead of hanging the suite."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run(
            [sys.executable, "-c", "from strataglue.linear_strata import "
             "validate; print(validate(64, ((0,),)))"],
            env=env, capture_output=True, text=True, timeout=30, check=True,
            preexec_fn=bounded_memory)
        assert child.stdout == (
            "ValidationReport(ok=False, violations=('%d subsets missing "
            "from the partition',))\n" % ((1 << 64) - 1))

    def test_a_count_too_long_for_decimal_is_a_power_of_two(self):
        # 2^20000 - 1 has 6021 digits, past the 4300 that Python writes
        assert validate(20000, ((0,),)).violations == (
            "2^20000 - 1 subsets missing from the partition",)

    def test_duplicate_subset_invalid(self):
        report = validate(1, ((0,), (0, ), (1,)))
        assert not report.ok

    def test_frontier_violation_invalid(self):
        report = validate(3, FRONTIER_FAILURE)
        assert not report.ok
        assert any("closure" in v for v in report.violations)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_matches_all_pairs_reference(self, field):
        """The frontier check compares the sets of classes above each
        support; the reference tests every ordered pair.  The whole
        report agrees on every product of per-size set partitions for
        m <= 3, accepted or rejected, and on the frontier failure."""
        candidates = [(m, classes) for m in range(4)
                      for classes in oracles.product_candidates(m)]
        candidates.append((3, FRONTIER_FAILURE))
        rejected = 0
        for m, classes in candidates:
            report = validate(m, classes, field)
            assert (report.ok, report.violations) == (
                oracles.validate_all_pairs(m, classes, field)), classes
            rejected += not report.ok
        assert (len(candidates), rejected) == (30, 14)

    @pytest.mark.parametrize("g,n", [(1, 4), (2, 2)])
    def test_edge_stratifications_match_all_pairs_reference(self, g, n):
        """The whole report agrees with the reference on the edge
        stratification of every (g, n) class (m up to 4 and 5) and on one
        failing case of each of the reference's messages, made from the
        one with the most edges: an unknown field, an empty class, mixed
        cardinalities, an out-of-range subset, a repeated subset, a missing
        class, and two classes of one size merged against the frontier."""
        strats = [edge_stratification(gc).stratification
                  for gc in build_poset(g, n).elements]
        for s in strats:
            assert validate(s.m, s.classes, s.field) == ValidationReport(
                *oracles.validate_all_pairs(s.m, s.classes, s.field))
        s = max(strats, key=lambda s: s.m)
        m, classes = s.m, s.classes
        one = [a for a, masks in enumerate(classes)
               if masks[0].bit_count() == 1]
        merges = [classes[:a] + classes[a + 1:b] + classes[b + 1:]
                  + (tuple(sorted(classes[a] + classes[b])),)
                  for a, b in itertools.combinations(range(len(classes)), 2)
                  if classes[a][0].bit_count() == classes[b][0].bit_count()]
        frontier = next(c for c in merges
                        if not oracles.validate_all_pairs(m, c, COMPLEX)[0])
        cases = [
            ("Q", classes, "unknown ground field"),
            (COMPLEX, classes + ((),), "is empty"),
            (COMPLEX, classes[1:-1] + (classes[0] + classes[-1],), "mixes"),
            (COMPLEX, classes[:one[0]] + (classes[one[0]] + (1 << m,),)
             + classes[one[0] + 1:], "out-of-range"),
            (COMPLEX, classes + (classes[one[0]][:1],), "appears in"),
            (COMPLEX, classes[:one[0]] + classes[one[0] + 1:], "missing"),
            (COMPLEX, frontier, "partially meets")]
        for field, case, message in cases:
            report = validate(m, case, field)
            assert report == ValidationReport(
                *oracles.validate_all_pairs(m, case, field))
            assert any(message in v for v in report.violations), message

    def test_invalid_construction_rejected(self):
        with pytest.raises(StratificationError):
            strat(2, [[(), (1,)], [(2,), (1, 2)]])

    def test_containment_orders_equal_cardinality_partitions(self):
        """Why validate checks no order axiom: on every partition of the
        power set into equal-cardinality classes, frontier condition or not,
        the all-supports containment relation is already a partial order."""
        partitions = []
        for m in (1, 2, 3):
            levels = []
            for k in range(m + 1):
                masks = [mask_of(c, m) for c in
                         itertools.combinations(range(1, m + 1), k)]
                levels.append(list(_set_partitions(masks)))
            for combo in itertools.product(*levels):
                classes = tuple(tuple(sorted(g)) for part in combo
                                for g in part)
                partitions.append((m, classes))
        reports = [validate(m, classes) for m, classes in partitions]
        assert len(partitions) == 28
        assert sum(not r.ok for r in reports) == 13
        assert all("closure" in v for r in reports for v in r.violations)
        for m, classes in partitions:
            le = oracles.containment_order(classes)
            n = len(classes)
            for a, b, c in itertools.product(range(n), repeat=3):
                assert not (a != b and le[a][b] and le[b][a])
                assert not (le[a][b] and le[b][c]) or le[a][c]


class TestStratumOf:
    def test_origin(self):
        a, mask = CHAIN2.stratum_of((Fraction(0), Fraction(0)))
        assert mask == 0 and a == 0

    def test_one_axis(self):
        a, mask = CHAIN2.stratum_of((Fraction(1), Fraction(0)))
        assert indices_of(mask) == (1,) and a == 1

    def test_generic(self):
        a, mask = CHAIN2.stratum_of((Fraction(3, 2), Fraction(-7)))
        assert indices_of(mask) == (1, 2) and a == 2

    def test_complex_support(self):
        s = strat(1, [[()], [(1,)]], field=COMPLEX)
        a, mask = s.stratum_of((GaussianRational(0, Fraction(1, 3)),))
        assert a == 1

    @given(st.tuples(st.fractions(), st.fractions()))
    def test_exactly_one_class(self, point):
        a, mask = CHAIN2.stratum_of(point)
        assert sum(mask in masks for masks in CHAIN2.classes) == 1
        assert mask in CHAIN2.classes[a]


class TestNormalStratum:
    def test_middle_to_top(self):
        pieces = CHAIN2.normal_stratum(1, 2)
        assert pieces == {mask_of((1,), 2): (mask_of((1, 2), 2),),
                          mask_of((2,), 2): (mask_of((1, 2), 2),)}

    def test_reflexive_is_identity(self):
        for a in range(CHAIN2.num_classes):
            pieces = CHAIN2.normal_stratum(a, a)
            assert pieces == {I: (I,) for I in CHAIN2.classes[a]}

    def test_bottom_to_top(self):
        assert CHAIN2.normal_stratum(0, 2) == {0: (mask_of((1, 2), 2),)}

    def test_order_violation(self):
        with pytest.raises(OrderError):
            CHAIN2.normal_stratum(2, 0)

    def test_pieces_disjoint_per_base(self):
        s = chain_stratification(3)
        for a in range(s.num_classes):
            for b in s.above(a):
                for I, Js in s.normal_stratum(a, b).items():
                    assert len(set(Js)) == len(Js)


class TestDoubleNormal:
    def test_chain_bottom_middle(self):
        pieces = CHAIN2.double_normal(0, 1)
        assert set(pieces) == {(0, mask_of((1,), 2)), (0, mask_of((2,), 2))}

    def test_strict_order_required(self):
        with pytest.raises(OrderError):
            CHAIN2.double_normal(1, 1)

    def test_m3_cardinality_classes(self):
        s = chain_stratification(3)
        assert len(s.double_normal(1, 2)) == 6

    def test_targets_occur_in_normal_stratum(self):
        s = chain_stratification(3)
        for a in range(s.num_classes):
            for b in s.above(a):
                if a == b:
                    continue
                targets = s.normal_stratum(b, b)
                for I, J in s.double_normal(a, b):
                    assert J in targets

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_pointwise_oracle(self, m):
        for s in enumerate_stratifications(m):
            sets = [[frozenset(indices_of(I)) for I in c] for c in s.classes]
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
                        assert got.get(I, set()) == expected[I]


class TestTauEmbed:
    def test_identity_on_coordinates(self):
        point = (Fraction(1), Fraction(0))
        out, b = CHAIN2.tau_embed(0, 1, 0, point)
        assert out == point and b == 1

    def test_larger_support(self):
        point = (Fraction(2), Fraction(3))
        out, b = CHAIN2.tau_embed(1, 2, mask_of((1,), 2), point)
        assert out == point and b == 2

    def test_support_mismatch_rejected(self):
        with pytest.raises(StratificationError):
            CHAIN2.tau_embed(1, 2, mask_of((1,), 2),
                             (Fraction(0), Fraction(1)))

    def test_stratum_of_composition_constant(self):
        s = chain_stratification(3)
        for a in range(s.num_classes):
            for b in s.above(a):
                for I, Js in s.normal_stratum(a, b).items():
                    for J in Js:
                        point = tuple(
                            Fraction(1) if J & (1 << i) else Fraction(0)
                            for i in range(3))
                        out, tag = s.tau_embed(a, b, I, point)
                        assert s.stratum_of(out)[0] == b == tag


def F(rows):
    return [[Fraction(x) for x in r] for r in rows]


class TestPreservesStratification:
    def test_identity(self):
        assert preserves_stratification(F([[1, 0], [0, 1]]), CHAIN2)

    def test_diagonal(self):
        assert preserves_stratification(F([[3, 0], [0, -2]]), CHAIN2)

    def test_swap_on_chain(self):
        assert preserves_stratification(F([[0, 1], [1, 0]]), CHAIN2)

    def test_swap_on_separated_classes(self):
        s = strat(2, [[()], [(1,)], [(2,)], [(1, 2)]])
        assert not preserves_stratification(F([[0, 1], [1, 0]]), s)

    def test_shear_not_preserving(self):
        assert not preserves_stratification(F([[1, 1], [0, 1]]), CHAIN2)

    def test_singular_rejected(self):
        with pytest.raises(StratificationError):
            preserves_stratification(F([[1, 1], [1, 1]]), CHAIN2)

    def test_group_closure(self):
        mats = [F([[0, 1], [1, 0]]), F([[2, 0], [0, 1]]),
                F([[0, -1], [3, 0]])]
        for A, B in itertools.product(mats, repeat=2):
            prod = [[sum(A[i][k] * B[k][j] for k in range(2))
                     for j in range(2)] for i in range(2)]
            assert preserves_stratification(prod, CHAIN2)

    def test_inverse_closure(self):
        A = F([[0, 2], [Fraction(1, 3), 0]])
        inv = F([[0, 3], [Fraction(1, 2), 0]])
        assert preserves_stratification(A, CHAIN2)
        assert preserves_stratification(inv, CHAIN2)


class TestEnumeration:
    def test_counts(self):
        # m=3 by hand: 5 with separated singleton classes, 2 for each of
        # the 3 mixed singleton partitions, 1 with everything joint
        assert len(list(enumerate_stratifications(1))) == 1
        assert len(list(enumerate_stratifications(2))) == 2
        assert len(list(enumerate_stratifications(3))) == 12

    def test_all_valid_and_distinct(self):
        seen = set()
        for s in enumerate_stratifications(3):
            assert validate(3, s.classes).ok
            assert s.classes not in seen
            seen.add(s.classes)

    def test_deterministic_order(self):
        first = [s.classes for s in enumerate_stratifications(3)]
        second = [s.classes for s in enumerate_stratifications(3)]
        assert first == second

    @pytest.mark.parametrize("m, field", [(m, REAL) for m in range(4)]
                             + [(m, COMPLEX) for m in range(3)])
    def test_matches_product_and_filter_reference(self, m, field):
        found = list(enumerate_stratifications(m, field))
        assert {s.field for s in found} == {field}
        assert ([s.classes for s in found]
                == oracles.stratifications_by_product(m))

    def test_m4_frozen(self):
        classes = [s.classes for s in enumerate_stratifications(4)]
        assert len(classes) == 805
        assert hashlib.sha256(repr(classes).encode()).hexdigest() == (
            "7b222ebc69504b6629e00d675268daebbf57b64bcfb6f692101cc4e627fa3332")


class TestSerialization:
    def test_roundtrip(self):
        assert LinearStratification.from_json(CHAIN2.to_json()) == CHAIN2

    def test_complex_field_tag(self):
        s = strat(1, [[()], [(1,)]], field=COMPLEX)
        assert s.to_json()["field"] == "C"
        assert LinearStratification.from_json(s.to_json()) == s
