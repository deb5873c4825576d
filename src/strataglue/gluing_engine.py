"""Layered construction of gluing atlases on a coordinate model.

The model of a linearly stratified space K^m: the stratum of class a is V_a,
its gluing bundle is the normal bundle N(V_a) whose points are pairs of a
base support I in class a and a vector whose support contains I.  Chart maps
are words over three primitives: GLUE(a) forgets the tags, PHI(a,b) advances
the tag chain to class b, PSI(b,a,choice) prepends a chosen base tag.  The
composition identities between charts and bundle maps become a terminating
rewrite system on words, and two maps are equal exactly when their normal
forms are.  Data normalize their words on construction, so coincidence is
decided by comparing words; words_equal also evaluates two words at
deterministic tagged sample points, as a cross-check of the rewrite rules.

The paper's construction runs one pass per poset layer: the data induced
from the strata below (induce) are sewed over the union of their chart
images (sew) and extended inward to the whole stratum (inward_extend, which
checks agreement on a collar), and the radii below are capped at half the
collar radius.  On this model the chain always returns the canonical datum,
and the collar radius is half the smallest radius below, so build_atlas
writes that closed form directly (its docstring gives the reasons); the
tests run the chain through these primitives as the reference build_atlas
must reproduce.  The report certifies pairwise compatibility (on every
common higher stratum the data induced over the two whole chart images
agree in metric and words, or else those images, built only then, are
disjoint), the separation of images of incomparable strata, and that the
chart images cover the whole space.

Separation and cover are decided exactly, with the same box calculus as
that disjointness, on each support piece's own axes (the piece
representation of strataglue.regions).  The image of a chart over a
stratum is an exact region of support-tagged terms (image_region), so on
each support piece both conditions are covers of the piece's cells by the
open boxes tagged there, decided on the ranks of the box corners.  One
build ranks the ends once, builds each datum's image boxes in one pass
tagged with every support above it, and stores the boxes of each piece
V^[J] on J's own axes, with the empty ones dropped.  Each question is asked
coarse first, on the closure of the piece inside each inner box (one cell
per box), and split into the piece's cells only when those leave a gap;
the cells lie inside those closures, so the answer is the exact one.  A
failing check reports one point of an uncovered cell as its witness, 0 off
J.

One build derives the class order once, as a table of strat.above rows
shared by the radius loop, the exact checks and the compatibility of every
pair, and takes each datum's words over each stratum once.  The table lives
for one build_atlas call only; AtlasReport.stats counts that work.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import Record, _set, replace
from .fields import box_abs, from_real_parts, real_axes, zero
from .linear_strata import LinearStratification, OrderError, popcount
from .regions import (Region, _inside, _on_piece, _piece_gap, _ranking,
                      collar, covered, full_box, meet, region_contains,
                      region_subset, whole_stratum)


class EngineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# chart words

def glue(a):
    return ("GLUE", a)


def phi(a, b):
    return ("PHI", a, b)


def psi(b, a, choice):
    return ("PSI", b, a, tuple(sorted(choice.items())))


def normalize(word):
    """Normal form under the chart composition identities.

    PHI(a,a) is the identity; a PHI chain collapses; GLUE absorbs a leading
    PHI; PSI followed by GLUE or PHI of the matching stratum drops out.  The
    rules only ever shorten the word, so this terminates, and critical pairs
    all resolve to the same one-primitive tails.
    """
    word = tuple(word)
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        while i < len(word):
            p = word[i]
            if p[0] == "PHI" and p[1] == p[2]:
                i += 1
                changed = True
                continue
            if i + 1 < len(word):
                q = word[i + 1]
                # p carries points over p[1] to p[2], where q starts: the
                # pair is q started at p[1], GLUE(p[1]) or PHI(p[1], q[2])
                if (p[0] in ("PSI", "PHI") and q[0] in ("GLUE", "PHI")
                        and q[1] == p[2]):
                    out.append((q[0], p[1]) + q[2:])
                    i += 2
                    changed = True
                    continue
            out.append(p)
            i += 1
        word = tuple(out)
    return word


def evaluate(strat, word, point):
    """Apply a chart word to a tagged point (chain of supports, vector).

    The chain records the iterated bundle tags, innermost first; the
    vector's support always contains the last tag.  GLUE returns the bare
    vector, PHI advances the chain to the first tag of the target class
    (falling back to the vector's own support), PSI prepends its chosen tag.
    """
    chain, vector = point
    chain = tuple(chain)
    for p in word:
        if p[0] not in ("GLUE", "PHI", "PSI"):
            raise EngineError("unknown primitive %r" % (p,))
        # every primitive acts on points over the stratum p[1]
        if not chain or strat.class_of(chain[0]) != p[1]:
            raise EngineError("point not over stratum %d" % p[1])
        if p[0] == "GLUE":
            return vector
        if p[0] == "PHI":
            c = p[2]
            for j, tag in enumerate(chain):
                if strat.class_of(tag) == c:
                    chain = chain[j:]
                    break
            else:
                cls, mask = strat.stratum_of(vector)
                if cls != c:
                    raise EngineError("no tag of class %d on the chain" % c)
                chain = (mask,)
        else:
            choice = dict(p[3])
            if chain[0] not in choice:
                raise EngineError("no chosen base tag for this support")
            chain = (choice[chain[0]],) + chain
    return chain, vector


def tagged_samples(strat, field, chain_classes, count, seed=11):
    """Deterministic tagged points with the given chain of classes.

    Chains walk nested supports through the classes; vector supports equal
    the final tag.  Used to cross-check word equality by evaluation.
    """
    chains = []
    for combo in itertools.product(*(strat.classes[c]
                                     for c in chain_classes)):
        if all(combo[i] & combo[i + 1] == combo[i]
               for i in range(len(combo) - 1)):
            chains.append(combo)
    if not chains:
        return []
    out = []
    state = seed
    idx = 0
    while len(out) < count:
        chain = chains[idx % len(chains)]
        idx += 1
        top = chain[-1]
        coords = []
        for coord in range(1, strat.m + 1):
            parts = []
            for _ in range(real_axes(field)):
                state = (state * 1103515245 + 12345) % (2 ** 31)
                if top & (1 << (coord - 1)):
                    parts.append(Fraction((state % 63) + 1, 64))
                else:
                    parts.append(Fraction(0))
            coords.append(from_real_parts(field, tuple(parts)))
        out.append((chain, tuple(coords)))
    return out


def words_equal(strat, field, w1, w2, chain_classes, count=100):
    """Normal-form equality cross-checked at deterministic sample points.

    Fails closed: when no sample point evaluates under both words, the
    cross-check has shown nothing and the answer is False.
    """
    if normalize(w1) != normalize(w2):
        return False
    evaluated = 0
    for point in tagged_samples(strat, field, chain_classes, count):
        try:
            r1 = evaluate(strat, w1, point)
            r2 = evaluate(strat, w2, point)
        except EngineError:
            continue
        if r1 != r2:
            return False
        evaluated += 1
    return evaluated > 0


# ---------------------------------------------------------------------------
# model and gluing data

class StratifiedModel(Record):
    __slots__ = ("strat", "layers")

    @property
    def field(self):
        return self.strat.field

    def canonical_datum(self, a, epsilon=Fraction(1), scales=None):
        """The identity chart over the whole stratum a.

        Its words are built in normal form: GLUE(a), the empty word over a
        itself and PHI(a, b) over each b above; so only the radius and the
        scales are checked.
        """
        if scales is None:
            scales = tuple(Fraction(1) for _ in range(self.strat.m))
        epsilon, scales = Fraction(epsilon), tuple(scales)
        _check_metric(epsilon, scales)
        return _canonical(self, a, self.strat.above(a), epsilon, scales)

    def to_json(self):
        return {"stratification": self.strat.to_json(),
                "layers": [list(layer) for layer in self.layers]}

    @classmethod
    def from_json(cls, data):
        if "stratification" in data:
            data = data["stratification"]
        return linear_model(LinearStratification.from_json(data))


def linear_model(strat):
    """Coordinate model of a stratification, with its layer decomposition.

    Layer k holds the classes of cardinality k, in index order: these are
    the layers that peeling off the minimal remaining classes gives.  For I
    in class a with |I| = k > 0 and i in I, the class of I minus {i} has a
    support inside I, so by the frontier condition it lies below a; every
    size 0..m occurs, so once the classes smaller than k are peeled off,
    the minimal classes left are exactly those of cardinality k.
    """
    layers = [[] for _ in range(strat.m + 1)]
    for a, masks in enumerate(strat.classes):
        layers[popcount(masks[0])].append(a)
    return StratifiedModel(strat=strat,
                           layers=tuple(tuple(layer) for layer in layers))


def _canonical(model, a, above_a, epsilon, scales):
    """canonical_datum unchecked, on above_a = strat.above(a)."""
    return GluingDatum._of(
        stratum=a,
        region=whole_stratum(model.strat, model.field, a),
        scales=scales,
        epsilon=epsilon,
        phi_word=(glue(a),),
        bundle_words={b: (phi(a, b),) if b != a else () for b in above_a},
    )


def _check_metric(epsilon, scales):
    if epsilon <= 0:
        raise EngineError("radius must be positive")
    if any(s <= 0 for s in scales):
        raise EngineError("metric scales must be positive")


class GluingDatum(Record):
    """Chart data over one stratum: region, metric scales, radius, words."""

    # scales: positive rational scale per field coordinate
    __slots__ = ("stratum", "region", "scales", "epsilon", "phi_word",
                 "bundle_words")

    def __init__(self, stratum, region, scales, epsilon, phi_word,
                 bundle_words):
        _check_metric(epsilon, scales)
        _set(self, "stratum", stratum)
        _set(self, "region", region)
        _set(self, "scales", scales)
        _set(self, "epsilon", epsilon)
        _set(self, "phi_word", normalize(phi_word))
        _set(self, "bundle_words",
             {b: normalize(w) for b, w in sorted(bundle_words.items())})

    @classmethod
    def _of(cls, stratum, region, scales, epsilon, phi_word, bundle_words):
        """Unchecked datum from a positive metric and normal-form words,
        bundle words in stratum order."""
        datum = object.__new__(cls)
        _set(datum, "stratum", stratum)
        _set(datum, "region", region)
        _set(datum, "scales", scales)
        _set(datum, "epsilon", epsilon)
        _set(datum, "phi_word", phi_word)
        _set(datum, "bundle_words", bundle_words)
        return datum

    def to_json(self):
        return {
            "stratum": self.stratum,
            "region": self.region.to_json(),
            "scales": [[s.numerator, s.denominator] for s in self.scales],
            "epsilon": [self.epsilon.numerator, self.epsilon.denominator],
            "phi": [list(p[:3]) for p in self.phi_word],
            "bundle": {str(b): [list(p[:3]) for p in w]
                       for b, w in self.bundle_words.items()},
        }


def point_in_image(model, datum, v):
    """Exact membership of an ambient point in the chart image R(phi)."""
    strat = model.strat
    cls, mask = strat.stratum_of(v)
    a = datum.stratum
    if not strat.leq(a, cls):
        return False
    for I in strat.classes[a]:
        if I & mask != I:
            continue
        base = tuple(x if I & (1 << i) else zero(model.field)
                     for i, x in enumerate(v))
        if not region_contains(strat, model.field, datum.region, base):
            continue
        fiber_ok = all(
            datum.scales[i] * box_abs(x) < datum.epsilon
            for i, x in enumerate(v) if not I & (1 << i))
        if fiber_ok:
            return True
    return False


def image_region(model, datum, b):
    """The b-stratum part of the chart image, as an exact region over b.

    A term (I, B) of the datum's region gives the box that is B on the axes
    of I and the fiber (-epsilon/scale, epsilon/scale) on every other axis;
    the term is dropped where B misses 0 off I.  The box holds exactly the
    image points whose support J contains I, so it is tagged with every such
    J in class b.
    """
    if not model.strat.leq(datum.stratum, b):
        raise OrderError("stratum %d is not above %d" % (b, datum.stratum))
    return Region(b, _image_terms(model, datum.region.terms, _fibre(
        model, datum), model.strat.classes[b]))


def _fibre(model, datum):
    """The box (-epsilon/scale, epsilon/scale) on every real axis."""
    return tuple((-e, e) for s in datum.scales
                 for e in [datum.epsilon / s] * real_axes(model.field))


def _image_terms(model, terms, fibre, supports):
    """The image terms (J, box) of region terms and a fibre box, tagged with
    each support J of the given supports that contains the term's own
    support: each box is built once, in term order, and a repeated (J, box)
    kept at its first place.  Terms and fibre are all in values or all in
    signed ranks (0 ranks 0)."""
    k = real_axes(model.field)
    out = []
    for I, B in terms:
        own = [I >> (ax // k) & 1 for ax in range(len(B))]
        if all(o or lo < 0 < hi for o, (lo, hi) in zip(own, B)):
            box = tuple(side if o else f for o, side, f in zip(own, B, fibre))
            out += [(J, box) for J in supports if I & J == I]
    return tuple(dict.fromkeys(out))


def region_is_empty(model, region):
    """Whether the region holds no point, decided exactly: no term's box
    meets its support piece."""
    k = real_axes(model.field)
    return all(_on_piece(k, J, box) is None for J, box in region.terms)


def restrict(model, datum, region, epsilon):
    """Shrink a datum to a sub-region and sub-radius; maps are unchanged."""
    epsilon = Fraction(epsilon)
    if epsilon > datum.epsilon:
        raise EngineError("cannot enlarge the radius under restriction")
    if region.cls != datum.stratum:
        raise EngineError("restriction region lives over another stratum")
    if not region_subset(model.strat, model.field, region, datum.region):
        raise EngineError("restriction region is not inside the domain")
    return replace(datum, region=region, epsilon=epsilon)


def induce(model, datum, b, region, epsilon):
    """Datum over a higher stratum b pulled through the chart of datum.

    The new chart is the old one precomposed with the tag-prepending map
    whose base choice is the smallest admissible support per target support;
    the metric pushes forward unchanged along coordinates.  The region must
    lie inside the chart image over b.  Each chart is injective on every
    bundle component by construction: evaluating a chart word at a tagged
    point leaves the point's vector unchanged.
    """
    strat = model.strat
    a = datum.stratum
    if b == a:
        raise OrderError("inducing onto the same stratum is not allowed")
    if not strat.leq(a, b):
        raise OrderError("stratum %d is not above %d" % (b, a))
    epsilon = Fraction(epsilon)
    if epsilon > datum.epsilon:
        raise EngineError("induced radius exceeds the source radius")
    img = image_region(model, datum, b)
    if not region_subset(strat, model.field, region, img):
        raise EngineError("region is not inside the chart image over %d" % b)
    phi_word, bundle_words = _words_over(model, datum, b, strat.above(b))
    return GluingDatum(stratum=b, region=region, scales=datum.scales,
                       epsilon=epsilon, phi_word=phi_word,
                       bundle_words=bundle_words)


def _words_over(model, datum, b, above_b):
    """The normalized phi and bundle words of a datum over a stratum b at
    or above its own: its own words on its stratum, otherwise induce's.
    above_b is strat.above(b), the strata the bundle words run to."""
    strat = model.strat
    a = datum.stratum
    if b == a:
        return datum.phi_word, datum.bundle_words
    choice = {}
    for J in strat.classes[b]:
        cands = [I for I in strat.classes[a] if I & J == I]
        if cands:
            choice[J] = min(cands)
    word = psi(b, a, choice)
    return (normalize((word,) + datum.phi_word),
            {c: normalize((word,) + datum.bundle_words[c])
             for c in above_b})


def coincide(model, d1, d2):
    """Equality of two data over the intersection of their regions.

    Two chart maps are equal exactly when their normalized words are, and
    data hold normalized words, so equal metrics and words decide the
    matter; only data that differ need an empty overlap.
    """
    if d1.stratum != d2.stratum:
        return False
    if ((d1.scales, d1.phi_word, d1.bundle_words)
            == (d2.scales, d2.phi_word, d2.bundle_words)):
        return True
    return region_is_empty(model, d1.region.intersect(d2.region))


def sew(model, d1, d2):
    """Union of two coinciding data, with a strictly smaller radius."""
    if not coincide(model, d1, d2):
        raise EngineError("cannot sew data that do not coincide")
    if d1.phi_word != d2.phi_word or d1.scales != d2.scales:
        # disjoint domains but genuinely different data: refuse to merge
        raise EngineError("cannot sew data with different maps or metrics")
    return replace(d1, region=d1.region.union(d2.region),
                   epsilon=min(d1.epsilon, d2.epsilon) / 2)


def inward_extend(model, datum):
    """Global datum on the stratum agreeing with the input near the boundary.

    Requires a boundary-type region.  The canonical chart words are used for
    the extension, keeping the input's metric and radius; agreement with the
    input is verified on the collar, a boundary-type sub-region.  Returns
    the extended datum and the collar radius (None on a boundaryless
    stratum).
    """
    cut = collar(model.strat, model.field, datum.region)
    if cut is None:
        raise EngineError("inward extension needs a boundary-type region")
    collar_region, radius = cut
    extended = model.canonical_datum(
        datum.stratum, epsilon=datum.epsilon, scales=datum.scales)
    # the collar lies inside the region and inside the whole stratum
    if not coincide(model, replace(datum, region=collar_region),
                    replace(extended, region=collar_region)):
        raise EngineError("datum does not extend: disagreement on the collar")
    return extended, radius


def check_compatible(model, d1, d2):
    """Induced data on every common higher stratum must coincide.

    On each common stratum b a datum is taken as it is when b is its own
    stratum, and otherwise induced over its whole chart image over b; the
    verdict is coincide's.  Metrics and words over b are compared first;
    only when they differ are the two regions over b built (the datum's own
    region, or its chart image over b) and their meet tested for emptiness.
    """
    return _compatibility(model, _order(model.strat), (d1, d2),
                          [(0, 1)])[0, 1]


def _order(strat):
    """The class order as a table: row a is strat.above(a)."""
    return [strat.above(a) for a in range(strat.num_classes)]


def _compatibility(model, above, data, pairs, stats=None):
    """check_compatible's verdict on each pair (g, h) of keys of data, on
    the class-order table above; each datum's words over each stratum are
    taken once for all its pairs."""
    words = {}

    def over(g, b):
        if (g, b) not in words:
            words[g, b] = _words_over(model, data[g], b, above[b])
        return words[g, b]

    def compatible(g, h):
        d1, d2 = data[g], data[h]
        for b in sorted(set(above[d1.stratum]).intersection(
                above[d2.stratum])):
            if (d1.scales, over(g, b)) == (d2.scales, over(h, b)):
                continue
            r1, r2 = (d.region if b == d.stratum else image_region(model, d, b)
                      for d in (d1, d2))
            if not region_is_empty(model, r1.intersect(r2)):
                return False
        return True

    verdicts = {(g, h): compatible(g, h) for g, h in pairs}
    if stats is not None:
        stats["word_sets"] += len(words)
    return verdicts


# ---------------------------------------------------------------------------
# atlas construction

class AtlasReport(Record):
    # data: stratum -> GluingDatum; compatible: (a, b) -> bool; stats:
    # counts of the build's work (STATS), left out of to_json
    __slots__ = ("model", "data", "passes", "compatible", "separation_ok",
                 "separation_witnesses", "cover_ok", "cover_witnesses",
                 "stats")

    @property
    def all_compatible(self):
        return all(self.compatible.values())

    def to_json(self):
        return {
            "passes": self.passes,
            "data": {str(a): d.to_json() for a, d in sorted(
                self.data.items())},
            "compatible": {"%d,%d" % k: v
                           for k, v in sorted(self.compatible.items())},
            "all_compatible": self.all_compatible,
            "separation": {
                "ok": self.separation_ok,
                "witnesses": [[str(x) for x in w]
                              for w in self.separation_witnesses]},
            "cover": {
                "ok": self.cover_ok,
                "witnesses": [[str(x) for x in w]
                              for w in self.cover_witnesses]},
        }


# AtlasReport.stats: separation and cover questions asked (a separation
# question only on a piece where both strata have terms), those decided on
# the closures of the piece in the inner boxes, those that fell back to the
# exact cells, rows of the class-order table, and (datum, stratum) word
# sets compatibility took
STATS = ("questions", "decided_coarse", "exact_fallbacks", "order_rows",
         "word_sets")


def _exact_checks(model, data, above=None, stats=None):
    """Separation and cover of the chart images, decided on support pieces.

    On the piece V^[J] of the points with support J, the chart images are
    the J-tagged terms of their image regions over the class of J, so both
    questions are covers of cells by open boxes.  Separation: for strata a,
    b that are incomparable, the cells of the meet of every term of a with
    every term of b on J must be covered by the terms of their common lower
    strata; a piece on which a or b has no term has no such cell, so it is
    not asked.  Cover: the whole piece must be covered by all terms.  Returns
    ((separation_ok, witnesses), (cover_ok, witnesses)); a witness is a
    point of an uncovered cell, one per failing pair and piece and one per
    uncovered piece, in pair-then-piece order.

    The per-box work is done once per build.  Every image end is an end of
    a region term or a fibre: those are ranked once, so every question runs
    on ints.  Each datum's image terms are built in one pass (_image_terms),
    each box tagged with every support J over every class above the datum,
    and stored on the k|J| axes of J by _on_piece (the piece representation
    of strataglue.regions): off J the box is the fibre, which holds 0, and a
    box empty on an axis of J is dropped there, once.  Each question then
    runs on the axes of its own piece.

    Each question is asked coarse first, on the closure of the piece inside
    each projected inner box (a meet of a term of a with one of b, or the
    whole piece for cover).  The cells of the piece lie inside them, so when
    they are covered so is the piece.  Only when they are not is the exact
    question asked by _piece_gap, on the piece's cells, up to 2^|J| of them
    (4^|J| over C), in their order; so every verdict and witness is the
    exact one.  A witness is 0 (values[ax][0]) on every axis off J.  above
    is the class-order table (_order), and stats, a dict on the keys of
    STATS, counts the questions.
    """
    strat, field = model.strat, model.field
    if above is None:
        above = _order(strat)
    if stats is None:
        stats = dict.fromkeys(STATS, 0)
    k = real_axes(field)
    num_axes = strat.m * k
    fibres = {g: _fibre(model, d) for g, d in data.items()}
    rank, values = _ranking(
        [B for d in data.values() for _, B in d.region.terms]
        + list(fibres.values()), num_axes)
    tagged = {}  # (stratum, J) -> its ranked nonempty image boxes on J's axes
    supports = {g: set() for g in data}  # stratum -> the J it has terms on
    for g, d in data.items():
        terms = [(I, rank(B)) for I, B in d.region.terms]
        tags = [J for c in above[g] for J in strat.classes[c]]
        for J, box in _image_terms(model, terms, rank(fibres[g]), tags):
            supports[g].add(J)
            boxes = tagged.setdefault((g, J), [])
            box = _on_piece(k, J, box)
            if box is not None:
                boxes.append(box)

    def on(J, strata):
        return [box for g in strata for box in tagged.get((g, J), ())]

    def witness(J, closures, boxes):
        """A point of the J piece inside one of the closures (cells on J's
        axes) and outside every box, or None."""
        stats["questions"] += 1
        if all(covered(c, boxes) is None for c in closures):
            stats["decided_coarse"] += 1
            return None
        stats["exact_fallbacks"] += 1
        gap = _piece_gap(k, closures, boxes)
        if gap is None:
            return None
        point = [v[0] for v in values]
        axes = [ax for ax in range(num_axes) if J >> (ax // k) & 1]
        for ax, (lo, hi) in zip(axes, gap):
            point[ax] = _inside(values[ax][lo], values[ax][hi])
        return tuple(from_real_parts(field, point[k * i:k * i + k])
                     for i in range(strat.m))

    separation = []
    for a, b in itertools.combinations(sorted(data), 2):
        if b in above[a] or a in above[b]:
            continue
        lower = [g for g in data if a in above[g] and b in above[g]]
        for J in sorted(supports[a] & supports[b]):
            meets = (meet(B1, B2)
                     for B1 in tagged[a, J] for B2 in tagged[b, J])
            separation.append(witness(
                J, [c for c in meets if all(lo < hi for lo, hi in c)],
                on(J, lower)))
    full = rank(full_box(num_axes))
    cover = [witness(J, [_on_piece(k, J, full)], on(J, data))
             for J in range(1 << strat.m)]
    separation = tuple(w for w in separation if w is not None)
    cover = tuple(w for w in cover if w is not None)
    return (not separation, separation), (not cover, cover)


def build_atlas(model):
    """Build the atlas the layered induction yields, and certify it.

    One pass per layer.  The first stratum gets the canonical datum of
    radius 1, and each later stratum the canonical datum of radius half the
    smallest one so far: that is what inducing from every stratum below,
    sewing and extending inward return, since built data are canonical and
    PSI followed by a canonical word normalizes to the canonical word of
    the target.  The sewed images are boundary-type (on the piece of a
    support J, each coordinate i of J is covered near 0 by the image of the
    class of J minus i, below by the frontier axiom), and their collar
    radius is half the smallest radius below, the smallest fiber corner;
    the radii below are capped at half of it.  Halving every radius maps
    each image by x -> x/2, which maps every support piece onto itself and
    so changes neither verdict: a failing separation verdict is reported
    with the radii as built, not halved down to 2^-32.  Separation and
    cover are decided exactly, coarse first (_exact_checks); built data
    agree in metric and words over every common stratum, so compatibility
    builds no chart image.  The class order is computed once, as the table
    of strat.above rows that the radius loop, the exact checks and the
    compatibility of every pair share, and each datum's words over each
    stratum once; nothing outlives the call.  Each canonical datum is
    built on its row of that table with its words already in normal form,
    and a capped radius copies the datum as it is, so no word is normalized
    again.  The report's stats count this work (STATS).
    """
    strat = model.strat
    above = _order(strat)
    stats = dict.fromkeys(STATS, 0)
    stats["order_rows"] = len(above)
    ones = tuple(Fraction(1) for _ in range(strat.m))
    data = {}
    for layer in model.layers:
        for a in layer:
            if not data:
                data[a] = _canonical(model, a, above[a], Fraction(1), ones)
                continue
            eps = min(d.epsilon for d in data.values()) / 2
            below = [g for g in data if a in above[g]]
            data[a] = _canonical(model, a, above[a], eps, ones)
            if below:
                half = min(data[g].epsilon for g in below) / 4
                for g in below:
                    d = data[g]
                    if d.epsilon > half:
                        data[g] = GluingDatum._of(
                            d.stratum, d.region, d.scales, half, d.phi_word,
                            d.bundle_words)
    (sep_ok, sep_wit), (cover_ok, cover_wit) = _exact_checks(
        model, data, above, stats)
    compatible = _compatibility(
        model, above, data, itertools.combinations(sorted(data), 2), stats)
    return AtlasReport(
        model=model,
        data=data,
        passes=len(model.layers),
        compatible=compatible,
        separation_ok=sep_ok,
        separation_witnesses=sep_wit,
        cover_ok=cover_ok,
        cover_witnesses=cover_wit,
        stats=stats,
    )


def verify_cover(model, data):
    """Every point must lie in some chart image: (ok, witnesses)."""
    return _exact_checks(model, data)[1]
