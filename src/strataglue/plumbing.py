"""Cusp coordinates, plumbing transitions, and horocycle structures.

The node-smoothing primitives: the cusp cylinder maps to a punctured disk by
z = exp(2 pi i zeta), horocycles |z| = c have hyperbolic length -2 pi /
log c, and a node is replaced by the annulus z w = t.  The transition and
annulus tests run in exact Gaussian-rational arithmetic (moduli compared by
their squares); only the transcendental evaluations use floats.

A horocycle structure is a truncated power series chart normalized to
h(0) = 0, h'(0) = 1, with a metric scale and a radius certified for
injectivity by the coefficient bound 1 - sum_{k>=2} k |a_k| delta^{k-1} > 0,
where |a_k| is overestimated by |re| + |im| to stay rational.  Convex
blending of two structures is exact on coefficients; the blended radius is
the largest certified one up to the smaller input radius.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import Record, _set
from .fields import GaussianRational

TWO_PI = 2 * math.pi


class PlumbingError(ValueError):
    pass


def cusp_to_disk(zeta):
    """z = exp(2 pi i zeta) on the cusp region Im zeta >= 1."""
    zeta = complex(zeta)
    if zeta.imag < 1:
        raise PlumbingError("cusp coordinate needs Im zeta >= 1")
    return cmath.exp(2j * math.pi * zeta)


def horocycle_length(c):
    """Hyperbolic length of the horocycle |z| = c in the cusp metric."""
    c = float(c)
    if not 0 < c < math.exp(-TWO_PI):
        raise PlumbingError("radius must satisfy 0 < c < exp(-2 pi)")
    return -TWO_PI / math.log(c)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, tuple) and len(x) == 2:
        return GaussianRational(Fraction(x[0]), Fraction(x[1]))
    raise PlumbingError("expected an exact complex value, got %r" % (x,))


class PlumbingFixture(Record):
    """Gluing parameter t and radius delta with 0 < |t| < delta^2."""

    __slots__ = ("t", "delta")

    def __init__(self, t, delta):
        _set(self, "t", _coerce(t))
        _set(self, "delta", Fraction(delta))
        if self.delta <= 0:
            raise PlumbingError("delta must be positive")
        if not self.t:
            raise PlumbingError("gluing parameter must be nonzero")
        if self.t.abs2() >= self.delta ** 4:
            raise PlumbingError("need 0 < |t| < delta^2")

    def in_annulus(self, z):
        """Exact test of |t|/delta < |z| < delta."""
        z = _coerce(z)
        d2 = self.delta ** 2
        return self.t.abs2() < z.abs2() * d2 and z.abs2() < d2

    def to_json(self):
        return {"t": [str(self.t.re), str(self.t.im)],
                "delta": str(self.delta)}

    @classmethod
    def from_json(cls, data):
        re, im = data["t"]
        return cls(GaussianRational(Fraction(re), Fraction(im)),
                   Fraction(data["delta"]))


def plumb(z, fixture):
    """The opposite coordinate w = t / z across the plumbing annulus."""
    z = _coerce(z)
    if not fixture.in_annulus(z):
        raise PlumbingError("z outside the annulus |t|/delta < |z| < delta")
    return fixture.t / z


def excision_region(ts, delta):
    """Kept annuli and identifications for a vector of node parameters.

    A zero parameter leaves the node alone: two punctured disks of radius
    delta and no identification.  A nonzero parameter keeps the annulus
    |t_i|/delta < |z_i| < delta on both sides, glued by z_i w_i = t_i.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise PlumbingError("delta must be positive")
    out = []
    for i, t in enumerate(ts):
        t = _coerce(t)
        if not t:
            out.append({
                "node": i,
                "type": "node",
                "kept": "two punctured disks 0 < |z| < %s and 0 < |w| < %s"
                        % (delta, delta),
                "identification": None,
            })
            continue
        if t.abs2() >= delta ** 4:
            raise PlumbingError("parameter %d has |t| >= delta^2" % i)
        out.append({
            "node": i,
            "type": "annulus",
            "kept": "|t|/%s < |z| < %s (and the same for w)"
                    % (delta, delta),
            "identification": "z*w = %s+%si" % (t.re, t.im),
        })
    return out


class HorocycleStructure(Record):
    """Metric scale, certified radius, and normalized series chart.

    coefficients[k] is a_{k+1}, so coefficients[0] is the linear term and
    must be 1; the constant term is implicitly 0.
    """

    __slots__ = ("scale", "delta", "coefficients")

    def __init__(self, scale, delta, coefficients):
        _set(self, "scale", Fraction(scale))
        _set(self, "delta", Fraction(delta))
        _set(self, "coefficients", tuple(_coerce(c) for c in coefficients))

    @property
    def degree(self):
        return len(self.coefficients)

    def certificate_margin(self, delta=None):
        """1 - sum_{k>=2} k |a_k| delta^{k-1}, with |a_k| <= |re| + |im|.

        Rational and positive only if the chart is injective on the
        delta-disk; the 1-norm overestimate keeps the bound exact.
        """
        delta = Fraction(self.delta if delta is None else delta)
        margin = Fraction(1)
        for k, a in enumerate(self.coefficients[1:], start=2):
            margin -= k * (abs(a.re) + abs(a.im)) * delta ** (k - 1)
        return margin

    def to_json(self):
        return {"scale": str(self.scale),
                "delta": str(self.delta),
                "coefficients": [[str(a.re), str(a.im)]
                                 for a in self.coefficients]}

    @classmethod
    def from_json(cls, data):
        coeffs = tuple(GaussianRational(Fraction(re), Fraction(im))
                       for re, im in data["coefficients"])
        return cls(Fraction(data["scale"]), Fraction(data["delta"]), coeffs)


def canonical_horocycle(degree=8):
    """Identity chart with unit metric scale and radius exp(-2 pi)."""
    coeffs = (GaussianRational(1),) + tuple(
        GaussianRational(0) for _ in range(degree - 1))
    return HorocycleStructure(
        Fraction(1), Fraction(math.exp(-TWO_PI)), coeffs)


def validate_horocycle(h):
    """True with no reason, or False with the failed condition."""
    if h.scale <= 0:
        return False, "metric scale must be positive"
    if h.delta <= 0:
        return False, "radius must be positive"
    if not h.coefficients or h.coefficients[0] != GaussianRational(1):
        return False, "linear coefficient must be 1"
    if h.certificate_margin() <= 0:
        return False, "injectivity certificate fails at the declared radius"
    return True, None


def certified_delta(coefficients, cap, tol=Fraction(1, 10 ** 12)):
    """Largest radius up to cap passing the certificate, by binary search."""
    cap = Fraction(cap)
    probe = HorocycleStructure(Fraction(1), cap, coefficients)
    if probe.certificate_margin(cap) > 0:
        return cap
    lo, hi = Fraction(0), cap
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if probe.certificate_margin(mid) > 0:
            lo = mid
        else:
            hi = mid
    if lo <= 0:
        raise PlumbingError("no positive radius certified")
    return lo


def blend(h0, h1, s):
    """Exact convex combination of two horocycle structures.

    Both inputs must validate; the combination acts coefficient-wise and on
    the metric scales, so the normalization a_0 = 0, a_1 = 1 is preserved
    exactly.  The radius is recomputed as the largest certified one not
    exceeding either input radius.
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise PlumbingError("blend parameter must lie in [0, 1]")
    for h in (h0, h1):
        ok, reason = validate_horocycle(h)
        if not ok:
            raise PlumbingError("invalid input structure: %s" % reason)
    deg = max(h0.degree, h1.degree)
    c0 = h0.coefficients + (GaussianRational(0),) * (deg - h0.degree)
    c1 = h1.coefficients + (GaussianRational(0),) * (deg - h1.degree)
    coeffs = tuple((1 - s) * a + s * b for a, b in zip(c0, c1))
    scale = (1 - s) * h0.scale + s * h1.scale
    delta = certified_delta(coeffs, min(h0.delta, h1.delta))
    return HorocycleStructure(scale, delta, coeffs)
