"""Exact scalar arithmetic over the two ground fields.

Real scalars are ``fractions.Fraction``; complex scalars are
``GaussianRational`` (exact rational real and imaginary parts).  All strata
membership tests reduce to exact zero tests on these types, so nothing in the
stratification modules ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction

REAL = "R"
COMPLEX = "C"


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):  # copy and pickle through the constructor
        return GaussianRational, (self.re, self.im)

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def abs2(self):
        """Exact squared modulus, a Fraction."""
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError("cannot coerce %r to GaussianRational" % (x,))


def zero(field):
    return Fraction(0) if field == REAL else GaussianRational(0)


def is_zero(x):
    if isinstance(x, GaussianRational):
        return not bool(x)
    return x == 0


def real_axes(field):
    """Number of real coordinates carried by one field scalar."""
    return 1 if field == REAL else 2


def real_parts(x):
    """Real coordinates of a scalar as a tuple of Fractions."""
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    return (Fraction(x),)


def from_real_parts(field, parts):
    if field == REAL:
        (r,) = parts
        return Fraction(r)
    r, i = parts
    return GaussianRational(r, i)


def box_abs(x):
    """Sup-norm modulus: |x| for reals, max(|re|,|im|) for complex.

    Rational-valued, hence exactly comparable with rational radii.
    """
    if isinstance(x, GaussianRational):
        return max(abs(x.re), abs(x.im))
    return abs(Fraction(x))


def parse_scalar(field, text):
    """Parse decimal or p/q notation; 're,im' pairs for the complex field."""
    text = text.strip()
    if field == COMPLEX:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            return GaussianRational(Fraction(re_s.strip()), Fraction(im_s.strip()))
        return GaussianRational(Fraction(text))
    return Fraction(text)


def format_scalar(x):
    """Decimal rendering when exact, p/q otherwise."""
    if isinstance(x, GaussianRational):
        sign = "+" if x.im >= 0 else "-"
        return "%s%s%si" % (format_scalar(x.re), sign, format_scalar(abs(x.im)))
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    d = den
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1:
        scale = 1
        digits = 0
        while scale % den != 0:
            scale *= 10
            digits += 1
        whole, frac = divmod(abs(num) * (scale // den), scale)
        s = "%d" % whole
        if digits:
            s += ("." + str(frac).zfill(digits)).rstrip("0").rstrip(".")
        return ("-" if num < 0 else "") + s
    return "%d/%d" % (num, den)
