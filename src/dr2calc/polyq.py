"""Exact rational and polynomial arithmetic in the cover degree d.

Rationals are ``fractions.Fraction``: arbitrary precision, always stored in
lowest terms with positive denominator.  A polynomial in d is a tuple of
Fractions in ascending order of degree with trailing zeros stripped; the zero
polynomial is the empty tuple and reports degree ``-inf``.

Nothing in this module ever rounds.  Fixed-width integers are deliberately
avoided: lattice pairings and interpolation denominators elsewhere in the
package overflow 64 bits on adversarial inputs.

The package's kernels are fraction-free: they clear denominators once, with
``clear_denominators``, accumulate Python integers, and divide once at the
end.  ``interpolate_columns`` is this module's kernel: it builds the
Lagrange basis of a sample set once, as integer polynomials over one
denominator, and applies it to any number of value columns;
``poly_interpolate`` is its one-column case.

Serialization: a rational renders as ``"p/q"`` (or ``"p"`` when q = 1); a
polynomial renders as the ascending list of such strings.

``PolyVector`` is the one coefficient-vector type: every class or divisor in
the package is a fixed-length vector of such polynomials on a named basis.

Construction contract: the public constructors (``PolyQ(...)``,
``PolyQ.const``, ``PolyVector(...)`` and its subclasses) validate, refusing
floats and wrong lengths.  The internal constructors ``_poly`` and
``PolyVector._of`` skip that work and take only values the package computed
itself: lists of ``Fraction`` and tuples of ``PolyQ`` of the right length.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Rational = Fraction

Scalar = Union[int, Fraction]

NEG_INF = float("-inf")


def exact(value: Union[Scalar, str]) -> Fraction:
    """``Fraction(value)``, refusing floats: their rounding would pass silently."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; pass an int, Fraction or str")
    return Fraction(value)


def format_rational(q: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(exact(q))


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction; anything else is a ValueError."""
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected a 'p/q' string, got {s!r}")


class PolyQ:
    """Univariate polynomial in the degree parameter with Fraction coefficients.

    Immutable after construction.  Coefficients are ascending: ``PolyQ((a, b, c))``
    is a + b*d + c*d^2.  Degrees in this package never exceed 4, so the dense
    representation is the right one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[Scalar, str]] = ()):
        cs = [c if type(c) is Fraction else exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, value: Scalar) -> "PolyQ":
        return cls((value,))

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "PolyQ":
        return cls(strings)

    def to_strings(self) -> list:
        return [format_rational(c) for c in self.coeffs]

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (errors if degree > 0)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        x = exact(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other) -> "PolyQ":
        pairs = zip_longest(self.coeffs, as_poly(other).coeffs, fillvalue=0)
        return _poly([a + b for a, b in pairs])

    __radd__ = __add__

    def __neg__(self) -> "PolyQ":
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "PolyQ":
        return self + (-as_poly(other))

    def __rsub__(self, other) -> "PolyQ":
        return as_poly(other) + (-self)

    def __mul__(self, other) -> "PolyQ":
        other = as_poly(other)
        if not self.coeffs or not other.coeffs:
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return _poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "PolyQ":
        scalar = exact(scalar)
        return _poly([c / scalar for c in self.coeffs])

    def __pow__(self, n: int) -> "PolyQ":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = PolyQ((1,))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PolyQ.const(other)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # A constant hashes as its value, since it compares equal to it.
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0]) if self.coeffs else 0
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"PolyQ({[format_rational(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                var = "d" if k == 1 else f"d^{k}"
                body = var if mag == 1 else f"{format_rational(mag)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _poly(coeffs: list) -> PolyQ:
    """Internal constructor: strips trailing zeros in place, skips ``exact``."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    p = object.__new__(PolyQ)
    p.coeffs = tuple(coeffs)
    return p


#: The zero polynomial, shared by kernel results.
ZERO = PolyQ()

#: The polynomial "d" itself, the symbolic cover degree.
D = PolyQ((0, 1))

PolyLike = Union[PolyQ, Scalar]


def as_poly(value: Union[PolyQ, Scalar]) -> PolyQ:
    """Lift an int/Fraction to a constant polynomial; pass PolyQ through."""
    if isinstance(value, PolyQ):
        return value
    return PolyQ.const(value)


def poly_eval(p: PolyQ, x: Scalar) -> Fraction:
    """Exact value of p at the rational point x."""
    return p(x)


def clear_denominators(rows: Sequence[Sequence[Scalar]]) -> Tuple[List[List[int]], int]:
    """Integer rows over one denominator: ``rows[i][k] == out[i][k] / den``.

    ``den`` is the lcm of every entry's denominator (1 when there are none).
    The entries must already be exact: ints or Fractions.
    """
    den = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def interpolate_columns(
    xs: Sequence[Scalar], columns: Iterable[Sequence[Scalar]]
) -> List[PolyQ]:
    """For each column, the polynomial of degree < n through (xs[i], column[i]).

    The point basis is built once per sample set.  Over one denominator,
    xs[i] = X_i / q, and point i's Lagrange polynomial is the integer
    polynomial prod_{j != i} (q*d - X_j) over the integer
    w_i = prod_{j != i} (X_i - X_j); the n of them are brought over one
    denominator, the lcm of the w_i.  Each column is cleared of its own
    denominators and applied to that basis with integer multiply-adds; each
    coefficient is then divided once.

    Raises ValueError on empty or duplicate abscissae or on a column of
    another length, and TypeError on a float.
    """
    xs = [exact(x) for x in xs]
    n = len(xs)
    if not n:
        raise ValueError("at least one sample is required")
    if len(set(xs)) != n:
        raise ValueError("duplicate abscissae make interpolation ill-posed")
    [ints], q = clear_denominators([xs])
    basis, weights = [], []
    for i, x in enumerate(ints):
        poly, w = [1], 1
        for j, y in enumerate(ints):
            if j != i:
                poly = [q * b - y * a for a, b in zip(poly + [0], [0] + poly)]
                w *= x - y
        basis.append(poly)
        weights.append(w)
    den = lcm(*weights)
    basis = [[c * (den // w) for c in row] for row, w in zip(basis, weights)]

    zero = Fraction(0)
    out = []
    for column in columns:
        column = [exact(y) for y in column]
        if len(column) != n:
            raise ValueError(f"column of {len(column)} values for {n} abscissae")
        [ys], scale = clear_denominators([column])
        acc = [0] * n
        for y, row in zip(ys, basis):
            if y:
                for k, c in enumerate(row):
                    acc[k] += y * c
        scale *= den
        out.append(_poly([Fraction(c, scale) if c else zero for c in acc]))
    return out


def poly_interpolate(samples: Iterable[Tuple[Scalar, Scalar]]) -> PolyQ:
    """The unique polynomial of degree < n through n samples.

    The one-column case of ``interpolate_columns``.  Raises ValueError on
    duplicate abscissae or empty input, and TypeError on a float.
    """
    pts = list(samples)
    [poly] = interpolate_columns([x for x, _ in pts], [[y for _, y in pts]])
    return poly


class PolyVector:
    """Immutable coefficient vector on a fixed named basis.

    Subclasses set ``names``; the length ``dim`` follows from it.  Entries
    are polynomials in d.  Vectors of different subclasses never compare
    equal and cannot be added or subtracted; every operation returns a
    vector of the receiver's class.
    """

    __slots__ = ("coeffs",)

    names: Tuple[str, ...] = ()
    dim = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.dim = len(cls.names)

    def __init__(self, coeffs: Iterable[PolyLike]):
        cs = tuple(as_poly(c) for c in coeffs)
        if len(cs) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {len(cs)}")
        self.coeffs: Tuple[PolyQ, ...] = cs

    @classmethod
    def _of(cls, coeffs: Tuple[PolyQ, ...]):
        """Internal constructor: takes a tuple of ``dim`` PolyQ as is."""
        v = object.__new__(cls)
        v.coeffs = coeffs
        return v

    @classmethod
    def zero(cls):
        return cls((PolyQ(),) * cls.dim)

    @classmethod
    def unit(cls, slot: int):
        cs = [PolyQ()] * cls.dim
        cs[slot] = PolyQ((1,))
        return cls(cs)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._of(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, factor: PolyLike):
        f = as_poly(factor)
        return self._of(tuple(f * c for c in self.coeffs))

    def dot(self, weights: Sequence[Scalar]) -> PolyQ:
        """The polynomial sum of weights[k] * coeffs[k]: a rational row times the vector."""
        out = ZERO
        for w, c in zip(weights, self.coeffs):
            if w and c:
                out = out + c * w
        return out

    def eval_at(self, x: Scalar):
        return type(self)(PolyQ.const(c(x)) for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json_dict(self) -> Dict[str, list]:
        return {n: c.to_strings() for n, c in zip(self.names, self.coeffs)}

    def __repr__(self) -> str:
        terms = ", ".join(f"{n}: {c}" for n, c in zip(self.names, self.coeffs) if c)
        return f"{type(self).__name__}({terms or '0'})"
