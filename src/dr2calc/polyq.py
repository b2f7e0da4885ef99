"""Exact rational and polynomial arithmetic in the cover degree d.

Rationals are ints or ``fractions.Fraction``s, in lowest terms with positive
denominator.  A polynomial in d is stored as integer numerators over one
denominator: ``num``, a tuple of ints in ascending order of degree with no
trailing zero, and ``den``, an int >= 1 with gcd(den, *num) == 1, so the
coefficient of d^k is ``num[k] / den``.  The zero polynomial is ``((), 1)``.
Each polynomial has exactly one such form, so equality is a comparison of
the two fields.  All arithmetic (``+``, ``-``, ``*``, ``/``, ``**`` and
evaluation) works on the integers and reduces once at the end; ``coeffs``
builds the tuple of lowest-terms Fractions only when asked.

Nothing in this module ever rounds.  Fixed-width integers are deliberately
avoided: lattice pairings and interpolation denominators elsewhere in the
package overflow 64 bits on adversarial inputs.

The package's kernels are fraction-free: they read each polynomial's
``num`` and ``den`` (brought over one denominator by ``poly_numerators``),
clear rows of Fractions with ``clear_denominators``, accumulate Python
integers, and hand the integer results and their denominator to ``_poly``.
``interpolate_columns`` is this module's kernel: it builds the Lagrange
basis of a sample set once, as integer polynomials over one denominator,
and applies it to any number of value columns; ``poly_interpolate`` is its
one-column case.

Serialization: a rational renders as ``"p/q"`` (or ``"p"`` when q = 1); a
polynomial renders as the ascending list of such strings.

``PolyVector`` is the one coefficient-vector type: every class or divisor in
the package is a fixed-length vector of such polynomials on a named basis.

Construction contract: the public constructors (``PolyQ(...)``,
``PolyQ.const``, ``PolyVector(...)`` and its subclasses) refuse wrong
lengths and pass every value through ``exact``, the one gate for rationals
(also of evaluation, ``/``, ``dot`` and ``linalg``), which refuses floats.
The internal constructors ``_poly``, ``_const`` and ``PolyVector._of`` skip
that work and take only values the package computed itself: integer
numerators (a list, or one int for ``_const``) and a positive denominator,
which they reduce, and tuples of ``PolyQ`` of the right length.  Beside
``exact`` sit the gates for other arguments, and with them the wording of
the package's wrong-type errors: ``_require_int`` refuses anything but an
int (a bool too), and ``_require_type`` anything but an instance of the
class a function takes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Rational = Fraction

Scalar = Union[int, Fraction]


def exact(value: Union[Scalar, str]) -> Scalar:
    """The package's one gate for exact values: an int or Fraction as it is, a
    string through ``parse_rational`` ("p/q" or "p"), any other rational as
    ``Fraction(value)``; a float is a TypeError, as its rounding would pass silently."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; pass an int, Fraction or str")
    return Fraction(value)


def format_rational(q: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(exact(q))


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")

#: The longest ``repr`` of an input that an error message echoes whole.
_ECHO_LIMIT = 60


def _echo(value, show=repr) -> str:
    """``show(value)``, by default its ``repr``, for an error message: whole
    up to ``_ECHO_LIMIT`` characters, else its start and its length, so that
    a long input cannot flood the one-line message."""
    text = show(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"


def _require_int(value, name: str) -> None:
    """The package's one gate for an int argument: anything else, bool
    included, is a TypeError naming the argument and echoing the value."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {_echo(value)}")


def _require_type(value, cls: type, where: str) -> None:
    """The package's one gate for a class argument: a value that is not a
    ``cls`` is a TypeError naming the function ``where`` and its type."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{where} takes {article} {cls.__name__}, got {type(value).__name__}")


def parse_rational(s: str, where: str = "") -> Fraction:
    """Parse "p/q" or "p" (ASCII digits, optional "-", q nonzero) into a Fraction;
    anything else, such as "1.2", "1e3", "+2" or " 3/4", is a ValueError, as is
    a numeral over Python's int-conversion limit.  A nonempty ``where``, the
    entry's place in an input file, prefixes the message as ``"<where>: "``."""
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        try:
            return Fraction(s)
        except ValueError as exc:  # the message names the limit and the digit count
            message = str(exc)
    else:
        message = f"expected a 'p/q' string, got {_echo(s)}"
    raise ValueError(f"{where}: {message}" if where else message)


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {_echo(key)}")
        out[key] = value
    return out


def parse_json(text: str):
    """``json.loads`` for input files: a duplicated key, or nesting too deep
    for the parser, is a ValueError like any other malformed JSON."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def clear_denominators(rows: Sequence[Sequence[Scalar]]) -> Tuple[List[List[int]], int]:
    """Integer rows over one denominator: ``rows[i][k] == out[i][k] / den``.

    ``den`` is the lcm of every entry's denominator: 1 when there are none
    or all are integral, and each entry is then its own numerator.  The
    entries must already be exact: ints or Fractions.
    """
    den = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class PolyQ:
    """Univariate polynomial in the degree parameter with rational coefficients.

    Immutable after construction.  Coefficients are ascending: ``PolyQ((a, b, c))``
    is a + b*d + c*d^2.  Degrees in this package never exceed 4, so the dense
    representation is the right one.

    The fields are ``num`` (a tuple of ints, no trailing zero) and ``den``
    (an int >= 1 with gcd(den, *num) == 1); the zero polynomial is
    ``((), 1)``.  The constructor validates its coefficients and ``const``
    is its one-coefficient case; kernels read ``num`` and ``den`` directly
    and build results with ``_poly``.  ``coeffs`` is the read-only tuple of
    lowest-terms Fractions, built on each access.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Union[Scalar, str]] = ()):
        [num], den = clear_denominators([[exact(c) for c in coeffs]])
        while num and not num[-1]:
            num.pop()
        self.num: Tuple[int, ...] = tuple(num)
        self.den: int = den

    @classmethod
    def const(cls, value: Union[Scalar, str]) -> "PolyQ":
        # The one-coefficient case of the constructor, without its list work.
        q = exact(value)
        return _const(q.numerator, q.denominator)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients, ascending, as lowest-terms Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def to_strings(self) -> list:
        return [format_rational(c) for c in self.coeffs]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (errors if degree > 0)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {_echo(self, str)}")
        return self.coefficient(0)

    def __call__(self, x: Scalar) -> Fraction:
        # Horner on x = p / q: acc = sum num[k] p^k q^(n-1-k), over den * q^(n-1).
        x = exact(x)
        p, q = x.numerator, x.denominator
        acc, power = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * power
            power *= q
        return Fraction(acc * q, self.den * power)

    def __add__(self, other) -> "PolyQ":
        return _add(self, as_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "PolyQ":
        return _poly([-c for c in self.num], self.den)

    def __sub__(self, other) -> "PolyQ":
        return _add(self, as_poly(other), -1)

    def __rsub__(self, other) -> "PolyQ":
        return _add(as_poly(other), self, -1)

    def __mul__(self, other) -> "PolyQ":
        other = as_poly(other)
        a, b = self.num, other.num
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b, i):
                out[k] += x * y
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "PolyQ":
        q = exact(scalar)
        if not q:
            raise ZeroDivisionError("polynomial division by zero")
        n, d = (q.numerator, q.denominator) if q > 0 else (-q.numerator, -q.denominator)
        return _poly([c * d for c in self.num], self.den * n)

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
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # A constant hashes as its value, since it compares equal to it.
        if len(self.num) <= 1:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __repr__(self) -> str:
        return f"PolyQ({self.to_strings()})"

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
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


def _poly(num: List[int], den: int = 1) -> PolyQ:
    """Internal constructor: the polynomial with coefficients num[k] / den.

    Takes a list of ints, which it strips of trailing zeros in place, and a
    positive int; reduces both by their gcd.  Every zero result is ``ZERO``.
    """
    while num and not num[-1]:
        num.pop()
    if not num:
        return ZERO
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    p = object.__new__(PolyQ)
    p.num = tuple(num)
    p.den = den
    return p


def _const(n: int, den: int = 1) -> PolyQ:
    """Internal constructor: the constant n / den, for ints n and den >= 1;
    reduces them by their gcd, and is ``ZERO`` when n is 0.  It is ``_poly``
    without the list work: built through ``_poly``, the 14 slots of a
    numeric product made ``multiply_divisors`` 45% slower (35 to 51 us,
    in-process medians of 10 runs on a 2-CPU Xeon host)."""
    if not n:
        return ZERO
    g = gcd(n, den)
    p = object.__new__(PolyQ)
    p.num = (n // g,)
    p.den = den // g
    return p


def _add(p: PolyQ, q: PolyQ, sign: int) -> PolyQ:
    """p + sign * q, over the lcm of the two denominators."""
    den = lcm(p.den, q.den)
    fp, fq = den // p.den, sign * (den // q.den)
    return _poly([x * fp + y * fq for x, y in zip_longest(p.num, q.num, fillvalue=0)], den)


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


def taylor_shift(p: PolyQ, a: int) -> PolyQ:
    """p(d + a) for an integer a, by repeated synthetic division on the
    numerators.  A certificate for every real d >= a: when no coefficient of
    p(d + a) is negative (positive), p(d) >= 0 (<= 0) for every d >= a."""
    num = list(p.num)
    for i in range(len(num) - 1):
        for k in range(len(num) - 2, i - 1, -1):
            num[k] += a * num[k + 1]
    return _poly(num, p.den)


def poly_numerators(polys: Sequence[PolyQ]) -> Tuple[List[Sequence[int]], int]:
    """The numerators of polynomials over one denominator, the lcm of theirs:
    ``polys[i].coeffs[k] == out[i][k] / den``."""
    den = lcm(*[p.den for p in polys])
    return [p.num if p.den == den else [c * (den // p.den) for c in p.num] for p in polys], den


def interpolate_columns(
    xs: Sequence[Scalar], columns: Iterable[Sequence[Scalar]]
) -> List[PolyQ]:
    """For each column, the polynomial of degree < n through (xs[i], column[i]).

    The point basis is built once per sample set, in O(n^2) integer
    operations.  Over one denominator, xs[i] = X_i / q, and point i's
    Lagrange polynomial is the integer polynomial
    p_i = prod_{j != i} (q*d - X_j) over the integer
    w_i = prod_{j != i} (X_i - X_j).  The product over all j, ``master``, is
    built once, and each p_i is its quotient by (q*d - X_i), by synthetic
    division from the top: p_i[k-1] = (master[k] + X_i p_i[k]) / q, exact
    in integers since p_i is.  The n of them are brought over one
    denominator, the lcm of the w_i.  Each column is cleared of its own
    denominators and applied to that basis with integer multiply-adds; the
    integer coefficients and their denominator go to ``_poly`` as they are.

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
    master = [1]
    for y in ints:
        master = [q * b - y * a for a, b in zip(master + [0], [0] + master)]
    basis, weights = [], []
    for i, x in enumerate(ints):
        poly, c, w = [], 0, 1
        for m in master[:0:-1]:  # master[n], ..., master[1]
            c = (m + x * c) // q
            poly.append(c)
        for j, y in enumerate(ints):
            if j != i:
                w *= x - y
        basis.append(poly[::-1])
        weights.append(w)
    den = lcm(*weights)
    basis = [[c * (den // w) for c in row] for row, w in zip(basis, weights)]

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
        out.append(_poly(acc, scale * den))
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
        """The polynomial sum of weights[k] * coeffs[k]: a rational row times the vector.

        The terms' integer numerators are added over the lcm of their
        denominators and reduced once.  A float weight raises TypeError, a
        row of another length than the vector ValueError.
        """
        if len(weights) != self.dim:
            raise ValueError(f"{len(weights)} weights for a vector of {self.dim} coefficients")
        terms = [(w, c) for w, c in zip(map(exact, weights), self.coeffs) if w and c]
        if not terms:
            return ZERO
        den = lcm(*[w.denominator * c.den for w, c in terms])
        acc = [0] * max(len(c.num) for _, c in terms)
        for w, c in terms:
            f = w.numerator * (den // (w.denominator * c.den))
            for k, x in enumerate(c.num):
                acc[k] += f * x
        return _poly(acc, den)

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
