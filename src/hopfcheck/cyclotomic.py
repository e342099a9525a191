"""Exact arithmetic in cyclotomic fields Q(zeta_N), on Python integers.

A scalar of order N is num / den: num holds phi(N) integers, the
coordinates over the power basis {zeta_N^k : 0 <= k < phi(N)}, and den is
one positive integer shared by all of them.  N = 1 encodes plain rationals.
A sum or comparison of scalars of different orders embeds both operands
into Q(zeta_lcm) first, and a product of two different orders is built
there straight from both coefficient tuples (a rational operand skips
both, see Cyc), so the field tower is handled transparently.
Conjugation maps zeta to zeta^(N-1), and float evaluation substitutes
exp(2*pi*i/N).

The N-th cyclotomic polynomial is monic with integer coefficients, so
reducing an integer polynomial in zeta modulo it stays in the integers:
every +, -, * and embedding works on numerators and one denominator product,
and no rational number is built.  Fraction appears only in the `coeffs`
view.

Most structure constants, counits, antipodes and stars are small integers,
so two rationals take an integer lane: +, - and * of two integers return
the integer with no gcd, and other rationals cross-multiply and reduce
once.  The integers -64..64 are shared instances, made once at import:
parsing, +, -, *, /, negation and inverse return one of them for an
integer in that range, and a product with the shared 1 is the other
operand itself.

The scalar text grammar used by the file format and the CLI:

    scalar   := term (('+'|'-') term)*
    term     := rational ('*' 'z' ('^' uint)?)? | 'z' ('^' uint)?
    rational := int ('/' uint)?

Examples: "1/2", "-3/4*z^2", "z", "1/2-3/4*z^2+z".
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .errors import FormatError


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, ascending coefficients
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[shift] = q
        if q:
            for j, dj in enumerate(den):
                num[shift + j] -= q * dj
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending, monic.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all proper
    divisors.  Cached for concurrent read with one-time insertion.
    """
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _int_poly_div(poly, list(cyclotomic_polynomial(d)))
    assert len(poly) == euler_phi(n) + 1 and poly[-1] == 1
    return tuple(poly)


@lru_cache(maxsize=None)
def _field(order: int) -> tuple:
    """(phi(order), the nonzero (j, c_j), j < phi, of the monic cyclotomic
    polynomial): zeta^phi = -sum c_j zeta^j."""
    cp = cyclotomic_polynomial(order)
    return len(cp) - 1, tuple((j, c) for j, c in enumerate(cp[:-1]) if c)


def _reduce(p: list, order: int) -> list:
    """The integer polynomial p in zeta_order (ascending, any length), in
    place, modulo the cyclotomic polynomial: phi(order) integers."""
    phi, low = _field(order)
    for d in range(len(p) - 1, phi - 1, -1):
        c = p[d]
        if c:
            base = d - phi
            for j, cj in low:
                p[base + j] -= c * cj
    if len(p) < phi:
        p.extend([0] * (phi - len(p)))
    else:
        del p[phi:]
    return p


def _mulmod(a, b, order: int) -> list:
    """The product of two integer polynomials in zeta_order, reduced."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    return _reduce(prod, order)


def _galois(a, k: int, order: int) -> list:
    """The image of the integer polynomial a under zeta -> zeta^k, reduced."""
    poly = [0] * order
    for i, x in enumerate(a):
        if x:
            poly[i * k % order] += x
    return _reduce(poly, order)


class Cyc:
    """An exact element of Q(zeta_order): num / den in the power basis.

    Canonical form: num has phi(order) integers, den > 0 and
    gcd(den, *num) == 1, and a value with no non-constant term has order 1.
    The power basis is a basis, and num / den in lowest terms with a
    positive den is unique, so a value of a given order has exactly one
    stored (order, num, den): `==` at equal orders compares tuples, and
    is_zero tests num.  Only `embed` returns a non-canonical scalar: it
    rewrites over the requested basis without collapsing a rational, which
    is what `text` and `sort_key` render.

    A rational operand meets a scalar of order N > 1 without an embedding:
    it shifts the constant coefficient (+, -), scales every coefficient
    (*), or compares against a constant-only vector (==).  The result keeps
    the order and coefficients the embedding into Q(zeta_N) produces, so
    rendering is unchanged.

    The inverse of x = num / den of order N > 1 is den * q / (num * q), q
    the product of the other Galois conjugates sigma_k(num), zeta -> zeta^k
    for the units k != 1 mod N.  num * q is the norm of num, the product of
    all its conjugates: fixed by the Galois group, so rational; integral,
    so an integer; and nonzero, because num is.  No division happens until
    that one denominator.

    Two rationals skip the general machinery: with both denominators 1 the
    result is the integer, else n1*d2 +- n2*d1 (or n1*n2) over d1*d2 in
    lowest terms.  An integer result with |n| <= 64 of parse, +, -, *, /,
    negation or inverse is a shared instance, and x * 1 and 1 * x return x
    itself when 1 is the shared instance.  Sharing is invisible to callers: a
    Cyc cannot be changed (__setattr__ raises), has no hash, and ==
    compares values, so no caller can tell a shared instance from a new
    one.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        """coeffs: ints or Fractions over the powers of zeta_order."""
        coeffs = list(coeffs)
        den = lcm(1, *(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        c = _make(order, _reduce(num, order), den)
        _set_order(self, c.order)
        _set_num(self, c.num)
        _set_den(self, c.den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coordinates as Fractions, a read-only view."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(p, q: int = 1) -> "Cyc":
        """p / q, for an int or Fraction p and an int q."""
        if not q:
            raise ZeroDivisionError(f"rational {p}/0")
        return _rational(p.numerator, p.denominator * q)

    @staticmethod
    def root(order: int, power: int = 1) -> "Cyc":
        """zeta_order raised to the given power."""
        power %= order
        return _make(order, _reduce([0] * power + [1], order), 1)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- order bookkeeping --------------------------------------------

    def embed(self, order: int) -> "Cyc":
        """Rewrite over the power basis of Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        step = order // self.order
        poly = [0] * ((len(self.num) - 1) * step + 1)
        poly[::step] = self.num
        # den stays coprime to num: Z[zeta_n] meets Q(zeta_m) in Z[zeta_m],
        # so a prime dividing every new coordinate divides every old one
        return _new(order, tuple(_reduce(poly, order)), self.den)

    @staticmethod
    def _common(a: "Cyc", b: "Cyc") -> tuple["Cyc", "Cyc"]:
        if a.order == b.order:
            return a, b
        n = lcm(a.order, b.order)
        return a.embed(n), b.embed(n)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order != other.order:
            if self.order == 1:
                return _affine(other, 1, self.num[0], self.den)
            if other.order == 1:
                return _affine(self, 1, other.num[0], other.den)
            self, other = Cyc._common(self, other)
        elif self.order == 1:
            da, db = self.den, other.den
            if da == 1 == db:
                return _int(self.num[0] + other.num[0])
            return _rational(self.num[0] * db + other.num[0] * da, da * db)
        return _combine(self.order, add, self.num, self.den, other.num, other.den)

    def __sub__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order != other.order:
            if self.order == 1:
                return _affine(other, -1, self.num[0], self.den)
            if other.order == 1:
                return _affine(self, 1, -other.num[0], other.den)
            self, other = Cyc._common(self, other)
        elif self.order == 1:
            da, db = self.den, other.den
            if da == 1 == db:
                return _int(self.num[0] - other.num[0])
            return _rational(self.num[0] * db - other.num[0] * da, da * db)
        return _combine(self.order, sub, self.num, self.den, other.num, other.den)

    def __neg__(self):
        if self.order == 1 and self.den == 1:
            return _int(-self.num[0])
        return _new(self.order, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        if self is CYC_ONE:
            return other
        if other is CYC_ONE:
            return self
        if self.order == 1:
            if other.order == 1:
                da, db = self.den, other.den
                if da == 1 == db:
                    return _int(self.num[0] * other.num[0])
                return _rational(self.num[0] * other.num[0], da * db)
            return _make(other.order, [self.num[0] * x for x in other.num],
                         self.den * other.den)
        if other.order == 1:
            return _make(self.order, [x * other.num[0] for x in self.num],
                         self.den * other.den)
        if self.order != other.order:
            return _mul_mixed(self, other)
        return _make(self.order, _mulmod(self.num, other.num, self.order),
                     self.den * other.den)

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        num, den, order = self.num, self.den, self.order
        if order == 1:
            return _rational(den, num[0])
        q = [1]
        for k in range(2, order):
            if gcd(k, order) == 1:
                q = _mulmod(q, _galois(num, k, order), order)
        norm = _mulmod(num, q, order)[0]  # num * q is the integer norm of num
        if norm < 0:
            norm, den = -norm, -den
        return _make(order, [den * x for x in q], norm)

    def __truediv__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order == 1 and other.order == 1:
            if not other.num[0]:
                raise ZeroDivisionError("division by zero cyclotomic scalar")
            return _rational(self.num[0] * other.den, self.den * other.num[0])
        return self * other.inverse()

    def conjugate(self) -> "Cyc":
        """Field conjugation zeta -> zeta^(order-1); identity on rationals."""
        if self.order == 1:
            return self
        return _make(self.order, _galois(self.num, -1, self.order), self.den)

    # -- comparisons and rendering ------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order == other.order:
            return self.num == other.num and self.den == other.den
        if self.order == 1:
            return (other.num[0] == self.num[0] and other.den == self.den
                    and not any(other.num[1:]))
        if other.order == 1:
            return (self.num[0] == other.num[0] and self.den == other.den
                    and not any(self.num[1:]))
        a, b = Cyc._common(self, other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # mixed-order equality makes a consistent hash awkward

    def sort_key(self, order: int | None = None):
        """Deterministic total-order key: the (numerator, denominator) of each
        coordinate in lowest terms, in a common field."""
        c = self.embed(order) if order else self
        d = c.den
        return tuple((x // g, d // g) for x in c.num for g in (gcd(x, d),))

    def to_complex(self) -> complex:
        d = self.den
        if self.order == 1:
            return complex(self.num[0] / d)
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(complex(x / d) * z**k for k, x in enumerate(self.num) if x)

    def text(self, order: int | None = None) -> str:
        """Canonical string per the scalar grammar, relative to the given order.
        A rational renders the same in every field, so it is not embedded."""
        c = self.embed(order) if order and self.order != 1 else self
        d = c.den
        out = []
        for k, x in enumerate(c.num):
            if not x:
                continue
            a = -x if x < 0 else x
            g = gcd(a, d)
            a, q = a // g, d // g
            rat = str(a) if q == 1 else f"{a}/{q}"
            if k:
                zp = "z" if k == 1 else f"z^{k}"
                rat = zp if a == 1 and q == 1 else f"{rat}*{zp}"
            out.append(("-" if x < 0 else "+") + rat)
        if not out:
            return "0"
        s = "".join(out)
        return s[1:] if s[0] == "+" else s

    def __repr__(self):
        return f"Cyc({self.text()!r}, order={self.order})"

    @staticmethod
    def parse(text: str, order: int) -> "Cyc":
        """Parse the scalar grammar; z denotes zeta_order.  Raises FormatError."""
        if order < 1:
            raise FormatError(f"field order must be positive, got {order}")
        s = text.replace(" ", "")
        if not s:
            raise FormatError("empty scalar string")
        matches = list(_TERM_SPLIT.finditer(s))
        if "".join(m.group(0) for m in matches) != s:
            raise FormatError(f"malformed scalar string {text!r}")
        terms = []  # (power, signed numerator, denominator)
        for m in matches:
            term = m.group(0)
            negative = term[0] == "-"
            if term[0] in "+-":
                term = term[1:]
            tm = _TERM_RE.fullmatch(term)
            if tm is None:
                raise FormatError(f"bad scalar term {term!r} in {text!r}")
            rat, starz, exp1, _, exp2 = tm.groups()
            n, _, d = (rat or "1").partition("/")
            power = exp1 or exp2 or ("0" if rat is not None and starz is None else "1")
            try:
                n, d, k = int(n), int(d or "1"), int(power)
            except ValueError as e:  # a numeral past sys.get_int_max_str_digits()
                digits = max(len(n), len(d), len(power))
                raise FormatError(f"scalar numeral of {digits} digits is too long") from e
            if not d:
                raise FormatError(f"zero denominator in scalar string {text!r}")
            terms.append((k % order, -n if negative else n, d))
        den = lcm(*(d for _, _, d in terms))
        poly = [0] * (max(k for k, _, _ in terms) + 1)
        for k, n, d in terms:
            poly[k] += n * (den // d)
        return _make(order, _reduce(poly, order), den)


_TERM_SPLIT = re.compile(r"[+-]?[^+-]+")
_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)(\*z(?:\^(\d+))?)?|(z)(?:\^(\d+))?)$")

_alloc = object.__new__
_set_order, _set_num, _set_den = Cyc.order.__set__, Cyc.num.__set__, Cyc.den.__set__


def _new(order: int, num: tuple, den: int) -> Cyc:
    """The Cyc with these fields, stored as given."""
    c = _alloc(Cyc)
    _set_order(c, order)
    _set_num(c, num)
    _set_den(c, den)
    return c


_SHARED = 64
# the integers -_SHARED..._SHARED, laid out 0, 1, ..., _SHARED, -_SHARED, ..., -1
# so that _SMALL_INTS[n] is n for a negative n too
_SMALL_INTS = tuple(_new(1, (n,), 1) for n in (*range(_SHARED + 1), *range(-_SHARED, 0)))


def _int(n: int) -> Cyc:
    """The integer n; one shared instance for each |n| <= _SHARED."""
    if -_SHARED <= n <= _SHARED:
        return _SMALL_INTS[n]
    return _new(1, (n,), 1)


def _rational(n: int, d: int) -> Cyc:
    """n / d in lowest terms, d nonzero."""
    if d < 0:
        n, d = -n, -d
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
        if d != 1:
            return _new(1, (n,), d)
    return _int(n)


def _make(order: int, num: list, den: int) -> Cyc:
    """num / den (den > 0, num in the reduced basis) in canonical form."""
    if not any(num[1:]):
        return _rational(num[0], den)
    g = gcd(den, *num)
    if g != 1:
        num = [x // g for x in num]
        den //= g
    return _new(order, tuple(num), den)


def _combine(order: int, op, a, da: int, b, db: int) -> Cyc:
    """op(a / da, b / db) for op add or sub, a and b in one basis."""
    if da != db:
        g = gcd(da, db)
        ma, mb = db // g, da // g
        a = [x * ma for x in a]
        b = [y * mb for y in b]
        da *= ma
    return _make(order, list(map(op, a, b)), da)


def _mul_mixed(a: Cyc, b: Cyc) -> Cyc:
    """a * b for two orders above 1 that differ, in Q(zeta_lcm): zeta_m^i
    is zeta_n^(i n/m), so the product polynomial is built straight from the
    two coefficient tuples and reduced once."""
    n = lcm(a.order, b.order)
    sa, sb = n // a.order, n // b.order
    prod = [0] * ((len(a.num) - 1) * sa + (len(b.num) - 1) * sb + 1)
    for i, x in enumerate(a.num):
        if x:
            for j, y in enumerate(b.num):
                if y:
                    prod[i * sa + j * sb] += x * y
    return _make(n, _reduce(prod, n), a.den * b.den)


def _affine(c: Cyc, sign: int, rn: int, rd: int) -> Cyc:
    """sign * c + rn / rd."""
    den = c.den
    if den == rd:
        num = [sign * x for x in c.num]
        num[0] += rn
    else:
        g = gcd(den, rd)
        m = rd // g
        num = [sign * m * x for x in c.num]
        num[0] += rn * (den // g)
        den *= m
    return _make(c.order, num, den)


CYC_ZERO = Cyc.rational(0)
CYC_ONE = Cyc.rational(1)
CYC_MINUS_ONE = Cyc.rational(-1)
