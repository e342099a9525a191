"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar of order N is a vector of rationals over the power basis
{zeta_N^k : 0 <= k < phi(N)}, kept reduced modulo the N-th cyclotomic
polynomial.  N = 1 encodes plain rationals.  Arithmetic between scalars of
different orders embeds both operands into Q(zeta_lcm) first (a rational
operand skips that step, see Cyc), so the field tower is handled
transparently.  Conjugation maps zeta to zeta^(N-1), and float evaluation
substitutes exp(2*pi*i/N).

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
from math import gcd

from .errors import FormatError

_F0 = Fraction(0)
_F1 = Fraction(1)


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


def _reduce_poly(coeffs: list[Fraction], order: int) -> list[Fraction]:
    # remainder of a polynomial in zeta modulo the cyclotomic polynomial
    phi = euler_phi(order)
    cp = cyclotomic_polynomial(order)
    p = list(coeffs)
    if len(p) < phi:
        p.extend([_F0] * (phi - len(p)))
    for d in range(len(p) - 1, phi - 1, -1):
        c = p[d]
        if c:
            for j in range(phi):
                p[d - phi + j] -= c * cp[j]
            p[d] = _F0
    return p[:phi]


class Cyc:
    """An exact element of Q(zeta_order) in the reduced power basis.

    A rational operand meets a scalar of order N > 1 without an embedding:
    it shifts the constant coefficient (+, -), scales every coefficient
    (*), or compares against a constant-only vector (==).  The result keeps
    the order and coefficients the embedding into Q(zeta_N) produces, so
    rendering is unchanged.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs, reduce: bool = True):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if reduce:
            coeffs = _reduce_poly(coeffs, order)
        if order > 1 and all(c == 0 for c in coeffs[1:]):
            # rational values always collapse to order 1
            order, coeffs = 1, coeffs[:1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(p, q: int = 1) -> "Cyc":
        return Cyc(1, [Fraction(p, q)], reduce=False)

    @staticmethod
    def root(order: int, power: int = 1) -> "Cyc":
        """zeta_order raised to the given power."""
        power %= order
        return Cyc(order, [_F0] * power + [_F1])

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- order bookkeeping --------------------------------------------

    def embed(self, order: int) -> "Cyc":
        """Rewrite over the power basis of Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        step = order // self.order
        poly = [_F0] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            poly[k * step] = c
        out = Cyc.__new__(Cyc)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "coeffs", tuple(_reduce_poly(poly, order)))
        return out

    @staticmethod
    def _common(a: "Cyc", b: "Cyc") -> tuple["Cyc", "Cyc"]:
        if a.order == b.order:
            return a, b
        n = a.order * b.order // gcd(a.order, b.order)
        return a.embed(n), b.embed(n)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if self.order == other.order:
            return Cyc(self.order, [x + y for x, y in zip(a, b)], reduce=False)
        if self.order == 1:
            return Cyc(other.order, (a[0] + b[0],) + b[1:], reduce=False)
        if other.order == 1:
            return Cyc(self.order, (a[0] + b[0],) + a[1:], reduce=False)
        x, y = Cyc._common(self, other)
        return Cyc(x.order, [p + q for p, q in zip(x.coeffs, y.coeffs)], reduce=False)

    def __sub__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if self.order == other.order:
            return Cyc(self.order, [x - y for x, y in zip(a, b)], reduce=False)
        if self.order == 1:
            return Cyc(other.order, (a[0] - b[0],) + tuple(-y for y in b[1:]), reduce=False)
        if other.order == 1:
            return Cyc(self.order, (a[0] - b[0],) + a[1:], reduce=False)
        x, y = Cyc._common(self, other)
        return Cyc(x.order, [p - q for p, q in zip(x.coeffs, y.coeffs)], reduce=False)

    def __neg__(self):
        return Cyc(self.order, [-c for c in self.coeffs], reduce=False)

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order == 1:
            r = self.coeffs[0]
            return Cyc(other.order, [r * y for y in other.coeffs], reduce=False)
        if other.order == 1:
            r = other.coeffs[0]
            return Cyc(self.order, [x * r for x in self.coeffs], reduce=False)
        a, b = Cyc._common(self, other)
        prod = [_F0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return Cyc(a.order, prod)

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if self.order == 1:
            return Cyc(1, [1 / self.coeffs[0]], reduce=False)
        # extended euclid against the cyclotomic polynomial, which is
        # irreducible over Q, so the gcd is a nonzero constant
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [_F0], [_F1]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        c = r1[0]
        inv = [x / c for x in s1]
        return Cyc(self.order, inv)

    def __truediv__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order == 1 and other.order == 1:
            if other.coeffs[0] == 0:
                raise ZeroDivisionError("division by zero cyclotomic scalar")
            return Cyc(1, [self.coeffs[0] / other.coeffs[0]], reduce=False)
        return self * other.inverse()

    def conjugate(self) -> "Cyc":
        """Field conjugation zeta -> zeta^(order-1); identity on rationals."""
        if self.order == 1:
            return self
        poly = [_F0] * self.order
        for k, c in enumerate(self.coeffs):
            poly[(-k) % self.order] += c
        return Cyc(self.order, poly)

    # -- comparisons and rendering ------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        if self.order == 1:
            return other.coeffs[0] == self.coeffs[0] and not any(other.coeffs[1:])
        if other.order == 1:
            return self.coeffs[0] == other.coeffs[0] and not any(self.coeffs[1:])
        a, b = Cyc._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mixed-order equality makes a consistent hash awkward

    def sort_key(self, order: int | None = None):
        """Deterministic total-order key: coefficient tuple in a common field."""
        c = self.embed(order) if order else self
        return tuple((f.numerator, f.denominator) for f in c.coeffs)

    def to_complex(self) -> complex:
        if self.order == 1:
            return complex(self.coeffs[0])
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(complex(c) * z**k for k, c in enumerate(self.coeffs) if c)

    def text(self, order: int | None = None) -> str:
        """Canonical string per the scalar grammar, relative to the given order.
        A rational renders the same in every field, so it is not embedded."""
        c = self.embed(order) if order and self.order != 1 else self
        parts = []
        for k, f in enumerate(c.coeffs):
            if f == 0:
                continue
            sign = "-" if f < 0 else "+"
            a = abs(f)
            rat = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
            if k == 0:
                body = rat
            else:
                zp = "z" if k == 1 else f"z^{k}"
                body = zp if a == 1 else f"{rat}*{zp}"
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out

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
        poly: dict[int, Fraction] = {}
        for m in matches:
            term = m.group(0)
            sign = _F1
            if term[0] in "+-":
                if term[0] == "-":
                    sign = -_F1
                term = term[1:]
            tm = _TERM_RE.fullmatch(term)
            if tm is None:
                raise FormatError(f"bad scalar term {term!r} in {text!r}")
            rat, starz, exp1, zalone, exp2 = tm.groups()
            if rat is not None:
                try:
                    coeff = Fraction(rat)
                except ZeroDivisionError:
                    raise FormatError(f"zero denominator in scalar string {text!r}") from None
                k = 0 if starz is None else (1 if exp1 is None else int(exp1))
            else:
                coeff = _F1
                k = 1 if exp2 is None else int(exp2)
            k %= order
            poly[k] = poly.get(k, _F0) + sign * coeff
        coeffs = [_F0] * (max(poly) + 1 if poly else 1)
        for k, v in poly.items():
            coeffs[k] = v
        return Cyc(order, coeffs)


_TERM_SPLIT = re.compile(r"[+-]?[^+-]+")
_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)(\*z(?:\^(\d+))?)?|(z)(?:\^(\d+))?)$")


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [_F0], num
    q = [_F0] * (len(num) - dn)
    for shift in range(len(q) - 1, -1, -1):
        c = num[shift + dn] / lead
        q[shift] = c
        if c:
            for j, dj in enumerate(den):
                num[shift + j] -= c * dj
    rem = num[:dn] if dn else [_F0]
    return q, rem


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_F0] * (n - len(a))
    b = b + [_F0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


CYC_ZERO = Cyc.rational(0)
CYC_ONE = Cyc.rational(1)
CYC_MINUS_ONE = Cyc.rational(-1)
