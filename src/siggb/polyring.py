"""Sparse exact multivariate polynomial arithmetic.

Monomials are exponent tuples over a fixed variable list.  Polynomials keep
their terms strictly descending in the ring's monomial order; the zero
polynomial is the empty term sequence.  Coefficients are exact: arbitrary
precision rationals or a word-sized prime field.

Reduction works on packed monomials instead (``PolyRing.pack``): one int of
fixed-width fields, whose int order is the monomial order, whose sum is the
product, and where one subtraction and a guard-bit mask test divisibility.
Both reduction loops, ``_reduce`` here (behind ``reduce_full`` and
``top_reduce``) and the signature engine's signed top reduction, keep the
working polynomial as a ``{packed: coeff}`` accumulator plus a heap, and
share one subtract step, ``_sub_tail``; they pack their inputs and unpack
only their results.  So does the one product kernel, ``sum_of_products``
(behind ``*`` and the evaluation of module vectors), which sums products in
one packed accumulator, over ℚ as integer numerators over one common
denominator.  A packed field holds at most 2^31 - 1, so an exponent (under
degrevlex, a total degree) beyond that raises DomainError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from operator import add, le, sub
from typing import Iterable, Mapping, Sequence


class StructureError(ValueError):
    """Shape mismatch: wrong exponent length, foreign ring, unknown position."""


class DomainError(ValueError):
    """Operation undefined for the given value (zero polynomial, zero vector)."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        elif column is not None:
            where = f" at column {column}"
        super().__init__(message + where)


class Cmp(IntEnum):
    LT = -1
    EQ = 0
    GT = 1


# ---------------------------------------------------------------------------
# exponent vectors (plain int tuples)

def exp_degree(e: tuple[int, ...]) -> int:
    return sum(e)


def exp_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) != len(b):
        raise StructureError("exponent length mismatch")
    return tuple(map(add, a, b))


def exp_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when the monomial a divides b componentwise."""
    if len(a) != len(b):
        raise StructureError("exponent length mismatch")
    return all(map(le, a, b))


def exp_mask(e: tuple[int, ...]) -> int:
    """Divisor mask: bit i is set when variable i occurs in e.

    If a divides b then ``exp_mask(a) & ~exp_mask(b) == 0``, so a nonzero
    result rules out divisibility without an exponent-wise test.
    """
    m = 0
    for i, x in enumerate(e):
        if x:
            m |= 1 << i
    return m


def exp_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """a / b as a monomial, or None when b does not divide a."""
    if len(a) != len(b):
        raise StructureError("exponent length mismatch")
    u = tuple(map(sub, a, b))
    return u if min(u, default=0) >= 0 else None


def lcm_term(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) != len(b):
        raise StructureError("exponent length mismatch")
    return tuple(map(max, a, b))


# Packed monomials (``PolyRing.pack``): one field per entry, its top bit a
# guard that a valid monomial leaves clear, so an entry is at most 2^31 - 1.
_FIELD_BITS = 32
_GUARD = 1 << (_FIELD_BITS - 1)
_FIELD_MASK = (1 << _FIELD_BITS) - 1


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: degrevlex or lex, with an optional variable precedence.

    ``precedence`` permutes the variables before the standard comparison;
    entry 0 names the most significant variable.  None means the ring's own
    variable order.
    """

    kind: str = "degrevlex"
    precedence: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise StructureError(f"unknown monomial order kind {self.kind!r}")

    def key(self, e: tuple[int, ...]):
        if self.precedence is not None:
            e = tuple(e[i] for i in self.precedence)
        if self.kind == "degrevlex":
            return (sum(e), tuple(-x for x in reversed(e)))
        return e


def compare(a: tuple[int, ...], b: tuple[int, ...], order: MonomialOrder) -> Cmp:
    """Total order on exponent vectors of equal length.

    ``order`` is a ``MonomialOrder`` or a ``PolyRing``: only its ``key`` is
    read, and the ring's caches it.
    """
    if len(a) != len(b):
        raise StructureError("exponent length mismatch")
    ka, kb = order.key(a), order.key(b)
    if ka < kb:
        return Cmp.LT
    if ka > kb:
        return Cmp.GT
    return Cmp.EQ


# ---------------------------------------------------------------------------
# coefficient fields

class RationalField:
    """Arbitrary-precision rationals."""

    is_prime = False

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, value) -> Fraction:
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DomainError("division by zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def render(self, a) -> str:
        return str(a)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """GF(p) with canonical representatives in [0, p)."""

    is_prime = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of(self, value) -> int:
        if isinstance(value, Fraction):
            return self.mul(value.numerator % self.p, self.inv(value.denominator % self.p))
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DomainError("division by zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def render(self, a) -> str:
        return str(a % self.p)


QQ = RationalField()


# ---------------------------------------------------------------------------
# ring and polynomials

class PolyRing:
    """Context object holding variable names, coefficient field, and order."""

    def __init__(self, names: Sequence[str], field=QQ, order: MonomialOrder | None = None):
        names = tuple(names)
        if not names:
            raise StructureError("ring needs at least one variable")
        if len(set(names)) != len(names):
            raise StructureError("duplicate variable names")
        self.names = names
        self.nvars = len(names)
        self.field = field
        self.order = order if order is not None else MonomialOrder()
        self.zero_exp = (0,) * self.nvars
        self._keycache: dict[tuple[int, ...], tuple] = {}
        self._packcache: dict[tuple[int, ...], int] = {}
        self._unpackcache: dict[int, tuple[int, ...]] = {}
        nfields = self.nvars * (2 if self.order.kind == "degrevlex" else 1)
        self._guard = sum(_GUARD << (_FIELD_BITS * i) for i in range(nfields))
        self._token_re = self._build_token_re()

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.names == self.names
            and other.field == self.field
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.names, self.field, self.order))

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; {self.field}; {self.order.kind})"

    def key(self, e: tuple[int, ...]):
        k = self._keycache.get(e)
        if k is None:
            k = self.order.key(e)
            self._keycache[e] = k
        return k

    def pack(self, e: tuple[int, ...]) -> int:
        """The packed monomial of e: one int whose order is ``compare``.

        Fields of ``_FIELD_BITS`` bits, most significant first, each topped
        by a guard bit that stays clear: under degrevlex the degree, then
        S_{n-1}, ..., S_1 with S_k = x_1 + ... + x_k, then x_1, ..., x_n;
        under lex x_1, ..., x_n; variables taken in ``precedence`` order.
        Adding two packed monomials multiplies them, and h divides e exactly
        when ``(e - h) & self._guard`` is zero.  Raises DomainError for an
        exponent that does not fit its field.
        """
        k = self._packcache.get(e)
        if k is None:
            if len(e) != self.nvars:
                raise StructureError("exponent length mismatch")
            prec = self.order.precedence
            x = [e[i] for i in prec] if prec is not None else list(e)
            fields = x
            if self.order.kind == "degrevlex":
                sums = [0]
                for v in x[:-1]:
                    sums.append(sums[-1] + v)
                fields = [sums[-1] + x[-1]] + sums[:0:-1] + x
            if min(x) < 0 or max(fields) >= _GUARD:
                raise DomainError(f"exponent {e} does not fit a packed monomial")
            k = 0
            for v in fields:
                k = (k << _FIELD_BITS) | v
            self._packcache[e] = k
            self._unpackcache[k] = e
        return k

    def unpack(self, k: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        e = self._unpackcache.get(k)
        if e is None:
            n = self.nvars
            x = [(k >> (_FIELD_BITS * (n - 1 - i))) & _FIELD_MASK for i in range(n)]
            prec = self.order.precedence
            if prec is not None:
                y = [0] * n
                for i, v in zip(prec, x):
                    y[i] = v
                x = y
            e = self._unpackcache[k] = tuple(x)
            self._packcache[e] = k
        return e

    # construction ---------------------------------------------------------

    def build(self, terms: Mapping[tuple[int, ...], object] | Iterable) -> "Polynomial":
        """Normalize a term mapping/iterable into a Polynomial."""
        acc: dict[tuple[int, ...], object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        f = self.field
        for e, c in items:
            e = tuple(e)
            if len(e) != self.nvars:
                raise StructureError("exponent length mismatch")
            prev = acc.get(e)
            acc[e] = f.add(prev, c) if prev is not None else c
        ordered = tuple(
            (e, c)
            for e, c in sorted(acc.items(), key=lambda t: self.key(t[0]), reverse=True)
            if not f.is_zero(c)
        )
        return Polynomial(self, ordered)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, ((self.zero_exp, self.field.one),))

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), self.field.one),))

    def monomial(self, e: tuple[int, ...], c=None) -> "Polynomial":
        c = self.field.one if c is None else c
        return self.build({tuple(e): c})

    def render_exp(self, e: tuple[int, ...]) -> str:
        if all(x == 0 for x in e):
            return "1"
        parts = []
        for name, k in zip(self.names, e):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    # parsing ---------------------------------------------------------------

    def _build_token_re(self):
        names = sorted(self.names, key=len, reverse=True)
        alt = "|".join(re.escape(n) for n in names)
        return re.compile(
            rf"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>{alt})|(?P<op>[\^\*/+-])"
        )

    def parse(self, text: str) -> "Polynomial":
        """Parse ``3*x^2*y - 1/2*z*t^3`` style text; ``*`` is optional."""
        tokens: list[tuple[str, str, int]] = []
        pos = 0
        for mo in self._token_re.finditer(text):
            if mo.start() != pos:
                raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
            pos = mo.end()
            kind = mo.lastgroup
            if kind != "ws":
                tokens.append((kind, mo.group(), mo.start()))
        if pos != len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
        if not tokens:
            raise ParseError("empty polynomial", column=1)

        f = self.field
        terms: list[tuple[tuple[int, ...], object]] = []
        i = 0
        n = len(tokens)

        def err(msg, tok=None):
            col = (tok[2] + 1) if tok is not None else len(text) + 1
            raise ParseError(msg, column=col)

        while i < n:
            sign = 1
            # leading signs of the term
            while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
                if tokens[i][1] == "-":
                    sign = -sign
                i += 1
            if i >= n:
                err("dangling sign")
            coeff = f.of(sign)
            exps = [0] * self.nvars
            saw_factor = False
            while i < n:
                kind, val, _ = tokens[i]
                if kind == "num":
                    i += 1
                    num = int(val)
                    if i < n and tokens[i][0] == "op" and tokens[i][1] == "/":
                        i += 1
                        if i >= n or tokens[i][0] != "num":
                            err("expected denominator", tokens[i - 1])
                        den = int(tokens[i][1])
                        if den == 0:
                            err("zero denominator", tokens[i])
                        i += 1
                        coeff = f.mul(coeff, f.of(Fraction(num, den)))
                    else:
                        coeff = f.mul(coeff, f.of(num))
                    saw_factor = True
                elif kind == "name":
                    vi = self.names.index(val)
                    i += 1
                    k = 1
                    if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
                        i += 1
                        if i >= n or tokens[i][0] != "num":
                            err("expected exponent", tokens[i - 1])
                        k = int(tokens[i][1])
                        i += 1
                    exps[vi] += k
                    saw_factor = True
                elif kind == "op" and val == "*":
                    i += 1
                    if i >= n or (tokens[i][0] == "op" and tokens[i][1] not in "+-"):
                        err("dangling '*'", tokens[i - 1])
                    if tokens[i][0] == "op":
                        err("dangling '*'", tokens[i - 1])
                elif kind == "op" and val in "+-":
                    break
                else:
                    err(f"unexpected {val!r}", tokens[i])
            if not saw_factor:
                err("empty term")
            terms.append((tuple(exps), coeff))
        return self.build(terms)


class Polynomial:
    """Immutable sparse polynomial; terms strictly descending in the order."""

    __slots__ = ("ring", "terms", "_reducer")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._reducer = None  # filled the first time it reduces: _pack_reducer

    # inspection -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    @property
    def ht(self) -> tuple[int, ...]:
        """Head term (monomial) under the ring's order."""
        if not self.terms:
            raise DomainError("zero polynomial has no head term")
        return self.terms[0][0]

    @property
    def hc(self):
        if not self.terms:
            raise DomainError("zero polynomial has no head coefficient")
        return self.terms[0][1]

    @property
    def lot(self) -> "Polynomial":
        """The polynomial minus its head term."""
        if not self.terms:
            raise DomainError("zero polynomial has no lower-order terms")
        return Polynomial(self.ring, self.terms[1:])

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(exp_degree(e) for e, _ in self.terms)

    # arithmetic -------------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if other.ring is not self.ring and other.ring != self.ring:
            raise StructureError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        acc = dict(self.terms)
        f = self.ring.field
        for e, c in other.terms:
            prev = acc.get(e)
            acc[e] = f.add(prev, c) if prev is not None else c
        return self.ring.build(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        acc = dict(self.terms)
        f = self.ring.field
        for e, c in other.terms:
            prev = acc.get(e)
            acc[e] = f.sub(prev, c) if prev is not None else f.neg(c)
        return self.ring.build(acc)

    def __neg__(self) -> "Polynomial":
        f = self.ring.field
        return Polynomial(self.ring, tuple((e, f.neg(c)) for e, c in self.terms))

    def mul_term(self, e: tuple[int, ...], c=None) -> "Polynomial":
        f = self.ring.field
        c = f.one if c is None else c
        if f.is_zero(c):
            return self.ring.zero
        if len(e) != self.ring.nvars:
            raise StructureError("exponent length mismatch")
        if f.is_prime:
            p = f.p
            terms = tuple((tuple(map(add, te, e)), tc * c % p) for te, tc in self.terms)
        else:
            terms = tuple((tuple(map(add, te, e)), f.mul(tc, c)) for te, tc in self.terms)
        return Polynomial(self.ring, terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return sum_of_products(self.ring, ((self, other),))

    def scale(self, c) -> "Polynomial":
        f = self.ring.field
        if f.is_zero(c):
            return self.ring.zero
        if f.is_prime:
            p = f.p
            return Polynomial(self.ring, tuple((e, tc * c % p) for e, tc in self.terms))
        return Polynomial(self.ring, tuple((e, f.mul(tc, c)) for e, tc in self.terms))

    def sub_mul(self, c, e: tuple[int, ...], other: "Polynomial") -> "Polynomial":
        """self - c * x^e * other, as one merge of two descending term lists.

        Multiplying by x^e keeps the order of other's terms, so the product
        streams out already sorted and nothing is re-sorted.
        """
        self._check(other)
        ring = self.ring
        if len(e) != ring.nvars:
            raise StructureError("exponent length mismatch")
        f = ring.field
        prime = f.p if f.is_prime else 0
        keys, key = ring._keycache, ring.key
        a = self.terms
        n = len(a)
        out = []
        i = 0
        ka = (keys.get(a[0][0]) or key(a[0][0])) if n else None
        for te, tc in other.terms:
            m = tuple(map(add, te, e))
            km = keys.get(m) or key(m)
            while i < n and ka > km:
                out.append(a[i])
                i += 1
                if i < n:
                    ka = keys.get(a[i][0]) or key(a[i][0])
            if i < n and ka == km:
                v = a[i][1] - tc * c
                i += 1
                if i < n:
                    ka = keys.get(a[i][0]) or key(a[i][0])
            else:
                v = -(tc * c)
            if prime:
                v %= prime
            if v:
                out.append((m, v))
        out.extend(a[i:])
        return Polynomial(ring, tuple(out))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.hc
        if c == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(c))

    # hashing / rendering ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        parts = []
        for i, (e, c) in enumerate(self.terms):
            cs = f.render(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            mono = self.ring.render_exp(e)
            if mono == "1":
                body = cs
            elif cs == "1":
                body = mono
            else:
                body = f"{cs}*{mono}"
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# S-polynomials and reduction

def spol(p1: Polynomial, p2: Polynomial):
    """Multipliers and S-polynomial: HC(p2)*u1*p1 - HC(p1)*u2*p2.

    Returns (u1, u2, s); the head terms of both products cancel at
    lcm(HT(p1), HT(p2)).
    """
    if p1.is_zero or p2.is_zero:
        raise DomainError("S-polynomial of a zero polynomial")
    p1._check(p2)
    l = lcm_term(p1.ht, p2.ht)
    u1 = exp_div(l, p1.ht)
    u2 = exp_div(l, p2.ht)
    s = p1.mul_term(u1, p2.hc).sub_mul(p1.hc, u2, p2)
    return u1, u2, s


def _pack_reducer(g: Polynomial) -> tuple:
    """Fill g's reducer slot: its packed head, the inverse of its head
    coefficient (None when it is one) and its packed tail."""
    ring = g.ring
    pack = ring.pack
    (ht, hc), *tail = g.terms
    inv = None if hc == ring.field.one else ring.field.inv(hc)
    g._reducer = (pack(ht), inv, tuple((pack(e), c) for e, c in tail))
    return g._reducer


def _packed(p: Polynomial) -> tuple[dict, list]:
    """p as a ``{packed: coeff}`` accumulator and a heap of its negated
    packed monomials, so heapq pops the largest monomial first."""
    pack = p.ring.pack
    acc = {}
    heap = []  # p's terms descend, so their negations ascend: a heap
    for e, c in p.terms:
        k = pack(e)
        acc[k] = c
        heap.append(-k)
    return acc, heap


def _sub_tail(acc: dict, heap: list, q, u: int, tail: tuple, overflow: int) -> None:
    """acc -= q * x^u * tail, tail a reducer's packed tail: the one subtract
    step of both reduction loops.

    A monomial new to acc goes on the heap.  Nothing leaves acc here and no
    coefficient is reduced: over GF(p) a coefficient is a raw sum of
    products, taken mod p only where a loop reads it, and a term that
    cancels, over ℚ too, stays as a zero that the reader skips.
    ``overflow`` is the ring's guard mask under lex, where a product can
    outgrow its field (DomainError), and 0 under degrevlex, where none can.
    """
    get = acc.get
    for te, tc in tail:
        m = te + u
        if overflow and m & overflow:
            raise DomainError("exponent overflow in a packed monomial")
        prev = get(m)
        if prev is None:
            acc[m] = -tc * q
            heappush(heap, -m)
        else:
            acc[m] = prev - tc * q


def _settle(ring: PolyRing, done: list, acc: dict, prime: int, den: int = 0) -> Polynomial:
    """The polynomial of the packed terms ``done``, then of acc's nonzero
    terms, descending, taken mod p over GF(p) (``prime`` is 0 over ℚ).
    A nonzero ``den`` makes each of acc's values, an integer numerator,
    Fraction(value, den)."""
    for k in sorted(acc, reverse=True):
        v = acc[k] % prime if prime else acc[k]
        if v:
            done.append((k, Fraction(v, den) if den else v))
    unpack = ring.unpack
    return Polynomial(ring, tuple((unpack(k), v) for k, v in done))


def _numerators(p: Polynomial) -> tuple[int, list]:
    """d, the lcm of p's coefficient denominators, and p's terms as
    (packed monomial, c·d) pairs, integers; over GF(p) d is 1."""
    d = lcm(*[c.denominator for _, c in p.terms])
    ring = p.ring
    packed, pack = ring._packcache.get, ring.pack
    return d, [(packed(e) or pack(e), c.numerator * (d // c.denominator)) for e, c in p.terms]


def sum_of_products(ring: PolyRing, products: Iterable) -> Polynomial:
    """The sum of a·b over the (a, b) polynomial pairs of ``products``: the
    one product kernel, behind ``Polynomial.__mul__`` and
    ``syzygy.evaluate``.

    Every product goes into one ``{packed: numerator}`` accumulator, sorted
    and unpacked once at the end.  Coefficients multiply as integers over
    one common denominator D, the lcm over the products of d_a·d_b, with d_a
    the lcm of a's coefficient denominators: a term pair adds
    (c_a·d_a)·(c_b·d_b)·D/(d_a·d_b).  A surviving sum n becomes
    Fraction(n, D) over ℚ and n mod p over GF(p), where every coefficient is
    an int of denominator 1, so D = 1.

    Under degrevlex every field of a product term is at most the degree of
    the heads' product, so one test per product finds an exponent that
    overflows its packed field; under lex every product term is tested.
    Either raises DomainError.
    """
    f = ring.field
    prime = f.p if f.is_prime else 0
    guard = ring._guard
    overflow = guard if ring.order.kind == "lex" else 0
    factors = []
    den = 1
    for a, b in products:
        for p in (a, b):
            if p.ring is not ring and p.ring != ring:
                raise StructureError("polynomials from different rings")
        if a.terms and b.terms:
            (da, ta), (db, tb) = _numerators(a), _numerators(b)
            factors.append((da * db, ta, tb))
            den = lcm(den, da * db)
    acc: dict[int, int] = {}
    get = acc.get
    for dab, ta, tb in factors:
        if (ta[0][0] + tb[0][0]) & guard:
            raise DomainError("exponent overflow in a packed monomial")
        s = den // dab
        for ka, na in ta:
            na *= s
            for kb, nb in tb:
                m = ka + kb
                if overflow and m & overflow:
                    raise DomainError("exponent overflow in a packed monomial")
                acc[m] = get(m, 0) + na * nb
    return _settle(ring, [], acc, prime, 0 if prime else den)


def _reduce(p: Polynomial, basis: Sequence[Polynomial], full: bool) -> Polynomial:
    """The reduction loop behind ``reduce_full`` and ``top_reduce``.

    It runs on packed monomials (``PolyRing.pack``): the working polynomial
    is a ``{packed: coeff}`` accumulator plus a heap of negated packed ints,
    so heapq pops the largest monomial first; a popped term that is zero
    (mod p) has cancelled and is skipped.  Each nonzero popped term is
    reduced by the first basis element, in insertion order, whose head
    divides it (the guard-bit test), exactly as a term-by-term ``sub_mul``
    would, so every intermediate polynomial is the same.  Only the result is
    unpacked.  ``full=False`` stops at the first irreducible term.

    Under degrevlex no product outgrows the term it replaces; under lex a
    product can, and one whose exponent overflows its field raises
    DomainError.
    """
    ring = p.ring
    reducers = []
    for g in basis:
        if g.terms:
            p._check(g)
            reducers.append(g._reducer or _pack_reducer(g))
    f = ring.field
    prime = f.p if f.is_prime else 0
    guard = ring._guard
    overflow = guard if ring.order.kind == "lex" else 0
    acc, heap = _packed(p)
    done = []
    while heap:
        e = -heappop(heap)
        c = acc.pop(e)
        if prime:
            c %= prime
        if not c:
            continue
        for hk, inv, tail in reducers:
            u = e - hk
            if u & guard:
                continue
            q = c
            if inv is not None:
                q = c * inv % prime if prime else c * inv
            _sub_tail(acc, heap, q, u, tail, overflow)
            break
        else:
            done.append((e, c))
            if not full:
                break
    return _settle(ring, done, acc, prime)


def top_reduce(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Head-reduce p by the first eligible reducer in insertion order.

    Only head terms are rewritten; the result is monic (or zero) and its head
    is divisible by no basis head.
    """
    return _reduce(p, basis, full=False).monic()


def reduce_full(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Full normal form: every term of the result is irreducible."""
    return _reduce(p, basis, full=True)


def minimal_basis(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """The nonzero elements whose head no other element's head divides,
    keeping the first of equal heads, in their given order.

    For a Groebner basis the result is a minimal Groebner basis of the same
    ideal; for other input it can lose part of the ideal.
    """
    polys = [p for p in polys if p.terms]
    if not polys:
        return []
    ring = polys[0].ring
    guard = ring._guard
    heads = [ring.pack(p.terms[0][0]) for p in polys]
    return [
        p for i, (p, h) in enumerate(zip(polys, heads))
        if not any(
            not (h - g) & guard and (g != h or j < i)
            for j, g in enumerate(heads) if j != i
        )
    ]


def reduced_basis(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """The unique reduced monic basis of a Groebner basis, head-ascending.

    Sequential autoreduction, round by round: every element is fully reduced
    against all the others, redundant elements fall out as zeros.  A round
    that changes no surviving head is the last: each of its results was
    reduced against every head that survives it, so no term of one is
    divisible by another's head, and a further round would change nothing.
    """
    current = [p.monic() for p in polys if not p.is_zero]
    if not current:
        return []
    ring = current[0].ring
    for _ in range(100):
        current.sort(key=lambda p: ring.key(p.ht))
        reduced: list[Polynomial] = []
        heads_kept = True
        for i, f in enumerate(current):
            r = reduce_full(f, reduced + current[i + 1:])
            if r.is_zero:
                continue
            if r.terms[0][0] != f.terms[0][0]:
                heads_kept = False
            reduced.append(r.monic())
        if heads_kept:
            return reduced
        current = reduced
    raise RuntimeError("autoreduction did not stabilize")
