"""Sparse exact multivariate polynomial arithmetic.

Monomials are packed (``PolyRing.pack``): one int of fixed-width fields,
whose int order is the ring's monomial order, whose sum is the product, and
where one subtraction and a guard-bit mask test divisibility; a guard-bit
field-wise max on the variable fields gives an lcm (``lcm_cofactors``).  The packed
monomial is the ring's only order key (``PolyRing.key``).  A polynomial
stores its terms in one form, ``Polynomial.packed``: (packed monomial,
coefficient) pairs, strictly descending; the zero polynomial is the empty
tuple.  Exponent tuples appear only at the edges: ``parse`` and ``build``
take them, ``terms`` and ``str`` give them back, and ``ht``, which the
criteria read, is the head's tuple, unpacked once per polynomial.
Coefficients are exact (``Field``): Fractions over ℚ, or over GF(p), for
any prime p below 3.3·10^24, ints in [0, p).  Every kernel reads p from
``ring.field.p``, 0 over ℚ, and takes a GF(p) result mod p itself.

Both reduction loops, ``_reduce`` here (behind ``reduce_full`` and
``top_reduce``) and the signature engine's signed top reduction, keep the
working polynomial on dense monomial ids: a ring interns the packed
monomials its reductions meet (``PolyRing.intern``), and one reduction
takes every id from one ring, its reducers' (a ``Reducers``' or the
signature state's), which the polynomials' rings equal but need not be;
the accumulator is a list indexed by id, None where a monomial is absent,
and a heap of negated packed monomials pops the largest first
(``_working``).  Over ℚ the values
are integer numerators over one running denominator that become Fractions
only where a value leaves the loop.  The loops share one reduction step:
``_step`` prepares it, a reducer's head factor and its tail shifted to the
monomial it reduces, as ids and coefficients, and ``_sub_step`` applies
it, rescaling the live numerators over ℚ.  The one product kernel,
``sum_of_products`` (behind ``*`` and the evaluation of module vectors),
sums products in one dict keyed by packed monomial, over ℚ as integer
numerators over one common denominator.  One ``_settle`` makes the result
of a reduction or a product.  A product by one term is one kernel too,
``shift_terms``, behind ``Polynomial.mul_term``, the module vectors' own
and the reduction steps.  A packed field holds at most 2^31 - 1, so an
exponent (under degrevlex, a total degree) beyond that raises DomainError,
whether it is parsed or made by a product.

``_reduce`` reduces against a ``Reducers``, an append-only list of
reducers with two memos of a monomial e.  One, keyed by e's packed
monomial, remembers across reductions e's first dividing reducer, or that
none of the first k divides it: in a list that only grows, a first divisor
stays first.  The other, keyed by e's id, holds e's prepared step, the first
reducer's head factor and its tail shifted to e, built the first time a
reduction pops e and reused by every later one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
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


def _low_fields(k: int, n: int) -> tuple[int, ...]:
    """The low n fields of k, most significant first: the exponents x_1,
    ..., x_n of a packed monomial, or of its variable fields."""
    return tuple((k >> (_FIELD_BITS * (n - 1 - i))) & _FIELD_MASK for i in range(n))


def lcm_cofactors(a: int, b: int, guard: int) -> tuple[int, int]:
    """The cofactors lcm/a and lcm/b of two monomials, given and returned
    as their variable fields (``v & ring._varmask`` of a packed monomial v;
    the whole packed int under lex), with guard ``ring._varguard``.

    The lcm is the field-wise max.  Setting a's guard bits and subtracting
    b leaves a field's guard bit set exactly when a's field is >= b's, and
    borrows nothing across fields; turning each such bit into its field's
    mask selects a's fields there and b's elsewhere.  Each cofactor is then
    one subtraction, again without borrows.
    """
    m = ((a | guard) - b) & guard
    m -= m >> (_FIELD_BITS - 1)
    l = b ^ ((a ^ b) & m)
    return l - a, l - b


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on the ring's variables, x_1 > x_2 > ... > x_n:
    degrevlex or lex, named by ``kind``."""

    kind: str = "degrevlex"

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise StructureError(f"unknown monomial order kind {self.kind!r}")

    def key(self, e: tuple[int, ...]):
        """A tuple that sorts as e does in this order: the ring-free
        reference that ``PolyRing.pack`` must match."""
        if self.kind == "degrevlex":
            return (sum(e), tuple(-x for x in reversed(e)))
        return e


def compare(a: tuple[int, ...], b: tuple[int, ...], order: MonomialOrder) -> Cmp:
    """Total order on exponent vectors of equal length.

    ``order`` is a ``MonomialOrder`` or a ``PolyRing``: only its ``key`` is
    read, and a ring's key is its packed monomial.
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

# Miller-Rabin with the first 13 primes as bases is exact below
# _PRIME_BOUND, the least composite that is a strong pseudoprime to all of
# them (about 3.3 * 10^24).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below _PRIME_BOUND;
    DomainError at or above it, where the test would not be exact."""
    if n >= _PRIME_BOUND:
        raise DomainError(f"primality is only decided below {_PRIME_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The coefficient field: ``Field(p)`` is GF(p), its elements the ints
    in [0, p); ``Field()`` is ℚ, its elements Fractions, and ``p`` is 0.

    Arithmetic is Python's own: the kernels add and multiply coefficients
    as they are and, over GF(p), take the result mod ``p``.  ``of`` makes an
    int or a Fraction an element, and ``inv`` inverts a nonzero one.
    """

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p or 0
        self.one = 1 if p else Fraction(1)

    def of(self, value):
        """value, an int or a Fraction, as an element; over GF(p),
        DomainError when p divides its denominator."""
        p = self.p
        if not p:
            return Fraction(value)
        if isinstance(value, Fraction):
            return value.numerator * self.inv(value.denominator) % p
        return value % p

    def inv(self, a):
        p = self.p
        if p:
            a %= p
        if not a:
            raise DomainError("division by zero")
        return pow(a, -1, p) if p else 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"


QQ = Field()


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
        self._packcache: dict[tuple[int, ...], int] = {}
        self._unpackcache: dict[int, tuple[int, ...]] = {}
        self._varcache: dict[int, tuple[int, ...]] = {}  # unpack_vars, apart from the pack caches
        self._rendercache: dict[tuple[int, ...], str] = {}
        # a monomial's dense id (``intern``): negated packed monomial -> id,
        # and id -> negated packed monomial, the heap entry of a reduction
        self._ids, self._negs = {}, []
        nfields = self.nvars * (2 if self.order.kind == "degrevlex" else 1)
        self._guard = sum(_GUARD << (_FIELD_BITS * i) for i in range(nfields))
        # the variable fields x_1, ..., x_n: the low nvars fields of a packed monomial
        self._varmask = (1 << (_FIELD_BITS * self.nvars)) - 1
        self._varguard = self._guard & self._varmask
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

    def pack(self, e: tuple[int, ...]) -> int:
        """The packed monomial of e: one int whose order is ``compare``, and
        so the ring's order key (``key``).

        Fields of ``_FIELD_BITS`` bits, most significant first, each topped
        by a guard bit that stays clear: under degrevlex the degree, then
        S_{n-1}, ..., S_1 with S_k = x_1 + ... + x_k, then x_1, ..., x_n;
        under lex x_1, ..., x_n.
        Adding two packed monomials multiplies them, and h divides e exactly
        when ``(e - h) & self._guard`` is zero.  Raises DomainError for an
        exponent that does not fit its field.
        """
        k = self._packcache.get(e)
        if k is None:
            if len(e) != self.nvars:
                raise StructureError("exponent length mismatch")
            fields = e
            if self.order.kind == "degrevlex":
                sums = [0]
                for v in e[:-1]:
                    sums.append(sums[-1] + v)
                fields = [sums[-1] + e[-1], *sums[:0:-1], *e]
            if min(e) < 0 or max(fields) >= _GUARD:
                raise DomainError(f"exponent {e} does not fit a packed monomial")
            k = 0
            for v in fields:
                k = (k << _FIELD_BITS) | v
            self._packcache[e] = k
            self._unpackcache[k] = e
        return k

    key = pack

    def unpack(self, k: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        e = self._unpackcache.get(k)
        if e is None:
            e = self._unpackcache[k] = _low_fields(k, self.nvars)
            self._packcache[e] = k
        return e

    def unpack_vars(self, v: int) -> tuple[int, ...]:
        """The exponent tuple of v, an int of the variable fields alone
        (``lcm_cofactors``).  Under degrevlex v is no packed monomial, so it
        has its own cache and never enters the pack caches."""
        e = self._varcache.get(v)
        if e is None:
            e = self._varcache[v] = _low_fields(v, self.nvars)
        return e

    def intern(self, packed: Iterable) -> tuple:
        """The ids of packed terms' monomials, in their order: each packed
        monomial's dense id, the next free one the first time the ring meets
        it.  ``_negs`` maps an id to its negated packed monomial
        and ``_ids`` maps that back, keyed by the same int, which is what a
        reduction's heap holds; like the other caches they only grow."""
        ids, negs = self._ids, self._negs
        out = []
        for k, c in packed:
            i = ids.get(-k)
            if i is None:
                i = ids[-k] = len(negs)
                negs.append(-k)
            out.append(i)
        return tuple(out)

    # construction ---------------------------------------------------------

    def build(self, terms: Mapping[tuple[int, ...], object] | Iterable) -> "Polynomial":
        """Normalize a mapping or iterable of (exponent tuple, coefficient)
        terms, each coefficient an int or a Fraction, into a Polynomial:
        equal monomials summed, each sum made an element (``Field.of``),
        zeros dropped."""
        acc: dict[int, object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        pack = self.pack
        for e, c in items:
            k = pack(tuple(e))
            acc[k] = acc.get(k, 0) + c
        of = self.field.of
        packed = ((k, of(acc[k])) for k in sorted(acc, reverse=True))
        return Polynomial(self, tuple((k, c) for k, c in packed if c))

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, ((0, self.field.one),))

    def monomial(self, e: tuple[int, ...], c=None) -> "Polynomial":
        c = self.field.one if c is None else c
        return self.build({tuple(e): c})

    def render_exp(self, e: tuple[int, ...]) -> str:
        """``x^2*y``, or ``1`` for the unit; memoised per monomial."""
        text = self._rendercache.get(e)
        if text is None:
            parts = []
            for name, k in zip(self.names, e):
                if k == 1:
                    parts.append(name)
                elif k > 1:
                    parts.append(f"{name}^{k}")
            text = self._rendercache[e] = "*".join(parts) or "1"
        return text

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
            if kind == "num":
                try:
                    tokens.append((kind, int(mo.group()), mo.start()))
                except ValueError:  # past sys.get_int_max_str_digits()
                    raise ParseError("number too long", column=mo.start() + 1) from None
            elif kind != "ws":
                tokens.append((kind, mo.group(), mo.start()))
        if pos != len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
        if not tokens:
            raise ParseError("empty polynomial", column=1)

        p = self.field.p
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
            first = tokens[i]
            coeff = sign
            exps = [0] * self.nvars
            saw_factor = False
            while i < n:
                kind, val, _ = tokens[i]
                if kind == "num":
                    i += 1
                    num = val
                    if i < n and tokens[i][0] == "op" and tokens[i][1] == "/":
                        i += 1
                        if i >= n or tokens[i][0] != "num":
                            err("expected denominator", tokens[i - 1])
                        den = tokens[i][1]
                        if den == 0:
                            err("zero denominator", tokens[i])
                        q = Fraction(num, den)
                        if p and q.denominator % p == 0:
                            err(f"denominator is divisible by {p}", tokens[i])
                        coeff *= q
                        i += 1
                    else:
                        coeff *= num
                    saw_factor = True
                elif kind == "name":
                    vi = self.names.index(val)
                    i += 1
                    k = 1
                    if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
                        i += 1
                        if i >= n or tokens[i][0] != "num":
                            err("expected exponent", tokens[i - 1])
                        k = tokens[i][1]
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
            e = tuple(exps)
            try:
                self.pack(e)
            except DomainError:  # a field of the packed monomial past 2^31 - 1
                err("exponent too large", first)
            terms.append((e, coeff))
        return self.build(terms)


class Polynomial:
    """Immutable sparse polynomial.

    ``packed`` is its one stored term form: (packed monomial, coefficient)
    pairs, strictly descending in the ring's order.  ``terms`` unpacks them
    to (exponent tuple, coefficient) pairs on every read, for parsing,
    rendering and callers outside the ring; ``ht`` unpacks the head once.
    """

    __slots__ = ("ring", "packed", "_ht", "_numer")

    def __init__(self, ring: PolyRing, packed: tuple):
        self.ring = ring
        self.packed = packed
        self._ht = None  # filled the first time ht is read
        self._numer = None  # over ℚ, filled once it is a factor or a reducer: _numerators

    # inspection -------------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The terms as (exponent tuple, coefficient) pairs, descending."""
        unpack = self.ring.unpack
        return tuple((unpack(k), c) for k, c in self.packed)

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self):
        return bool(self.packed)

    def __len__(self):
        return len(self.packed)

    @property
    def ht(self) -> tuple[int, ...]:
        """Head term (monomial) under the ring's order, as an exponent tuple."""
        e = self._ht
        if e is None:
            if not self.packed:
                raise DomainError("zero polynomial has no head term")
            e = self._ht = self.ring.unpack(self.packed[0][0])
        return e

    @property
    def hc(self):
        if not self.packed:
            raise DomainError("zero polynomial has no head coefficient")
        return self.packed[0][1]

    # arithmetic -------------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if other.ring is not self.ring and other.ring != self.ring:
            raise StructureError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.ring, _merge(self.packed, -1, 0, other.packed, self.ring.field.p))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.ring, _merge(self.packed, 1, 0, other.packed, self.ring.field.p))

    def __neg__(self) -> "Polynomial":
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((k, -c % p if p else -c) for k, c in self.packed))

    def mul_term(self, e: tuple[int, ...], c=None) -> "Polynomial":
        """c * x^e * self; without c each coefficient is kept as it is.

        Multiplying by x^e adds its packed monomial to each term's, which
        keeps their order.  DomainError when a product leaves its field.
        """
        ring = self.ring
        p = ring.field.p
        if c is not None and not (c % p if p else c):
            return ring.zero
        return Polynomial(ring, shift_terms(ring, self.packed, ring.pack(e), c))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return sum_of_products(self.ring, ((self, other),))

    def scale(self, c) -> "Polynomial":
        p = self.ring.field.p
        if not (c % p if p else c):
            return self.ring.zero
        if p:
            return Polynomial(self.ring, tuple((k, tc * c % p) for k, tc in self.packed))
        return Polynomial(self.ring, tuple((k, tc * c) for k, tc in self.packed))

    def sub_mul(self, c, e: tuple[int, ...], other: "Polynomial") -> "Polynomial":
        """self - c * x^e * other, as one merge (``_merge``).  DomainError
        when a product leaves its packed field."""
        self._check(other)
        ring = self.ring
        u = ring.pack(e)
        _check_shift(ring, other.packed, u)
        return Polynomial(ring, _merge(self.packed, c, u, other.packed, ring.field.p))

    def monic(self) -> "Polynomial":
        if not self.packed:
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
            and other.packed == self.packed
        )

    def __hash__(self):
        return hash(self.packed)

    def __str__(self):
        if not self.packed:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            cs = str(c)
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


def check_generators(F: Iterable[Polynomial]) -> tuple[list, PolyRing]:
    """F as a list, and its ring: the input check of both engines.
    DomainError for an empty sequence or a zero generator, StructureError
    for generators from different rings."""
    F = list(F)
    if not F:
        raise DomainError("empty generator sequence")
    for f in F:
        if f.is_zero:
            raise DomainError("zero generator")
        if f.ring != F[0].ring:
            raise StructureError("generators from different rings")
    return F, F[0].ring


# ---------------------------------------------------------------------------
# S-polynomials and reduction

def spol(p1: Polynomial, p2: Polynomial):
    """Multipliers and S-polynomial: HC(p2)*u1*p1 - HC(p1)*u2*p2.

    Returns (u1, u2, s); the head terms of both products cancel at
    lcm(HT(p1), HT(p2)).  The Buchberger oracle's construction: the
    signature engine takes the cofactors it already holds
    (``signature.build_labeled_spol``).
    """
    if p1.is_zero or p2.is_zero:
        raise DomainError("S-polynomial of a zero polynomial")
    p1._check(p2)
    l = lcm_term(p1.ht, p2.ht)
    u1 = exp_div(l, p1.ht)
    u2 = exp_div(l, p2.ht)
    s = p1.mul_term(u1, p2.hc).sub_mul(p1.hc, u2, p2)
    return u1, u2, s


def shift_terms(ring: PolyRing, packed: tuple, u: int, c=None) -> tuple:
    """The packed terms of c * x^u * packed, for packed monomial u and a
    nonzero c (without c each coefficient is kept as it is); a nonzero c
    zeroes no term, so nothing is filtered.  Adding u keeps the terms' order.
    DomainError when a product leaves its field (``_check_shift``)."""
    _check_shift(ring, packed, u)
    # a list comprehension: quicker than a generator on the few terms of most entries
    if c is None:
        return tuple([(k + u, tc) for k, tc in packed])
    p = ring.field.p
    if p:
        return tuple([(k + u, tc * c % p) for k, tc in packed])
    return tuple([(k + u, tc * c) for k, tc in packed])


def _check_shift(ring: PolyRing, packed: tuple, u: int) -> None:
    """DomainError when x^u times a term of ``packed`` leaves its packed
    field, where an unchecked sum would carry into the next field.  Under
    degrevlex every field of a term is at most its degree, so the head's
    product bounds them all; under lex each product is tested."""
    guard = ring._guard
    if ring.order.kind == "lex":
        bad = any((k + u) & guard for k, _ in packed)
    else:
        bad = packed and (packed[0][0] + u) & guard
    if bad:
        raise DomainError("exponent overflow in a packed monomial")


def _merge(a: tuple, c, u: int, b: tuple, prime: int) -> tuple:
    """The packed terms of a - c * x^u * b, from packed terms a and b, as
    one merge of two descending lists: adding u keeps b's order, so the
    product streams out already sorted and nothing is re-sorted.  Over
    GF(p) (``prime``) each merged coefficient is taken mod p."""
    n = len(a)
    out = []
    i = 0
    ka = a[0][0] if n else -1  # packed monomials are >= 0: -1 is past the end
    for kb, tc in b:
        m = kb + u
        while ka > m:
            out.append(a[i])
            i += 1
            ka = a[i][0] if i < n else -1
        if ka == m:
            v = a[i][1] - tc * c
            i += 1
            ka = a[i][0] if i < n else -1
        else:
            v = -(tc * c)
        if prime:
            v %= prime
        if v:
            out.append((m, v))
    out.extend(a[i:])
    return tuple(out)


def _working(ring: PolyRing, terms: tuple) -> tuple[list, list]:
    """The accumulator and heap of a reduction loop that starts from packed
    terms.  The accumulator is a list indexed by monomial id
    (``PolyRing.intern``), None where a monomial is absent; the heap holds
    the live monomials' negated packed ints, so heapq pops the largest
    first: the terms descend, so their negations ascend, which is a heap.
    The heap's entries are exactly the live ones: a monomial goes on it
    when it enters the accumulator and leaves it when it is popped."""
    negs, ids = ring._negs, ring.intern(terms)
    acc = [None] * len(negs)
    for i, (_, c) in zip(ids, terms):
        acc[i] = c
    return acc, [negs[i] for i in ids]


def _remaining(ring: PolyRing, acc: list, heap: list) -> list:
    """The live (packed monomial, value) pairs of a reduction loop,
    descending, for ``_settle``: the heap's entries, sorted, each with its
    accumulator entry."""
    return [(-k, acc[ring._ids[k]]) for k in sorted(heap)]


def _sub_step(acc: list, heap: list, c, step: tuple, ring: PolyRing, den: int) -> int:
    """Reduce the term that c, popped from acc, was the coefficient of, by
    its prepared step (h, ids, coeffs) (``_step``): the one reduction step of
    both loops.  Returns the denominator acc's values are then over.

    Over GF(p) h is the reducer's head inverse, and acc -= c·h · tail.
    Over ℚ c and acc's values are integer numerators over den, and h is the
    reducer's head numerator: the live entries, those on the heap, and den
    are rescaled by a = h / gcd(c, h), then c / gcd(c, h) times the shifted
    tail numerators are subtracted, so every numerator stays an integer.  A
    negative h leaves den negative, which ``Fraction`` normalises where a
    value leaves the loop.

    The shifted tail is two tuples, its monomials' ids and its
    coefficients: 16 bytes a term for as long as a memo keeps the step, a
    quarter of what (id, coefficient) pairs would take.  A term update
    indexes acc and hashes nothing; a monomial new to acc goes on the heap,
    and acc first grows to cover the ids interned since it was made.
    Nothing leaves acc here and no coefficient is reduced: over GF(p) a
    coefficient is a raw sum of products, taken mod p only where a loop
    reads it, and a term that cancels, over ℚ too, stays as a zero that the
    reader skips.
    """
    h, ids, coeffs = step
    prime = ring.field.p
    if prime:
        q = c * h % prime
    else:
        g = gcd(c, h)
        q, a = c // g, h // g
        if a != 1:
            for k in heap:
                acc[ring._ids[k]] *= a
            den *= a
    negs = ring._negs
    if len(acc) < len(negs):  # the ids a step built since acc was made interned
        acc += [None] * (len(negs) - len(acc))
    for i, tc in zip(ids, coeffs):
        prev = acc[i]
        if prev is None:
            acc[i] = -tc * q
            heappush(heap, negs[i])
        else:
            acc[i] = prev - tc * q
    return den


def _settle(ring: PolyRing, done: list, terms: Iterable, prime: int, den: int) -> Polynomial:
    """The polynomial whose packed terms are ``done``, then the nonzero
    terms of ``terms``, (packed monomial, integer numerator over den) pairs
    in descending order: over ℚ (``prime`` 0) each numerator v becomes
    Fraction(v, den), over GF(p) (``prime``) v·den⁻¹ mod p, one ``% p`` a
    term when den is 1, as it is for every caller but a monic settle
    (``top_reduction_signed``).  The one settle of the reduction loops
    (``_remaining``) and the product kernel.  Nothing is unpacked."""
    if prime and den != 1:
        inv = pow(den, -1, prime)
        terms = [(k, v * inv) for k, v in terms]
    for k, v in terms:
        v = v % prime if prime else v
        if v:
            done.append((k, v if prime else Fraction(v, den)))
    return Polynomial(ring, tuple(done))


def _numerators(p: Polynomial, keep: bool = False) -> tuple[int, tuple]:
    """d, the lcm of p's coefficient denominators, and p's packed terms
    with each coefficient c as the integer c·d.  Over GF(p), where every
    coefficient is an int, that is 1 and ``p.packed`` itself; over ℚ,
    ``keep`` keeps them in p's ``_numer`` slot, so a basis polynomial that
    many products or reduction steps read is converted once."""
    if p.ring.field.p:
        return 1, p.packed
    if p._numer is not None:
        return p._numer
    d = lcm(*[c.denominator for _, c in p.packed])
    numer = d, tuple((k, c.numerator * (d // c.denominator)) for k, c in p.packed)
    if keep:
        p._numer = numer
    return numer


def sum_of_products(ring: PolyRing, products: Iterable) -> Polynomial:
    """The sum of a·b over the (a, b) polynomial pairs of ``products``: the
    one product kernel, behind ``Polynomial.__mul__`` and
    ``syzygy.evaluate``.

    Every product goes into one ``{packed: numerator}`` accumulator, sorted
    once at the end.  Coefficients multiply as integers over one common
    denominator D, the lcm over the products of d_a·d_b, with d_a the lcm of
    a's coefficient denominators: a term pair adds
    (c_a·d_a)·(c_b·d_b)·D/(d_a·d_b).  A surviving sum n becomes
    Fraction(n, D) over ℚ and n mod p over GF(p), where every coefficient is
    an int of denominator 1, so D = 1 and the numerators are the packed
    terms themselves.  Over ℚ the numerators of each b, in
    ``syzygy.evaluate`` a basis polynomial, are kept on it for later calls.
    A product term that leaves its packed field raises DomainError
    (``_check_shift``, once per term of a).
    """
    prime = ring.field.p
    factors = []
    den = 1
    for a, b in products:
        for p in (a, b):
            if p.ring is not ring and p.ring != ring:
                raise StructureError("polynomials from different rings")
        if a.packed and b.packed:
            (da, ta), (db, tb) = _numerators(a), _numerators(b, keep=True)
            factors.append((da * db, ta, tb))
            den = lcm(den, da * db)
    acc: dict[int, int] = {}
    get = acc.get
    for dab, ta, tb in factors:
        s = den // dab
        for ka, na in ta:
            _check_shift(ring, tb, ka)
            na *= s
            for kb, nb in tb:
                m = ka + kb
                acc[m] = get(m, 0) + na * nb
    keys = sorted(acc, reverse=True)
    return _settle(ring, [], zip(keys, map(acc.__getitem__, keys)), prime, den)


def _step(g: Polynomial, e: int, ring: PolyRing) -> tuple:
    """The step that reduces the packed monomial e by g, whose head divides
    it: g's head factor and g's tail shifted to e (``shift_terms``, so a
    lex product that leaves its field raises DomainError), its monomials
    interned once here in ``ring``, the ring whose ids the reduction loop
    uses, which g's may equal without being the same object
    (``PolyRing.intern``): (h, ids, coeffs).

    Over GF(p) the factor is the inverse of g's head coefficient and the
    tail keeps g's coefficients; over ℚ both are g's integer numerators
    (``_numerators``, kept on g), the factor the head's."""
    _, terms = _numerators(g, keep=True)
    (hk, h), tail = terms[0], terms[1:]
    field = ring.field
    if field.p and h != 1:
        h = field.inv(h)
    shifted = shift_terms(ring, tail, e - hk)
    return h, ring.intern(shifted), tuple([c for _, c in shifted])


class Reducers:
    """An append-only list of reducers, in insertion order, that remembers
    each monomial's first reducer, and the step it takes, across reductions.

    ``polys`` holds the reducers and ``heads`` their packed heads.  The memo
    ``first`` maps a packed monomial to the index of the first reducer whose
    head divides it, or to ~k when none of the first k does, so that a later
    lookup resumes at k.  Reducers are only appended, so a first divisor,
    once found, stays the first, and no entry is ever invalidated.  The memo
    ``steps`` maps the id (``PolyRing.intern``, in ``ring``) of a monomial
    e with a first reducer to e's prepared step (``_step``), which
    ``_reduce`` builds the first time it pops e; since e's first reducer
    never changes, neither does its step.  Only ``_reduce`` builds steps: a list that only answers
    ``find`` copies no tail.  ``append`` skips the zero polynomial.
    """

    __slots__ = ("ring", "heads", "polys", "first", "steps")

    def __init__(self, ring: PolyRing, polys: Iterable[Polynomial] = ()):
        self.ring = ring
        self.heads: list[int] = []
        self.polys: list[Polynomial] = []
        self.first: dict[int, int] = {}
        self.steps: dict[int, tuple] = {}
        for g in polys:
            self.append(g)

    def append(self, g: Polynomial) -> None:
        if not g.packed:
            return
        if g.ring is not self.ring and g.ring != self.ring:
            raise StructureError("polynomials from different rings")
        self.heads.append(g.packed[0][0])
        self.polys.append(g)

    def find(self, e: int) -> int:
        """The index of the first reducer whose head divides the packed
        monomial e (the guard-bit test), or -1; memoised in ``first``."""
        first = self.first
        k = first.get(e, -1)
        if k >= 0:
            return k
        heads, guard = self.heads, self.ring._guard
        for i in range(~k, len(heads)):
            if not (e - heads[i]) & guard:
                first[e] = i
                return i
        first[e] = ~len(heads)
        return -1


def _reduce(p: Polynomial, basis: Sequence[Polynomial] | Reducers, full: bool) -> Polynomial:
    """The reduction loop behind ``reduce_full`` and ``top_reduce``.

    The working polynomial is an accumulator indexed by monomial id, read
    from p's packed terms, plus a heap of negated packed ints, so heapq pops
    the largest monomial first (``_working``); a pop costs one lookup of the
    popped monomial's id, and a popped term that is zero (mod p) has
    cancelled and is skipped.  Each nonzero popped term e is reduced by the
    first basis element, in insertion order, whose head divides it, exactly
    as a term-by-term ``sub_mul`` would, so every intermediate polynomial is
    the same.  The step is e's prepared one (``Reducers.steps``): built
    once, then applied by ``_sub_step`` each time e comes up.  Every id
    comes from basis's ring, which p's equals but need not be.
    ``full=False`` stops at the first irreducible term.

    Over ℚ every coefficient is an integer numerator N over one running
    denominator D, starting from p's (``_numerators``), which ``_sub_step``
    rescales; a term leaves the loop as Fraction(N, D), so the result is
    the canonical one.

    basis is a ``Reducers``, whose memos answer a monomial that an earlier
    reduction against it already met, and scan only the reducers appended
    since; any other sequence becomes a throwaway one.

    Under degrevlex no product outgrows the term it replaces; under lex a
    product can, and one whose exponent overflows its field raises
    DomainError.
    """
    ring = p.ring
    if not isinstance(basis, Reducers):
        basis = Reducers(ring, basis)
    elif basis.ring is not ring and basis.ring != ring:
        raise StructureError("polynomials from different rings")
    table = basis.ring  # every id of this reduction, as in basis.steps
    polys, steps, find, get_step = basis.polys, basis.steps, basis.find, basis.steps.get
    prime, ids = ring.field.p, table._ids
    den, terms = _numerators(p)
    acc, heap = _working(table, terms)
    done = []
    while heap:
        k = heappop(heap)
        i = ids[k]
        c, acc[i] = acc[i], None
        if prime:
            c %= prime
        if not c:
            continue
        step = get_step(i)
        if step is None:  # k is the negated packed monomial
            j = find(-k)
            if j < 0:
                done.append((-k, c if prime else Fraction(c, den)))
                if not full:
                    break
                continue
            step = steps[i] = _step(polys[j], -k, table)
        den = _sub_step(acc, heap, c, step, table, den)
    return _settle(ring, done, _remaining(table, acc, heap), prime, den)


def top_reduce(p: Polynomial, basis: Sequence[Polynomial] | Reducers) -> Polynomial:
    """Head-reduce p by the first eligible reducer in insertion order.

    Only head terms are rewritten; the result is monic (or zero) and its head
    is divisible by no basis head.
    """
    return _reduce(p, basis, full=False).monic()


def reduce_full(p: Polynomial, basis: Sequence[Polynomial] | Reducers) -> Polynomial:
    """Full normal form: every term of the result is irreducible."""
    return _reduce(p, basis, full=True)


def minimal_basis(polys: Iterable[Polynomial]) -> list[Polynomial]:
    """The nonzero elements whose head no other element's head divides,
    keeping the first of equal heads, in their given order.

    For a Groebner basis the result is a minimal Groebner basis of the same
    ideal; for other input it can lose part of the ideal.
    """
    polys = [p for p in polys if p.packed]
    if not polys:
        return []
    guard = polys[0].ring._guard
    heads = [p.packed[0][0] for p in polys]
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

    Within a round, element i is reduced against the results before it and
    the elements after it, ``reduced + current[i + 1:]``.  Those after it
    have heads no smaller than its own, so the only one of them that can
    reduce a term is the next element with the same head, and only at the
    head, when no result's head divides it; that step is taken first, and
    the rest of the reduction runs on one ``Reducers`` over the results,
    whose memo every reduction of the round shares.
    """
    current = [p.monic() for p in polys if not p.is_zero]
    if not current:
        return []
    ring = current[0].ring
    one = ring.field.one
    for _ in range(100):
        current.sort(key=lambda p: p.packed[0][0])
        reduced: list[Polynomial] = []
        reducers = Reducers(ring)
        heads_kept = True
        for i, f in enumerate(current):
            head = f.packed[0][0]
            nxt = current[i + 1] if i + 1 < len(current) else None
            if (nxt is not None and nxt.packed[0][0] == head
                    and reducers.find(head) < 0):
                f = f.sub_mul(one, ring.zero_exp, nxt)  # both monic: the heads cancel
            r = reduce_full(f, reducers)
            if r.is_zero:
                continue
            if r.packed[0][0] != head:
                heads_kept = False
            r = r.monic()
            reduced.append(r)
            reducers.append(r)
        if heads_kept:
            return reduced
        current = reduced
    raise RuntimeError("autoreduction did not stabilize")
