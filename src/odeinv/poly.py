"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable values: a symbol universe fixes the variables and
the monomial order once, and every arithmetic operation returns a new
canonical polynomial with exact `fractions.Fraction` coefficients.  The Groebner
engine, linear algebra and templates run on integers over one scale instead,
entered through `cleared` and left through `Polynomial.from_packed`.

A monomial is one packed integer of the universe's `Packing` everywhere,
in a `Polynomial` as in the Groebner engine and the templates (Monagan &
Pearce, CASC 2007), and the packing alone holds the order: `m ^ flip` is
the sort key.  An exponent tuple is made, by `Packing.unpack`, only where
a monomial is written as text or an exponent is used as a number.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import comb, gcd, lcm

# Every field of a packed monomial holds an exponent below 2^15 = 32,768
# under one guard bit.  A sum of two fields never carries into the next
# field, so an exponent that outgrows its field shows as a set guard bit.
FIELD_BITS = 16
EXPONENT_CAP = 1 << (FIELD_BITS - 1)

# Most term pairs one product may form, about a second's work; (x+y+z)^50
# needs 106,590.  A larger product is refused before it is formed.  Not a setting.
MAX_PRODUCT_TERM_PAIRS = 1 << 18

# Most bits of a numerator or denominator a parse may form: at most 2,467
# digits, below the 4,300 digits Python converts between int and str, so
# every coefficient a spec can write can be printed.  Not a setting.
MAX_COEFFICIENT_BITS = 1 << 13


class ResourceLimitError(RuntimeError):
    """A configured pair budget or degree cap, the exponent cap of the
    packed fields, the term-pair cap of one product or the coefficient cap
    of a parse was exceeded, or a number was too long to print.

    Raised instead of returning a wrong or partial answer.
    """


def exponent_overflow() -> ResourceLimitError:
    return ResourceLimitError(
        "exponent cap exceeded: a monomial exponent, or a grevlex total "
        f"degree, reached 2^{FIELD_BITS - 1}"
    )


def printed(value) -> str:
    """`str(value)` of an exact number, or ResourceLimitError when a
    numerator or denominator has more digits than Python converts to text:
    a chain or a sampled point can reach one from numbers a parse admits.
    `format_terms`, a `check` witness and the numeric check's start points
    print through this."""
    try:
        return str(value)
    except ValueError as exc:
        raise ResourceLimitError(f"a number too long to print: {exc}") from None


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and exact literal strings ('3/4', '0.25')."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "float coefficients are not accepted; pass a Fraction or an "
            "exact literal string instead"
        )
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def cleared(maps):
    """(ints, den): maps {k: rational} as maps {k: int} over den, their
    least common denominator, zeros dropped; inverse to `Polynomial.from_packed`."""
    maps = list(maps)
    den = lcm(*(v.denominator for m in maps for v in m.values()))
    return [
        {k: v.numerator * (den // v.denominator) for k, v in m.items() if v}
        for m in maps
    ], den


def content_free(ints) -> list:
    """The integers `ints` divided by their content, their gcd; all zeros
    stay zeros."""
    ints = list(ints)
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


class Symbol:
    """A named indeterminate, either a state variable or a parameter."""

    __slots__ = ("name", "kind")

    STATE = "state"
    PARAM = "param"

    def __init__(self, name: str, kind: str = STATE):
        if kind not in (Symbol.STATE, Symbol.PARAM):
            raise ValueError(f"unknown symbol kind {kind!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, *_):
        raise AttributeError("Symbol is immutable")

    def __repr__(self):
        return self.name

    def __hash__(self):
        return hash((self.name, self.kind))

    def __eq__(self, other):
        return (
            isinstance(other, Symbol)
            and self.name == other.name
            and self.kind == other.kind
        )


class Lex:
    """Lexicographic order along the universe's symbol precedence."""

    name = "lex"
    graded = False


class GrevLex:
    """Graded reverse lexicographic order."""

    name = "grevlex"
    graded = True


class Packing:
    """The packed integers of one universe's monomials.

    Each exponent takes a field of FIELD_BITS bits.  Under lex the fields
    hold e_1..e_n, most significant first.  Under grevlex a total-degree
    field sits on top and the variables follow in reverse order, e_n first.
    Either layout preserves the order: `m ^ flip` is the sort key of m, the
    int itself under lex and, under grevlex, the degree over the
    complemented variable fields.  So a product is one addition, the
    quotient by a divisor one subtraction, and x^d divides x^m iff every
    guard bit of `(m | guards) - d` is set.  Every exponent, and the
    grevlex degree, stays below EXPONENT_CAP; a packed monomial whose
    guard bit is set is an overflow, never a value.
    """

    __slots__ = ("graded", "flip", "guards", "units", "fields", "_struct", "_top")

    def __init__(self, n: int, graded: bool):
        width = FIELD_BITS
        count = n + graded
        exponents = EXPONENT_CAP - 1
        self.graded = graded
        self._struct = struct.Struct(f">{count}H")  # FIELD_BITS-bit fields
        self._top = width * n  # the grevlex degree field
        self.guards = sum(EXPONENT_CAP << (width * f) for f in range(count))
        # x_i sits in field i from the bottom under grevlex, from the top
        # under lex; `units` are the packed x_i, `fields` their exponent bits
        shifts = [width * i if graded else width * (n - 1 - i) for i in range(n)]
        self.fields = tuple(exponents << s for s in shifts)
        if graded:
            self.units = tuple((1 << self._top) | (1 << s) for s in shifts)
            self.flip = sum(self.fields)
        else:
            self.units = tuple(1 << s for s in shifts)
            self.flip = 0

    def pack(self, exps) -> int:
        """The packed monomial of an exponent tuple."""
        values = (sum(exps), *reversed(exps)) if self.graded else exps
        try:
            m = int.from_bytes(self._struct.pack(*values), "big")
        except struct.error:  # a field of 2^FIELD_BITS or more
            raise exponent_overflow() from None
        if m & self.guards:
            raise exponent_overflow()
        return m

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        values = self._struct.unpack(m.to_bytes(self._struct.size, "big"))
        return values[:0:-1] if self.graded else values

    def degree(self, m: int) -> int:
        """The total degree of a packed monomial: the degree field under
        grevlex, the sum of the exponents under lex."""
        return m >> self._top if self.graded else sum(self.unpack(m))

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two packed monomials: the fieldwise maximum, with the
        grevlex degree field summed again."""
        guards = self.guards
        ge = ((a | guards) - b) & guards  # the guard bits of the fields where a >= b
        m = b ^ ((a ^ b) & (ge - (ge >> (FIELD_BITS - 1))))
        if self.graded:
            # 2^FIELD_BITS = 1 modulo 2^FIELD_BITS - 1, and the degree is below 2 * EXPONENT_CAP - 1
            m &= (1 << self._top) - 1
            degree = m % ((1 << FIELD_BITS) - 1)
            if degree >= EXPONENT_CAP:
                raise exponent_overflow()
            m |= degree << self._top
        return m


class SymbolUniverse:
    """An immutable, ordered collection of symbols plus the monomial order.

    Symbols are listed in decreasing precedence.  `packing` lays out the
    universe's monomials under the order, which it alone holds; an order
    without a layout (`graded` unset) is refused.
    """

    __slots__ = ("symbols", "order", "packing", "_index")

    def __init__(self, symbols, order=None):
        symbols = tuple(symbols)
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique within a universe")
        order = order if order is not None else Lex()
        graded = getattr(order, "graded", None)
        if graded is None:
            raise ValueError(f"order {order!r} has no packed layout")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "packing", Packing(len(symbols), graded))
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    def __setattr__(self, *_):
        raise AttributeError("SymbolUniverse is immutable")

    def __len__(self):
        return len(self.symbols)

    def __repr__(self):
        return f"SymbolUniverse({[s.name for s in self.symbols]}, {self.order.name})"

    def index_of(self, symbol: Symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} is not part of this universe") from None

    def by_name(self, name: str) -> Symbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(f"no symbol named {name!r} in this universe")


def format_terms(universe: SymbolUniverse, terms) -> str:
    """Canonical rendering of (packed monomial, Fraction) pairs sorted
    descending."""
    if not terms:
        return "0"
    unpack = universe.packing.unpack
    chunks = []
    for i, (m, coeff) in enumerate(terms):
        mono = "*".join(
            s.name if e == 1 else f"{s.name}^{e}" for s, e in zip(universe.symbols, unpack(m)) if e
        )
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{printed(mag)}*{mono}"
        else:
            body = printed(mag)
        if i == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


class Polynomial:
    """A canonical multivariate polynomial over Q, its terms a map
    {packed monomial: Fraction}.

    Two polynomials are equal iff they share a universe and their term maps
    are equal.  Terms with coefficient zero are never stored: the
    constructor drops them, so operations may leave cancelled terms behind.
    """

    __slots__ = ("universe", "_terms")

    def __init__(self, universe: SymbolUniverse, terms: dict):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(
            self, "_terms", {e: c for e, c in terms.items() if c != 0}
        )

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, universe: SymbolUniverse) -> "Polynomial":
        return cls(universe, {})

    @classmethod
    def constant(cls, universe: SymbolUniverse, value) -> "Polynomial":
        return cls(universe, {0: as_fraction(value)})

    @classmethod
    def variable(cls, universe: SymbolUniverse, symbol: Symbol) -> "Polynomial":
        return cls(universe, {universe.packing.units[universe.index_of(symbol)]: Fraction(1)})

    @classmethod
    def from_packed(cls, universe: SymbolUniverse, terms, den: int = 1) -> "Polynomial":
        """The polynomial of integer terms (packed monomial, int) over a
        positive `den`: where the integer engine and templates hand back
        rationals, the inverse of `cleared`."""
        if den == 1:  # Fraction(c) of an int takes no gcd
            return cls(universe, {m: Fraction(c) for m, c in terms})
        return cls(universe, {m: Fraction(c, den) for m, c in terms})

    # -- views ---------------------------------------------------------

    def sorted_terms(self):
        """Terms as (packed monomial, coeff) pairs, leading term first,
        sorted afresh on each call: the callers are the edges (printing,
        the engine's entry, the numeric check), each reading a polynomial
        about once."""
        flip = self.universe.packing.flip
        return sorted(self._terms.items(), key=lambda t: t[0] ^ flip, reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(map(self.universe.packing.degree, self._terms))

    def symbols(self):
        """Symbols occurring with nonzero exponent."""
        fields = zip(self.universe.symbols, self.universe.packing.fields)
        return {s for s, field in fields if any(m & field for m in self._terms)}

    # -- ring operations ------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.universe is not self.universe:
                raise ValueError("polynomials from different symbol universes")
            return other
        return Polynomial.constant(self.universe, other)

    def __add__(self, other):
        other = self._check(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            acc = terms.get(e)
            terms[e] = c if acc is None else acc + c
        return Polynomial(self.universe, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.universe, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = as_fraction(other)
            return Polynomial(
                self.universe, {e: c * v for e, v in self._terms.items()}
            )
        other = self._check(other)
        if len(self._terms) > len(other._terms):
            big, small = self._terms, other._terms
        else:
            big, small = other._terms, self._terms
        if len(big) * len(small) > MAX_PRODUCT_TERM_PAIRS:
            raise ResourceLimitError(f"product over the cap of {MAX_PRODUCT_TERM_PAIRS} term pairs")
        terms: dict = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = e1 + e2
                acc = terms.get(e)
                terms[e] = c1 * c2 if acc is None else acc + c1 * c2
        guards = self.universe.packing.guards
        if any(e & guards for e in terms):
            raise exponent_overflow()
        return Polynomial(self.universe, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.universe, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.universe is other.universe
            and self._terms == other._terms
        )

    # -- evaluation and substitution -------------------------------------

    def evaluate(self, point: dict) -> Fraction:
        """Exact value at a full binding {Symbol: rational}.  The sum runs
        on integers: each term's numerator and denominator are integer
        products, the terms are added over one running denominator, their
        least common multiple, and one `Fraction` is built at the end."""
        values = [None] * len(self.universe)
        for sym, v in point.items():
            v = as_fraction(v)
            values[self.universe.index_of(sym)] = (v.numerator, v.denominator)
        unpack = self.universe.packing.unpack
        num, den = 0, 1
        for m, coeff in self._terms.items():
            n, d = coeff.numerator, coeff.denominator
            for i, e in enumerate(unpack(m)):
                if e:
                    if values[i] is None:
                        raise ValueError(
                            f"unbound symbol {self.universe.symbols[i]!r} "
                            "in evaluation point"
                        )
                    a, b = values[i]
                    n *= a**e
                    d *= b**e
            if d == den:
                num += n
            else:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
        return Fraction(num, den)

    def substitute_symbol(self, symbol: Symbol, replacement: "Polynomial") -> "Polynomial":
        """Replace one symbol by a polynomial, exactly."""
        replacement = self._check(replacement)
        i = self.universe.index_of(symbol)
        packing = self.universe.packing
        out = Polynomial.zero(self.universe)
        powers = {0: Polynomial.constant(self.universe, 1)}
        for m, coeff in self._terms.items():
            e = packing.unpack(m)[i]
            if e not in powers:
                powers[e] = replacement**e
            out = out + Polynomial(self.universe, {m - e * packing.units[i]: coeff}) * powers[e]
        return out

    def __str__(self):
        return format_terms(self.universe, self.sorted_terms())

    def __repr__(self):
        return f"<{self}>"


def capped(p: Polynomial) -> Polynomial:
    """p, unless the numerator or the denominator of a coefficient has more
    than MAX_COEFFICIENT_BITS bits: then ResourceLimitError."""
    for c in p._terms.values():
        if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFFICIENT_BITS:
            raise ResourceLimitError(f"coefficient over the cap of {MAX_COEFFICIENT_BITS} bits")
    return p


def monomials_up_to_degree(universe: SymbolUniverse, variables, k: int):
    """All monomials of total degree <= k over the given symbols, packed,
    each the sum of its variables' `units`.

    Returned in descending order; the count is C(len(vars)+k, k).  Each
    degree is built from the one below, one addition per monomial.
    """
    if k < 0:
        raise ValueError("degree bound must be non-negative")
    variables = list(variables)
    packing = universe.packing
    units = [packing.units[universe.index_of(v)] for v in variables]
    # `level` holds the monomials of one degree grouped by their first
    # variable, so level[starts[i]:] are those in the i-th and later only
    monos, level, starts = [0], [0], [0] * len(units)
    for _ in range(k):
        below, below_starts, level, starts = level, starts, [], []
        for u, start in zip(units, below_starts):
            starts.append(len(level))
            level += [u + m for m in below[start:]]
        monos += level
    assert len(monos) == comb(len(variables) + k, k)
    monos.sort(key=packing.flip.__xor__, reverse=True)
    return monos
