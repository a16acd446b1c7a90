"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable values: a symbol universe fixes the variables and
the active monomial order once, and every arithmetic operation returns a new
canonical polynomial with exact `fractions.Fraction` coefficients.  The Groebner
engine, linear algebra and templates run on integers over one scale instead,
entered through `cleared` and left through `Polynomial.from_packed`.

A `Polynomial` monomial is an exponent tuple, one entry per universe symbol,
and the universe's `key` orders it.  Inside the Groebner engine and the
templates a monomial is one packed integer instead (Monagan & Pearce, CASC
2007): the universe's `packing` converts between the two at their edges.
"""

from __future__ import annotations

import itertools
import struct
from fractions import Fraction
from math import comb, gcd, lcm

# Every field of a packed monomial holds an exponent below 2^31 under one
# guard bit.  A sum of two fields never carries into the next field, so an
# exponent that outgrows its field shows as a set guard bit.
FIELD_BITS = 32
EXPONENT_CAP = 1 << (FIELD_BITS - 1)

# Most term pairs one product may form, about a second's work; (x+y+z)^50
# needs 106,590.  A larger product is refused before it is formed.  Not a setting.
MAX_PRODUCT_TERM_PAIRS = 1 << 18


class ResourceLimitError(RuntimeError):
    """A configured pair budget or degree cap, the exponent cap of the
    packed fields, or the term-pair cap of one product was exceeded.

    Raised instead of returning a wrong or partial answer.
    """


def exponent_overflow() -> ResourceLimitError:
    return ResourceLimitError(
        "exponent cap exceeded: a monomial exponent, or a grevlex total "
        f"degree, reached 2^{FIELD_BITS - 1}"
    )


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


def cleared(maps, key=None):
    """(ints, den): maps {k: rational} as maps {key(k): int} over den, their
    least common denominator, zeros dropped; inverse to `Polynomial.from_packed`."""
    maps = list(maps)
    den = lcm(*(v.denominator for m in maps for v in m.values()))
    return [
        {k if key is None else key(k): v.numerator * (den // v.denominator)
         for k, v in m.items() if v}
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

    def key(self, exps):
        return exps


class GrevLex:
    """Graded reverse lexicographic order."""

    name = "grevlex"
    graded = True

    def key(self, exps):
        return (sum(exps),) + tuple(-e for e in reversed(exps))


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

    __slots__ = (
        "graded", "flip", "guards", "units", "fields", "_struct", "_top", "_packed", "_unpacked"
    )

    def __init__(self, n: int, graded: bool):
        width = FIELD_BITS
        count = n + graded
        exponents = EXPONENT_CAP - 1
        self.graded = graded
        self._struct = struct.Struct(f">{count}I")
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
        # every monomial converted either way, once: the polynomials and
        # templates of one universe share one tuple and one int per monomial
        self._packed: dict = {}
        self._unpacked: dict = {}

    def pack(self, exps) -> int:
        """The packed monomial of an exponent tuple."""
        m = self._packed.get(exps)
        if m is None:
            values = (sum(exps), *reversed(exps)) if self.graded else exps
            try:
                m = int.from_bytes(self._struct.pack(*values), "big")
            except struct.error:  # a field of 2^32 or more
                raise exponent_overflow() from None
            if m & self.guards:
                raise exponent_overflow()
            self._packed[exps] = m
            self._unpacked[m] = exps
        return m

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        exps = self._unpacked.get(m)
        if exps is None:
            values = self._struct.unpack(m.to_bytes(self._struct.size, "big"))
            exps = values[:0:-1] if self.graded else values
            self._unpacked[m] = exps
            self._packed[exps] = m
        return exps

    def lcm(self, a: int, b: int) -> int:
        """The lcm of two packed monomials: the fieldwise maximum, with the
        grevlex degree field summed again."""
        guards = self.guards
        ge = ((a | guards) - b) & guards  # the guard bits of the fields where a >= b
        m = b ^ ((a ^ b) & (ge - (ge >> (FIELD_BITS - 1))))
        if self.graded:
            # 2^32 = 1 modulo 2^32 - 1, and the degree is below 2^32 - 1
            m &= (1 << self._top) - 1
            degree = m % ((1 << FIELD_BITS) - 1)
            if degree >= EXPONENT_CAP:
                raise exponent_overflow()
            m |= degree << self._top
        return m


class SymbolUniverse:
    """An immutable, ordered collection of symbols plus the active order.

    Symbols are listed in decreasing precedence.  `key` is the order's own
    `key`: the flat, totally ordered sort key of an exponent tuple.
    `packing` lays out the universe's packed monomials; an order without a
    layout (`graded` unset) serves only the tuple code.
    """

    __slots__ = ("symbols", "order", "key", "packing", "_index", "_one")

    def __init__(self, symbols, order=None):
        symbols = tuple(symbols)
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique within a universe")
        order = order if order is not None else Lex()
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "key", order.key)
        graded = getattr(order, "graded", None)
        packing = None if graded is None else Packing(len(symbols), graded)
        object.__setattr__(self, "packing", packing)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})
        object.__setattr__(self, "_one", (0,) * len(symbols))

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


def format_monomial(universe: SymbolUniverse, exps) -> str:
    parts = []
    for sym, e in zip(universe.symbols, exps):
        if e == 1:
            parts.append(sym.name)
        elif e > 1:
            parts.append(f"{sym.name}^{e}")
    return "*".join(parts)


def format_terms(universe: SymbolUniverse, terms) -> str:
    """Canonical rendering of (exps, Fraction) pairs sorted descending."""
    if not terms:
        return "0"
    chunks = []
    for i, (exps, coeff) in enumerate(terms):
        mono = format_monomial(universe, exps)
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


class Polynomial:
    """A canonical multivariate polynomial over Q.

    Two polynomials are equal iff they share a universe and their term maps
    are equal.  Terms with coefficient zero are never stored: the
    constructor drops them, so operations may leave cancelled terms behind.
    """

    __slots__ = ("universe", "_terms", "_sorted")

    def __init__(self, universe: SymbolUniverse, terms: dict):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(
            self, "_terms", {e: c for e, c in terms.items() if c != 0}
        )
        object.__setattr__(self, "_sorted", None)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, universe: SymbolUniverse) -> "Polynomial":
        return cls(universe, {})

    @classmethod
    def constant(cls, universe: SymbolUniverse, value) -> "Polynomial":
        return cls(universe, {universe._one: as_fraction(value)})

    @classmethod
    def variable(cls, universe: SymbolUniverse, symbol: Symbol) -> "Polynomial":
        exps = [0] * len(universe)
        exps[universe.index_of(symbol)] = 1
        return cls(universe, {tuple(exps): Fraction(1)})

    @classmethod
    def from_packed(cls, universe: SymbolUniverse, terms, den: int = 1) -> "Polynomial":
        """The polynomial of integer terms (packed monomial, int) over a
        positive `den`: where the integer engine and templates hand back
        rationals, the inverse of `cleared`."""
        unpack = universe.packing.unpack
        if den == 1:  # Fraction(c) of an int takes no gcd
            return cls(universe, {unpack(m): Fraction(c) for m, c in terms})
        return cls(universe, {unpack(m): Fraction(c, den) for m, c in terms})

    # -- views ---------------------------------------------------------

    def sorted_terms(self):
        """Terms as (exps, coeff) pairs, leading term first."""
        cached = self._sorted
        if cached is None:
            key = self.universe.key
            cached = tuple(
                sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)
            )
            object.__setattr__(self, "_sorted", cached)
        return cached

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def symbols(self):
        """Symbols occurring with nonzero exponent."""
        seen = set()
        for exps in self._terms:
            for i, e in enumerate(exps):
                if e:
                    seen.add(i)
        return {self.universe.symbols[i] for i in seen}

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
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(e)
                terms[e] = c1 * c2 if acc is None else acc + c1 * c2
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
        """Exact value at a full binding {Symbol: rational}."""
        values = [None] * len(self.universe)
        for sym, v in point.items():
            values[self.universe.index_of(sym)] = as_fraction(v)
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    if values[i] is None:
                        raise ValueError(
                            f"unbound symbol {self.universe.symbols[i]!r} "
                            "in evaluation point"
                        )
                    term *= values[i] ** e
            total += term
        return total

    def substitute_symbol(self, symbol: Symbol, replacement: "Polynomial") -> "Polynomial":
        """Replace one symbol by a polynomial, exactly."""
        replacement = self._check(replacement)
        i = self.universe.index_of(symbol)
        out = Polynomial.zero(self.universe)
        powers = {0: Polynomial.constant(self.universe, 1)}
        for exps, coeff in self._terms.items():
            e = exps[i]
            rest = list(exps)
            rest[i] = 0
            base = Polynomial(self.universe, {tuple(rest): coeff})
            if e:
                if e not in powers:
                    powers[e] = replacement**e
                base = base * powers[e]
            out = out + base
        return out

    def __str__(self):
        return format_terms(self.universe, self.sorted_terms())

    def __repr__(self):
        return f"<{self}>"


def monomials_up_to_degree(universe: SymbolUniverse, variables, k: int):
    """All monomials of total degree <= k over the given symbols, as
    exponent tuples.

    Returned in descending active order; the count is C(len(vars)+k, k).
    """
    if k < 0:
        raise ValueError("degree bound must be non-negative")
    variables = list(variables)
    idxs = [universe.index_of(v) for v in variables]
    monos = []
    for total in range(k + 1):
        for combo in itertools.combinations_with_replacement(idxs, total):
            exps = [0] * len(universe)
            for i in combo:
                exps[i] += 1
            monos.append(tuple(exps))
    assert len(monos) == comb(len(variables) + k, k)
    monos.sort(key=universe.key, reverse=True)
    return monos
