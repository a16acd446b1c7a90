"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable values: a symbol universe fixes the variables and
the active monomial order once, and every arithmetic operation returns a new
canonical polynomial with exact `fractions.Fraction` coefficients.  The Groebner
engine, linear algebra and templates run on integers over one scale instead.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm


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


def primitive_integers(values):
    """Content-free integers proportional to the rationals `values`.

    Clears the common denominator, then divides out the content, reading
    each value once; ints also pass (denominator 1).  Returns (ints, scale)
    with ints[i] = values[i] * scale; all zeros give zeros and scale 1.
    """
    denom = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (denom // v.denominator) for v in values]
    g = gcd(*ints) or 1
    if g > 1:
        ints = [v // g for v in ints]
    return ints, Fraction(denom, g)


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

    def key(self, exps):
        return exps


class GrevLex:
    """Graded reverse lexicographic order."""

    name = "grevlex"

    def key(self, exps):
        return (sum(exps),) + tuple(-e for e in reversed(exps))


class SymbolUniverse:
    """An immutable, ordered collection of symbols plus the active order.

    Symbols are listed in decreasing precedence.  `key` is the order's own
    `key`: the flat, totally ordered sort key of an exponent tuple.
    """

    __slots__ = ("symbols", "order", "key", "_index", "_one")

    def __init__(self, symbols, order=None):
        symbols = tuple(symbols)
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique within a universe")
        order = order if order is not None else Lex()
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "key", order.key)
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

    def monomial(self, exponents) -> "Monomial":
        """Build a monomial from a {Symbol: exponent} mapping."""
        exps = [0] * len(self.symbols)
        for sym, e in exponents.items():
            if e < 0:
                raise ValueError("negative exponent")
            exps[self.index_of(sym)] = e
        return Monomial(self, tuple(exps))


class Monomial:
    """A power product of universe symbols, stored as an exponent tuple."""

    __slots__ = ("universe", "exps")

    def __init__(self, universe: SymbolUniverse, exps: tuple):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, *_):
        raise AttributeError("Monomial is immutable")

    def degree(self) -> int:
        return sum(self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.universe is not other.universe:
            raise ValueError("monomials from different universes")
        return Monomial(
            self.universe, tuple(a + b for a, b in zip(self.exps, other.exps))
        )

    def __hash__(self):
        return hash(self.exps)

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.universe is other.universe
            and self.exps == other.exps
        )

    def __lt__(self, other: "Monomial"):
        return self.universe.key(self.exps) < other.universe.key(other.exps)

    def __str__(self):
        return format_monomial(self.universe, self.exps) or "1"

    __repr__ = __str__


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

    def terms(self):
        """Public view: (Monomial, Fraction) pairs, leading term first."""
        return tuple(
            (Monomial(self.universe, e), c) for e, c in self.sorted_terms()
        )

    def leading(self):
        """(exps, coeff) of the leading term; raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.sorted_terms()[0]

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
    """All monomials of total degree <= k over the given symbols.

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
            monos.append(Monomial(universe, tuple(exps)))
    assert len(monos) == comb(len(variables) + k, k)
    monos.sort(key=lambda m: universe.key(m.exps), reverse=True)
    return monos
