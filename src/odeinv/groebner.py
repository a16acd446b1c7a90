"""Multivariate division, Buchberger's algorithm, and ideal predicates.

The user-facing entry points (`divide`, `buchberger`, `reduce_basis`,
`Ideal`) exchange canonical `Polynomial` values.  Internally the engine
works on content-free integer term lists: reductions cross-multiply instead
of dividing, which keeps coefficients in Z and controls bignum growth, and
the exact rational normal form is recovered from the accumulated scale.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, neg, sub

from .poly import BlockElim, Lex, Polynomial, Symbol, SymbolUniverse, primitive_integers


class ResourceLimitError(RuntimeError):
    """A configured pair budget or degree cap was exceeded.

    Raised instead of returning a wrong or partial answer.
    """


# ---------------------------------------------------------------------------
# integer term-list representation


def _primitive(items):
    """Content-free integer (exps, coeff) terms, first coefficient positive."""
    ints, _ = primitive_integers([c for _, c in items])
    if ints and ints[0] < 0:
        ints = [-c for c in ints]
    return [(e, c) for (e, _), c in zip(items, ints)]


class _GPoly:
    """Engine-side polynomial: integer terms split into lead and tail."""

    __slots__ = ("lead_exps", "lead_coeff", "tail", "degree")

    def __init__(self, terms):
        self.lead_exps, self.lead_coeff = terms[0]
        self.tail = terms[1:]
        self.degree = max(sum(e) for e, _ in terms)

    def terms(self):
        return [(self.lead_exps, self.lead_coeff)] + list(self.tail)


def _gpoly(p: Polynomial) -> _GPoly:
    return _GPoly(_primitive(p.sorted_terms()))


def _neg(key):
    return tuple(map(neg, key))


def _nf_int(terms, divisors, key):
    """Reduce integer terms by divisors; return (remainder_terms, scale).

    `scale` is the positive integer by which the dividend was cross-
    multiplied overall, so exact_remainder = remainder / scale.  The
    remainder is NOT content-stripped.  `terms` holds distinct monomials;
    a zero coefficient among them is skipped.
    """
    work = dict(terms)
    heap = [(_neg(key(e)), e) for e in work]
    heapq.heapify(heap)
    emitted = []  # (exps, coeff, scale at emission)
    scale = 1
    while heap:
        _, e = heapq.heappop(heap)
        c = work.get(e)
        if not c:
            continue
        red = None
        for d in divisors:
            if all(map(le, d.lead_exps, e)):
                red = d
                break
        if red is None:
            del work[e]
            emitted.append((e, c, scale))
            continue
        del work[e]
        g = gcd(abs(c), red.lead_coeff)
        mult_work = red.lead_coeff // g
        mult_div = c // g
        if mult_work != 1:
            for k2 in work:
                work[k2] *= mult_work
            scale *= mult_work
        shift = tuple(map(sub, e, red.lead_exps))
        for de, dc in red.tail:
            ne = tuple(map(add, de, shift))
            acc = work.get(ne)
            if acc is None:
                work[ne] = -mult_div * dc
                heapq.heappush(heap, (_neg(key(ne)), ne))
            else:
                acc -= mult_div * dc
                if acc:
                    work[ne] = acc
                else:
                    del work[ne]
    remainder = [(e, c * (scale // s)) for e, c, s in emitted]
    return remainder, scale


def _spoly_int(f: _GPoly, g: _GPoly):
    """Integer S-polynomial of two engine polynomials.

    Cancelled terms, the lcm's at least, stay as zeros for `_nf_int` to skip.
    """
    lcm = _lcm_exps(f.lead_exps, g.lead_exps)
    cf = g.lead_coeff
    cg = f.lead_coeff
    d = gcd(cf, cg)
    cf //= d
    cg //= d
    sf = tuple(map(sub, lcm, f.lead_exps))
    sg = tuple(map(sub, lcm, g.lead_exps))
    acc: dict = {}
    for e, c in f.terms():
        ne = tuple(map(add, e, sf))
        acc[ne] = acc.get(ne, 0) + cf * c
    for e, c in g.terms():
        ne = tuple(map(add, e, sg))
        acc[ne] = acc.get(ne, 0) - cg * c
    return list(acc.items())


def _sorted_terms(items, key):
    return sorted(items, key=lambda t: key(t[0]), reverse=True)


def _to_poly(universe: SymbolUniverse, items) -> Polynomial:
    """The monic polynomial of integer terms sorted lead first."""
    lead = items[0][1]
    return Polynomial(universe, {e: Fraction(c, lead) for e, c in items})


# ---------------------------------------------------------------------------
# user-facing multivariate division


class DivisionResult:
    """Outcome of dividing p by an ordered divisor list.

    Invariants: p = sum(quotients[i] * divisors[i]) + remainder, no monomial
    of the remainder is divisible by any divisor's leading term, and every
    quotient*divisor product has multidegree <= multideg(p).
    """

    __slots__ = ("remainder", "quotients")

    def __init__(self, remainder: Polynomial, quotients):
        self.remainder = remainder
        self.quotients = tuple(quotients)


def divide(p: Polynomial, divisors) -> DivisionResult:
    """Textbook multivariate division, deterministic in the divisor order."""
    universe = p.universe
    divisors = list(divisors)
    for d in divisors:
        if d.universe is not universe:
            raise ValueError("divisor from a different symbol universe")
        if d.is_zero():
            raise ValueError("zero polynomial among divisors")
    key = universe.key
    leads = [d.leading() for d in divisors]
    work = dict(p._terms)
    quotients = [dict() for _ in divisors]
    remainder: dict = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for i, (le, lc) in enumerate(leads):
            for a, b in zip(le, e):
                if a > b:
                    break
            else:
                shift = tuple(x - y for x, y in zip(e, le))
                coeff = c / lc
                q = quotients[i]
                q[shift] = q.get(shift, Fraction(0)) + coeff
                for de, dc in divisors[i].sorted_terms()[1:]:
                    ne = tuple(x + y for x, y in zip(de, shift))
                    acc = work.get(ne, Fraction(0)) - coeff * dc
                    if acc:
                        work[ne] = acc
                    else:
                        work.pop(ne, None)
                break
        else:
            remainder[e] = c
    return DivisionResult(
        Polynomial(universe, remainder),
        [Polynomial(universe, q) for q in quotients],
    )


def normal_form(p: Polynomial, divisors) -> Polynomial:
    """Exact remainder of p under division by the divisor list."""
    items = p.sorted_terms()
    if not items:
        return p
    gdivs = [_gpoly(d) for d in divisors if not d.is_zero()]
    ints, scale = primitive_integers([c for _, c in items])
    rem, nf_scale = _nf_int(
        [(e, c) for (e, _), c in zip(items, ints)], gdivs, p.universe.key
    )
    num, den = scale.numerator * nf_scale, scale.denominator
    return Polynomial(p.universe, {e: Fraction(c * den, num) for e, c in rem})


# NF of every monomial in the ideal, shared: most of a chain's vanish.
_ZERO = ({}, 1)


class GroebnerReducer:
    """Cached normal forms of state monomials against a Groebner basis.

    `basis` must be a Groebner basis, reduced or not: only then is the
    normal form unique and linear in the dividend, which the monomial-by-
    monomial reduction of a template or a polynomial and the recurrence
    below rely on.  The basis is converted to engine form once.

    A monomial m that no leading monomial divides is its own normal form.
    It is zero when the first divisor whose lead divides it is a single
    term, or when its quotient m / x_i below is cached as zero; these cases
    are settled at once.  Otherwise NF(m) = NF(x_i * NF(m / x_i)) for a
    variable x_i of m, the multiplication step of FGLM (Faugere, Gianni,
    Lazard, Mora 1993), so a normal form is built from smaller ones already
    in the cache.  When m / x_i is standard, one division step by the first
    divisor whose lead divides m takes its place.  Every monomial this
    reaches is smaller than m.

    Each such normal form is built in one pass by a coroutine that yields
    the smaller monomials it needs and is sent their normal forms; one loop
    in `_reduce` runs the coroutines from an explicit stack, so deep chains
    do not recurse.  Every normal form computed on the way is cached.

    A normal form is integer numerators over a positive scale, in lowest
    terms; the recurrence takes the lcm of its parts' scales.
    """

    __slots__ = ("_divisors", "_cache")

    def __init__(self, basis):
        self._divisors = [_gpoly(d) for d in basis if not d.is_zero()]
        self._cache: dict = {}

    def monomial_terms(self, exps):
        """NF(x^exps) as ({exps: int numerator}, scale), to be read only."""
        cached = self._cache.get(exps)
        if cached is None:
            cached = self._reduce(exps)
        return cached

    def _divisor_of(self, exps):
        for d in self._divisors:
            if all(map(le, d.lead_exps, exps)):
                return d
        return None

    def _reduce(self, target):
        """NF(target), not cached yet: drive the coroutines of `_nf` on an
        explicit stack, sending each the normal form of the monomial it
        yielded; one that returns is popped."""
        stack = []
        nf = self._settle(target, stack)
        while stack:
            try:
                m = stack[-1].send(nf)
            except StopIteration as done:
                stack.pop()
                nf = done.value
            else:
                nf = self._settle(m, stack)
        return nf

    def _settle(self, m, stack):
        """NF(m), not cached yet, cached now if m is standard or zero; else
        None, with the coroutine that builds it pushed on `stack`."""
        cache = self._cache
        d = self._divisor_of(m)
        if d is None:
            nf = cache[m] = ({m: 1}, 1)
            return nf
        if d.tail:
            split = self._quotient(m)
            if split is None or cache.get(split[1]) is not _ZERO:
                stack.append(self._nf(m, d, split))
                return None
        cache[m] = _ZERO
        return _ZERO

    def _nf(self, m, d, split):
        """Coroutine of NF(m), where d's lead divides m.  It yields each
        smaller monomial it is built from that is not cached, is sent its
        normal form, and caches and returns NF(m)."""
        cache = self._cache
        if split is not None:
            i, q = split
            nq = cache.get(q)
            if nq is None:
                nq = yield q
        if split is None or q in nq[0]:
            # m / x_i is standard (or m is 1): m = shift * lead(d), so
            # NF(m) = -(1/lc) sum c_t NF(shift * t) over the tail of d
            shift = tuple(map(sub, m, d.lead_exps))
            base = d.lead_coeff
            parts = [(tuple(map(add, te, shift)), -tc) for te, tc in d.tail]
        else:
            nums, base = nq
            parts = []
            for t, c in nums.items():
                t = list(t)
                t[i] += 1
                parts.append((tuple(t), c))
        # NF(m) = (1/base) sum c * NF(p) over the parts (p, c), accumulated
        # over the lcm of the parts' scales as they arrive
        acc: dict = {}
        scale = 1
        for p, c in parts:
            nf = cache.get(p)
            if nf is None:
                nf = yield p
            nums, s = nf
            if not nums:
                continue
            if s != scale:
                grown = lcm(scale, s)
                if grown != scale:
                    f = grown // scale
                    for e in acc:
                        acc[e] *= f
                    scale = grown
                c *= scale // s
            for e, v in nums.items():
                prev = acc.get(e)
                acc[e] = c * v if prev is None else prev + c * v
        nf = cache[m] = _lowest(acc, scale * base)
        return nf

    def reduce_terms(self, terms) -> dict:
        """NF of the integer terms (exps, coeff) as {exps: int}, up to a
        positive factor: normal forms are linear, so it is the combination
        of the cached normal forms of its monomials."""
        parts = [(c, self.monomial_terms(e)) for e, c in terms]
        scale = lcm(*(s for _, (_, s) in parts))
        acc: dict = {}
        for c, (nums, s) in parts:
            c *= scale // s
            for e, v in nums.items():
                acc[e] = acc.get(e, 0) + c * v
        return _lowest(acc, scale)[0]

    def _quotient(self, m):
        """(i, m / x_i) for the variable to strip from m, or None when m is
        1.  An i whose quotient is cached already wins, scanning from the
        last variable; else the last variable of m."""
        cache = self._cache
        last = None
        for i in range(len(m) - 1, -1, -1):
            if m[i]:
                q = m[:i] + (m[i] - 1,) + m[i + 1 :]
                if q in cache:
                    return i, q
                if last is None:
                    last = i, q
        return last


def _lowest(acc, scale):
    """The normal form acc / scale, for integer numerators acc that may
    hold zeros, in lowest terms."""
    g = gcd(scale, *acc.values())
    nums = {e: v // g for e, v in acc.items() if v}
    return (nums, scale // g) if nums else _ZERO


# ---------------------------------------------------------------------------
# Buchberger


def _lcm_exps(a, b):
    return tuple(map(max, a, b))


def _divides_exps(a, b):
    return all(map(le, a, b))


def _update_pairs(G, P, f, key):
    """Gebauer-Moeller pair update: installs Buchberger's coprime and chain
    criteria while adding f to the basis."""
    m = len(G)
    lmf = f.lead_exps
    kept = set()
    for i, j in P:
        lij = _lcm_exps(G[i].lead_exps, G[j].lead_exps)
        if (
            not _divides_exps(lmf, lij)
            or lij == _lcm_exps(G[i].lead_exps, lmf)
            or lij == _lcm_exps(G[j].lead_exps, lmf)
        ):
            kept.add((i, j))
    classes: dict = {}
    for i in range(m):
        classes.setdefault(_lcm_exps(G[i].lead_exps, lmf), []).append(i)
    minimal = []
    for lcm in sorted(classes, key=key):
        if all(not _divides_exps(other, lcm) for other in minimal):
            minimal.append(lcm)
    for lcm in minimal:
        coprime = any(
            lcm == tuple(map(add, G[i].lead_exps, lmf))
            for i in classes[lcm]
        )
        if not coprime:
            kept.add((min(classes[lcm]), m))
    G.append(f)
    return kept


def _buchberger_core(seed, gens, key, pair_budget, max_degree, shuffle):
    """Complete `seed` (pairwise S-reduced already) with `gens` to a GB."""
    G: list = []
    P: set = set()
    for f in seed:
        G.append(f)
    for f in sorted(gens, key=lambda t: key(t.lead_exps)):
        rem, _ = _nf_int(f.terms(), G, key)
        rem = _primitive(rem)
        if rem:
            P = _update_pairs(G, P, _GPoly(_sorted_terms(rem, key)), key)
    processed = 0
    while P:
        if shuffle is None:
            pair = min(
                P,
                key=lambda ij: (
                    key(_lcm_exps(G[ij[0]].lead_exps, G[ij[1]].lead_exps)),
                    ij,
                ),
            )
        else:
            pair = shuffle.choice(sorted(P))
        P.remove(pair)
        processed += 1
        if processed > pair_budget:
            raise ResourceLimitError(
                f"Buchberger pair budget of {pair_budget} exceeded"
            )
        s = _spoly_int(G[pair[0]], G[pair[1]])
        rem, _ = _nf_int(s, G, key)
        rem = _primitive(rem)
        if rem:
            g = _GPoly(_sorted_terms(rem, key))
            if max_degree is not None and g.degree > max_degree:
                raise ResourceLimitError(
                    f"intermediate degree {g.degree} exceeds cap {max_degree}"
                )
            P = _update_pairs(G, P, g, key)
    return G


def _reduce_int_basis(G, key):
    """Minimalize and interreduce an integer GB; returns integer term lists."""
    order = sorted(range(len(G)), key=lambda i: key(G[i].lead_exps))
    minimal: list = []
    for i in order:
        if all(not _divides_exps(m.lead_exps, G[i].lead_exps) for m in minimal):
            minimal.append(G[i])
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        rem, _ = _nf_int(g.terms(), others, key)
        rem = _primitive(rem)
        if rem:
            reduced.append(_GPoly(_sorted_terms(rem, key)))
    reduced.sort(key=lambda g: key(g.lead_exps), reverse=True)
    return reduced


def _is_reduced(basis, key):
    """Whether a nonempty Groebner basis is already the reduced one, in the
    order `_complete` returns: monic, leads strictly descending, and no
    term of an element divisible by the lead of another."""
    leads = [p.leading() for p in basis]
    if any(c != 1 for _, c in leads):
        return False
    keys = [key(e) for e, _ in leads]
    if any(a <= b for a, b in zip(keys, keys[1:])):
        return False
    return not any(
        _divides_exps(lead, e)
        for i, p in enumerate(basis)
        for e in p._terms
        for j, (lead, _) in enumerate(leads)
        if j != i
    )


DEFAULT_PAIR_BUDGET = 200_000


def _complete(seed, gens, pair_budget, max_degree, shuffle=None):
    """Reduced Groebner basis of `seed`, a Groebner basis (reduced or not),
    together with `gens`; pairs within the seed are skipped.  The new
    generators are first reduced modulo the seed through one shared memo of
    monomial normal forms, and only nonzero remainders enter Buchberger.
    When all of them vanish and the seed is reduced already, it is the
    answer as it stands."""
    seed = [g for g in seed if not g.is_zero()]
    gens = [g for g in gens if not g.is_zero()]
    if not seed and not gens:
        return []
    universe = (seed or gens)[0].universe
    for g in seed + gens:
        if g.universe is not universe:
            raise ValueError("generators from different symbol universes")
    key = universe.key
    reducer = GroebnerReducer(seed)
    new = [_primitive(g.sorted_terms()) for g in gens]
    if seed:
        new = [_primitive(_sorted_terms(reducer.reduce_terms(t).items(), key)) for t in new]
        if not any(new) and _is_reduced(seed, key):
            return seed
    G = _buchberger_core(
        reducer._divisors,
        [_GPoly(t) for t in new if t],
        key,
        pair_budget,
        max_degree,
        shuffle,
    )
    return [_to_poly(universe, g.terms()) for g in _reduce_int_basis(G, key)]


def buchberger(
    gens,
    *,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    max_degree: int | None = None,
    shuffle=None,
):
    """Reduced Groebner basis of the ideal generated by `gens`.

    Deterministic (normal selection, minimal lcm first); `shuffle` may be a
    `random.Random` to randomize pair selection, the reduced result is the
    same either way.  Raises ResourceLimitError when a cap is hit.
    """
    return _complete([], gens, pair_budget, max_degree, shuffle)


def buchberger_extend(
    gb,
    new_gens,
    *,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    max_degree: int | None = None,
):
    """Reduced Groebner basis of the Groebner basis `gb` extended with
    additional generators.

    `gb` must be a Groebner basis, reduced or not.  The new generators are
    reduced modulo it through one shared memo of monomial normal forms
    first; pairs among `gb` are skipped, they already reduce to zero.
    """
    return _complete(gb, new_gens, pair_budget, max_degree)


def reduce_basis(G):
    """Monic, auto-reduced form of a Groebner basis (unique per ideal)."""
    return _complete(G, [], DEFAULT_PAIR_BUDGET, None)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A polynomial ideal given by generators, with a cached reduced GB.

    The reduced basis is computed once on demand; generators and universe
    are immutable so the cache is single-assignment.
    """

    __slots__ = ("universe", "generators", "pair_budget", "max_degree", "_gb")

    def __init__(
        self,
        universe: SymbolUniverse,
        generators,
        *,
        pair_budget: int = DEFAULT_PAIR_BUDGET,
        max_degree: int | None = None,
    ):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.universe is not universe:
                raise ValueError("generator from a different symbol universe")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "pair_budget", pair_budget)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "_gb", None)

    def __setattr__(self, *_):
        raise AttributeError("Ideal is immutable")

    def extend(self, polys) -> "Ideal":
        """This ideal with the nonzero `polys` appended to its generators.

        The new basis is completed from this ideal's reduced basis, under
        the same caps.
        """
        polys = [p for p in polys if not p.is_zero()]
        caps = {"pair_budget": self.pair_budget, "max_degree": self.max_degree}
        grown = Ideal(self.universe, self.generators + tuple(polys), **caps)
        gb = buchberger_extend(self.reduced_groebner_basis(), polys, **caps)
        object.__setattr__(grown, "_gb", tuple(gb))
        return grown

    def reduced_groebner_basis(self):
        gb = self._gb
        if gb is None:
            gb = tuple(
                buchberger(
                    self.generators,
                    pair_budget=self.pair_budget,
                    max_degree=self.max_degree,
                )
            )
            object.__setattr__(self, "_gb", gb)
        return gb

    def member(self, p: Polynomial) -> bool:
        if p.is_zero():
            return True
        return normal_form(p, self.reduced_groebner_basis()).is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.reduced_groebner_basis()

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators)"


def ideal_contains(outer: Ideal, inner: Ideal) -> bool:
    """outer ⊇ inner, decided by membership of inner's generators."""
    if outer.universe is not inner.universe:
        raise ValueError("ideals over different universes")
    return all(outer.member(g) for g in inner.generators)


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Equality via the unique reduced Groebner basis."""
    if a.universe is not b.universe:
        raise ValueError("ideals over different universes")
    return list(a.reduced_groebner_basis()) == list(b.reduced_groebner_basis())


def eliminate_parameters(G):
    """Parameter-free part of a GB under an elimination order.

    By the elimination property this is a Groebner basis of the ideal
    intersected with the state-variable subring.
    """
    if not G:
        return []
    universe = G[0].universe
    order = universe.order
    if isinstance(order, Lex):
        kinds = [s.kind for s in universe.symbols]
        np = sum(1 for k in kinds if k == Symbol.PARAM)
        if any(k == Symbol.PARAM for k in kinds[np:]):
            raise ValueError(
                "lex order eliminates parameters only when they precede "
                "all state variables"
            )
    elif not isinstance(order, BlockElim):
        raise ValueError(f"{order.name} is not an elimination order")
    return [
        g
        for g in G
        if all(s.kind != Symbol.PARAM for s in g.symbols())
    ]
