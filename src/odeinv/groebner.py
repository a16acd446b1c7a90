"""Normal forms, Buchberger's algorithm, and ideal predicates.

The entry points the queries run (`buchberger`, `buchberger_extend`,
`normal_form`, `Ideal`) exchange canonical `Polynomial` values.
Internally the engine works on content-free integer term lists: reductions
cross-multiply instead of dividing, which keeps coefficients in Z and
controls bignum growth, and the exact rational normal form is recovered
from the accumulated scale.  A `Polynomial` has its denominators cleared
once, where it enters (`_packed`, through `poly.cleared`), and its result
goes back over one denominator (`Polynomial.from_packed`).  An ideal
generator may also be a `Template`, standing for its nonzero instances:
the chains generate each J by templates, whose integer columns the engine
reads as they are, through `_instances`.

A monomial is the packed integer of the universe's `Packing` here as in
every `Polynomial` and template, so nothing is converted on the way in or
out: a product is one addition, a divisibility test or an lcm a few
masked integer operations, and `m ^ flip` is the order's sort key.  A
monomial the engine makes is checked against its guard bits before it is
used, so an exponent that outgrows its field raises `ResourceLimitError`
instead of wrapping.

Buchberger keeps its S-pairs in one heap, each entry holding the lcm of the
pair's leads, computed once when the pair is formed (Gebauer-Moeller 1988).
Every reduction finds its divisor through the one search `_divisor_of`, or
in `GroebnerReducer` an inlined copy of it.  CPython does not cache an int's
hash, so the kernels look each packed monomial up once where they can.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm

from .poly import (
    Polynomial,
    ResourceLimitError,
    SymbolUniverse,
    cleared,
    content_free,
    exponent_overflow,
)


# ---------------------------------------------------------------------------
# integer term-list representation


def _primitive(items):
    """Content-free integer (monomial, coeff) terms, first coefficient
    positive."""
    ints = content_free(c for _, c in items)
    if ints and ints[0] < 0:
        ints = [-c for c in ints]
    return [(e, c) for (e, _), c in zip(items, ints)]


class _GPoly:
    """Engine-side polynomial: integer terms split into lead and tail, on
    packed monomials (`lead_exps` is the packed lead monomial)."""

    __slots__ = ("lead_exps", "lead_coeff", "tail")

    def __init__(self, terms):
        self.lead_exps, self.lead_coeff = terms[0]
        self.tail = terms[1:]

    def terms(self):
        return [(self.lead_exps, self.lead_coeff)] + list(self.tail)


def _packed(p: Polynomial):
    """(terms, den): the terms of p on packed monomials, lead first, as
    integers over den, the lcm of p's denominators."""
    (ints,), den = cleared([dict(p.sorted_terms())])
    return ints.items(), den


def _gpoly(p: Polynomial) -> _GPoly:
    return _GPoly(_primitive(_packed(p)[0]))


def _instances(g):
    """The instances of a nonzero ideal generator, each as integer terms
    (packed monomial, int) over a positive denominator: a `Polynomial` is
    its own one, a `Template` has one per nonzero column.  The only code
    that tells the two kinds apart."""
    if isinstance(g, Polynomial):
        return [_packed(g)]
    return [(col.items(), g.denominator) for col in g.columns if col]


def _divisor_of(divisors, m, guards):
    """The first of `divisors` whose lead divides the packed monomial m, or
    None: d divides m iff no field of m - d borrows, that is iff every
    guard bit of (m | guards) - d is set."""
    mg = m | guards
    for d in divisors:
        if (mg - d.lead_exps) & guards == guards:
            return d
    return None


def _nf_int(terms, divisors, packing):
    """Reduce integer terms by divisors; return (remainder_terms, scale).

    `scale` is the positive integer by which the dividend was cross-
    multiplied overall, so exact_remainder = remainder / scale.  The
    remainder is NOT content-stripped; it is sorted lead first, as the
    heap pops monomials largest first.  `terms` holds distinct monomials;
    a zero coefficient among them is skipped.  A monomial popped with a set
    guard bit, given or made by a shift, raises ResourceLimitError.
    """
    flip, guards = packing.flip, packing.guards
    work = dict(terms)
    heap = [-(e ^ flip) for e in work]
    heapq.heapify(heap)
    emitted = []  # (monomial, coeff, scale at emission)
    scale = 1
    while heap:
        e = -heapq.heappop(heap) ^ flip
        c = work.pop(e, 0)
        if not c:
            continue
        if e & guards:
            raise exponent_overflow()
        red = _divisor_of(divisors, e, guards)
        if red is None:
            emitted.append((e, c, scale))
            continue
        g = gcd(abs(c), red.lead_coeff)
        mult_work = red.lead_coeff // g
        mult_div = c // g
        if mult_work != 1:
            work = {k: v * mult_work for k, v in work.items()}
            scale *= mult_work
        shift = e - red.lead_exps
        for de, dc in red.tail:
            ne = de + shift
            acc = work.get(ne)
            if acc is None:
                work[ne] = -mult_div * dc
                heapq.heappush(heap, -(ne ^ flip))
            else:
                acc -= mult_div * dc
                if acc:
                    work[ne] = acc
                else:
                    del work[ne]
    remainder = [(e, c * (scale // s)) for e, c, s in emitted]
    return remainder, scale


def _spoly_int(f: _GPoly, g: _GPoly, lcm):
    """Integer S-polynomial of two engine polynomials whose leads have the
    packed monomial `lcm` as their lcm.

    Cancelled terms, the lcm's at least, stay as zeros for `_nf_int` to
    skip; a term that overflows a field keeps its guard bit set, which
    `_nf_int` rejects.
    """
    cf = g.lead_coeff
    cg = f.lead_coeff
    d = gcd(cf, cg)
    cf //= d
    cg //= d
    sf = lcm - f.lead_exps
    sg = lcm - g.lead_exps
    acc: dict = {}
    for e, c in f.terms():
        ne = e + sf
        acc[ne] = acc.get(ne, 0) + cf * c
    for e, c in g.terms():
        ne = e + sg
        acc[ne] = acc.get(ne, 0) - cg * c
    return list(acc.items())


def normal_form(p: Polynomial, divisors) -> Polynomial:
    """Exact remainder of p under division by the divisor list."""
    for d in divisors:
        if d.universe is not p.universe:
            raise ValueError("divisor from a different symbol universe")
    if p.is_zero():
        return p
    terms, den = _packed(p)
    gdivs = [_gpoly(d) for d in divisors if not d.is_zero()]
    rem, scale = _nf_int(terms, gdivs, p.universe.packing)
    return Polynomial.from_packed(p.universe, rem, scale * den)


# NF of every monomial in the ideal, shared: most of a chain's vanish.
_ZERO = ({}, 1)


class GroebnerReducer:
    """Cached normal forms of packed state monomials against a Groebner
    basis, and the one holder of an `Ideal`'s basis in engine form.

    The memo pays where its entries are read again: `post` asks the
    precondition ideal's reducer for the normal forms of the template
    monomials at every step of V.  A chain's J is asked only whether an
    iterate lies in it before it grows or V moves, which `Ideal.member`
    decides by division, so a J's reducer keeps no memo.

    `basis` must be a Groebner basis, reduced or not: only then is the
    normal form unique and linear in the dividend, which the monomial-by-
    monomial reduction of a template or a polynomial and the recurrence
    below rely on.  The basis is converted to engine form once.

    A monomial m that no leading monomial divides is its own normal form.
    It is zero when a single-term lead divides it, which the divisor search
    tries first; only these two cases are settled at once.  Otherwise the
    lead that divides m has a tail, so m is not 1 (a lead dividing 1 is a
    constant, and nothing is smaller than 1), and
    NF(m) = NF(x_i * NF(m / x_i)) for a variable x_i of m, the
    multiplication step of FGLM (Faugere, Gianni, Lazard, Mora 1993), so a
    normal form is built from smaller ones already in the cache; one whose
    quotient's normal form is zero comes out zero.  When m / x_i is
    standard, one division step by the first divisor whose lead divides m
    takes its place.  Every monomial this reaches is smaller than m.  `_nf`
    strips the first x_i, from the last variable, whose quotient is cached,
    else the last variable of m, looking each quotient up once.

    Each such normal form is built in one pass by a coroutine that yields
    the smaller monomials it needs and is sent their normal forms; one loop
    in `_reduce` runs the coroutines from an explicit stack, so deep chains
    do not recurse.  Every normal form computed on the way is cached but
    that of a standard x_i * t, t a monomial of NF(m / x_i): t is standard,
    so a search of the few leads that x_i divides shows x_i * t standard,
    and leaving it out of the sum's lookups keeps the memo near the
    monomials asked of it.

    A normal form is integer numerators over a positive scale, in lowest
    terms; the recurrence takes the lcm of its parts' scales.  `basis`
    keeps the nonzero basis polynomials.  A monomial the recurrence makes
    is checked for a set guard bit when it is settled.
    """

    __slots__ = ("basis", "_divisors", "_search", "_cache", "_guards", "_strip")

    def __init__(self, basis):
        self.basis = tuple(d for d in basis if not d.is_zero())
        # Buchberger's seed, in basis order; the search takes the single-term
        # divisors first, each settling what it divides as zero
        self._divisors = [_gpoly(d) for d in self.basis]
        self._search = sorted(self._divisors, key=lambda d: bool(d.tail))
        self._cache: dict = {}
        # an empty basis divides nothing and needs no layout
        packing = self.basis[0].universe.packing if self.basis else None
        self._guards = packing.guards if packing else 0
        # (exponent field, x_i, the leads x_i divides), the last variable first
        self._strip = tuple(
            (field, x, [d.lead_exps for d in self._search if d.lead_exps & field])
            for field, x in zip(packing.fields[::-1], packing.units[::-1])
        ) if packing else ()

    def monomial_terms(self, m):
        """NF(m) of a packed monomial m as ({packed monomial: int
        numerator}, scale), to be read only."""
        cached = self._cache.get(m)
        if cached is None:
            cached = self._reduce(m)
        return cached

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
        """NF(m), not cached yet, cached now if m is standard or a
        single-term lead divides it; else None, with the coroutine that
        builds it pushed on `stack`."""
        guards = self._guards
        if m & guards:
            raise exponent_overflow()
        mg = m | guards
        for d in self._search:
            if (mg - d.lead_exps) & guards == guards:
                break
        else:
            nf = self._cache[m] = ({m: 1}, 1)
            return nf
        if d.tail:
            stack.append(self._nf(m, d))
            return None
        self._cache[m] = _ZERO
        return _ZERO

    def _nf(self, m, d):
        """Coroutine of NF(m), where the lead of d, which has a tail,
        divides m.  It yields each smaller monomial it is built from that
        is neither cached nor a standard x_i * t, is sent its normal form,
        and caches and returns NF(m)."""
        cache = self._cache
        guards = self._guards
        first = None
        for field, x, leads in self._strip:
            if m & field:
                q = m - x
                nq = cache.get(q)
                if nq is not None:
                    break
                if first is None:
                    first = x, q, leads
        else:  # m is not 1, so some x_i divides it
            x, q, leads = first
            nq = yield q
        if q in nq[0]:
            # m / x_i is standard: m = shift * lead(d), so
            # NF(m) = -(1/lc) sum c_t NF(shift * t) over the tail of d
            shift = m - d.lead_exps
            base = d.lead_coeff
            parts = [(te + shift, -tc) for te, tc in d.tail]
            leads = None
        else:
            nums, base = nq
            parts = [(t + x, c) for t, c in nums.items()]
        # NF(m) = (1/base) sum c * NF(p) over the parts (p, c), accumulated
        # over the lcm of the parts' scales as they arrive
        acc: dict = {}
        scale = 1
        for p, c in parts:
            nf = cache.get(p)
            if nf is None:
                # t is standard, so only a lead that x divides can divide
                # p = t * x (`_divisor_of`, inlined)
                if leads is not None and not p & guards:
                    pg = p | guards
                    for lead in leads:
                        if (pg - lead) & guards == guards:
                            break
                    else:  # a standard x * t, its own normal form
                        acc[p] = acc.get(p, 0) + c * scale
                        continue
                nf = yield p
            nums, s = nf
            if not nums:
                continue
            if s != scale:
                grown = lcm(scale, s)
                if grown != scale:
                    f = grown // scale
                    acc = {e: v * f for e, v in acc.items()}
                    scale = grown
                c *= scale // s
            for e, v in nums.items():
                acc[e] = acc.get(e, 0) + c * v
        # in lowest terms, the zeros of cancelled sums dropped in place
        scale *= base
        g = gcd(scale, *acc.values()) if scale != 1 else 1
        for e in [e for e, v in acc.items() if not v]:
            del acc[e]
        if g != 1:
            acc, scale = {e: v // g for e, v in acc.items()}, scale // g
        nf = cache[m] = (acc, scale) if acc else _ZERO
        return nf

    def images(self, monomials):
        """(images, scale): the normal forms of the packed monomials, a
        sequence, over one scale, NF(m) = images[m] / scale, to be read
        only.  Normal forms are linear, so a combination of the images is
        the normal form of the same combination of the monomials.  Asked in
        ascending order, each normal form finds the smaller ones it is
        built from cached and keeps few others."""
        nfs = [self.monomial_terms(m) for m in monomials]
        scale = lcm(*(s for _, s in nfs))
        nums = [n if s == scale else {e: v * (scale // s) for e, v in n.items()} for n, s in nfs]
        return dict(zip(monomials, nums)), scale


# ---------------------------------------------------------------------------
# Buchberger


def _update_pairs(G, P, f, packing):
    """Gebauer-Moeller pair update: installs Buchberger's coprime and chain
    criteria while adding f to the basis.

    A pair (i, j) is the heap entry (lcm ^ flip, i, j, lcm) of its leads'
    lcm, the order key first, so the heap pops the least lcm first, ties
    broken by (i, j).  The lcm of f's lead with each lead in G is computed
    once, for the chain criterion on the old pairs and for the new pairs
    alike; a new pair takes the least i of its lcm's class.  Divisibility is
    the guard-bit test of `_divisor_of`."""
    flip, guards = packing.flip, packing.guards
    m = len(G)
    lmf = f.lead_exps
    lcm_with = packing.lcm
    with_f = [lcm_with(g.lead_exps, lmf) for g in G]
    kept = [
        pair
        for pair in P
        if ((pair[3] | guards) - lmf) & guards != guards
        or pair[3] in (with_f[pair[1]], with_f[pair[2]])
    ]
    classes: dict = {}
    for i, lcm in enumerate(with_f):
        classes.setdefault(lcm, []).append(i)
    minimal = []
    for k in sorted(lcm ^ flip for lcm in classes):
        lcm = k ^ flip
        lg = lcm | guards
        if not any((lg - other) & guards == guards for _, other in minimal):
            minimal.append((k, lcm))
    for k, lcm in minimal:
        coprime = any(lcm == G[i].lead_exps + lmf for i in classes[lcm])
        if not coprime:
            kept.append((k, classes[lcm][0], m, lcm))
    heapq.heapify(kept)
    G.append(f)
    return kept


def _buchberger_core(seed, gens, packing, pair_budget, max_degree):
    """Complete `seed` (pairwise S-reduced already) with `gens` to a GB."""
    G = list(seed)
    P: list = []
    flip = packing.flip
    for f in sorted(gens, key=lambda t: t.lead_exps ^ flip):
        rem, _ = _nf_int(f.terms(), G, packing)
        rem = _primitive(rem)
        if rem:
            P = _update_pairs(G, P, _GPoly(rem), packing)
    processed = 0
    while P:
        _, i, j, lcm = heapq.heappop(P)
        processed += 1
        if processed > pair_budget:
            raise ResourceLimitError(
                f"Buchberger pair budget of {pair_budget} exceeded"
            )
        rem, _ = _nf_int(_spoly_int(G[i], G[j], lcm), G, packing)
        rem = _primitive(rem)
        if rem:
            if max_degree is not None:
                degree = max(packing.degree(e) for e, _ in rem)
                if degree > max_degree:
                    raise ResourceLimitError(
                        f"intermediate degree {degree} exceeds cap {max_degree}"
                    )
            P = _update_pairs(G, P, _GPoly(rem), packing)
    return G


def _reduce_int_basis(G, packing):
    """Minimalize and interreduce an integer GB; returns integer term lists."""
    flip = packing.flip
    minimal: list = []
    for g in sorted(G, key=lambda t: t.lead_exps ^ flip):
        if _divisor_of(minimal, g.lead_exps, packing.guards) is None:
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        rem, _ = _nf_int(g.terms(), others, packing)
        rem = _primitive(rem)
        if rem:
            reduced.append(_GPoly(rem))
    reduced.sort(key=lambda g: g.lead_exps ^ flip, reverse=True)
    return reduced


DEFAULT_PAIR_BUDGET = 200_000


def _complete(reducer, gens, pair_budget, max_degree):
    """Reduced Groebner basis of the reducer's basis, a Groebner basis
    (reduced or not), together with the instances of `gens`, each reduced
    as it enters Buchberger; pairs within the basis are skipped."""
    seed = reducer.basis
    gens = tuple(g for g in gens if not g.is_zero())
    if not seed and not gens:
        return []
    universe = (seed or gens)[0].universe
    for g in seed + gens:
        if g.universe is not universe:
            raise ValueError("generators from different symbol universes")
    packing = universe.packing
    flip = packing.flip
    # lead first
    new = [
        _GPoly(_primitive(sorted(terms, key=lambda term: term[0] ^ flip, reverse=True)))
        for g in gens
        for terms, _ in _instances(g)
    ]
    G = _buchberger_core(reducer._divisors, new, packing, pair_budget, max_degree)
    # monic: each basis element over its lead coefficient
    return [
        Polynomial.from_packed(universe, g.terms(), g.lead_coeff)
        for g in _reduce_int_basis(G, packing)
    ]


def buchberger(
    gens,
    *,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    max_degree: int | None = None,
):
    """Reduced Groebner basis of the ideal generated by `gens`.

    Deterministic (normal selection, minimal lcm first); the reduced result
    does not depend on the order the pairs are taken in.  Raises
    ResourceLimitError when a cap is hit.
    """
    return _complete(GroebnerReducer(()), gens, pair_budget, max_degree)


def buchberger_extend(
    reducer,
    new_gens,
    *,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    max_degree: int | None = None,
):
    """Reduced Groebner basis of the reducer's basis extended with
    additional generators.

    The `GroebnerReducer` seed may be over any Groebner basis, reduced or
    not; its basis enters in engine form as it is, and pairs within it are
    skipped, they already reduce to zero.  Each instance of a new
    generator is divided by the basis as it enters, so the chains hand in
    the Lie iterate that `Ideal.member` found outside the ideal as it is.
    """
    return _complete(reducer, new_gens, pair_budget, max_degree)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """A polynomial ideal given by generators, with a cached reduced GB.

    A generator is a `Polynomial` or a `Template`, which stands for its
    nonzero instances.  The one `GroebnerReducer` over the reduced basis
    holds that basis; it is computed once on demand, and generators and
    universe are immutable, so the cache is single-assignment.  A chain
    grows an ideal by `_known`, handing it the basis `buchberger_extend`
    completes from this ideal's reducer.
    """

    __slots__ = ("universe", "generators", "pair_budget", "max_degree", "_reducer")

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
        object.__setattr__(self, "_reducer", None)

    def __setattr__(self, *_):
        raise AttributeError("Ideal is immutable")

    def _known(self, generators, gb) -> "Ideal":
        """The ideal of `generators`, under this ideal's universe and caps,
        whose reduced basis `gb` the caller already holds: the one way to
        make an `Ideal` without running Buchberger over its generators."""
        ideal = Ideal(
            self.universe, generators, pair_budget=self.pair_budget, max_degree=self.max_degree
        )
        object.__setattr__(ideal, "_reducer", GroebnerReducer(gb))
        return ideal

    @property
    def generator_count(self) -> int:
        """The number of nonzero generator instances."""
        return sum(len(_instances(g)) for g in self.generators)

    def instances(self):
        """The nonzero generator instances as polynomials, in order."""
        return [
            Polynomial.from_packed(self.universe, terms, den)
            for g in self.generators
            for terms, den in _instances(g)
        ]

    def reduced_groebner_basis(self):
        return self.reducer().basis

    def reducer(self) -> GroebnerReducer:
        """The one reducer over the reduced basis, which holds it: the
        normal forms a chain reads again share its memo."""
        reducer = self._reducer
        if reducer is None:
            gb = buchberger(self.generators, pair_budget=self.pair_budget, max_degree=self.max_degree)
            reducer = GroebnerReducer(gb)
            object.__setattr__(self, "_reducer", reducer)
        return reducer

    def member(self, g) -> bool:
        """Whether the generator g, a `Polynomial` or a `Template`, lies in
        the ideal: each instance divided from scratch by the basis in
        engine form, False at the first nonzero remainder.  The reducer's
        memo is not asked: a chain asks its J one or two such questions
        before J grows or V moves, too few for a memo to pay."""
        if g.universe is not self.universe:
            raise ValueError("generator from a different symbol universe")
        divisors, packing = self.reducer()._divisors, self.universe.packing
        return not any(_nf_int(terms, divisors, packing)[0] for terms, _ in _instances(g))

    def __repr__(self):
        return f"Ideal({self.generator_count} generators)"
