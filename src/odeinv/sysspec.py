"""System specification files: schema, validation, and model building.

A spec is a YAML document (JSON, being a YAML subset, is accepted
interchangeably) declaring the state variables, the vector field, an
optional algebraic precondition, one query, and options.  All polynomial
data are expression strings in the grammar of `parser`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, isfinite

import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

from .algorithms import DEFAULT_MAX_ITERATIONS, MODE_AUTO, Precondition, _MODES
from .dynamics import Template, VectorField, complete_template
from .groebner import DEFAULT_PAIR_BUDGET, ResourceLimitError
from .parser import _DIGITS, IDENTIFIER, ParseError, parse_polynomial
from .poly import GrevLex, Lex, Symbol, SymbolUniverse, cleared

QUERY_KINDS = ("post", "pre", "check", "invariant")
# the key under which each query but `post` lists its polynomials
POLYNOMIAL_KEYS = {"pre": "postcondition", "check": "postcondition", "invariant": "generators"}
TIERS = ("quick", "extended", "data-only")


class SpecError(ValueError):
    """A malformed or inconsistent system specification."""


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def _known_keys(mapping, known, what):
    unknown = set(mapping) - known
    # YAML keys may be of any scalar type: 1 and "a" do not compare
    _require(not unknown, f"unknown {what} keys: {sorted(unknown, key=str)}")


try:
    from yaml.cyaml import CParser
except ImportError:  # PyYAML built without libyaml
    _SpecLoader = yaml.SafeLoader
else:
    class _SpecLoader(Composer, CParser, SafeConstructor, Resolver):
        """`yaml.SafeLoader` with libyaml's scanner and parser under
        PyYAML's own composer.

        libyaml reads the text several times faster than PyYAML's Python
        scanner.  `yaml.CSafeLoader` would compose in C as well, and its
        composer recurses on the C stack: about 100,000 nested levels kill
        the interpreter.  The Python composer recurses on the Python stack
        and raises RecursionError near 1,000 levels, which `from_text`
        reports.  The two scanners differ on a few malformed texts (libyaml
        takes a tab inside a plain scalar, for one); either way a text
        loads as data or fails as YAML.
        """

        def __init__(self, stream):
            CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)


def _names(value, what):
    """A declared name list: non-empty, of distinct strings that the parser
    reads whole as one identifier, so that printing and parsing agree."""
    _require(isinstance(value, list) and value, f"{what} must be a non-empty list")
    bad = [v for v in value if not (isinstance(v, str) and IDENTIFIER.fullmatch(v))]
    _require(not bad, f"{what} must be identifiers, not {bad}")
    _require(len(set(value)) == len(value), f"duplicate {what}")
    return value


def _list(mapping, key, what):
    """mapping[key] as a list; absent or null is empty."""
    value = mapping.get(key)
    if value is None:
        return []
    _require(isinstance(value, list), f"{what} must be a list, not {value!r}")
    return value


# The exponent of a decimal literal, as Fraction reads one
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _as_fraction_option(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, str, float)):
        raise SpecError(f"{name} must be a number or exact string")
    # Fraction multiplies a decimal exponent out in full, for hours over
    # `1e999999999`: an exponent past _DIGITS is refused first.  Barring
    # thousands of padding digits, the value is far outside the double range
    m = _EXPONENT.search(value) if isinstance(value, str) else None
    exp = m[1].replace("_", "").lstrip("0") if m else ""
    _require(
        len(exp) <= len(str(_DIGITS)) and int(exp or 0) <= _DIGITS,
        f"{name} {value} is outside the double range",
    )
    try:
        x = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # non-finite floats and malformed or infinite literals
        raise SpecError(f"{name}: {exc}") from exc
    try:
        float(x)  # the numeric harness integrates in doubles
    except OverflowError:
        raise SpecError(f"{name} {value} is outside the double range") from None
    return x.limit_denominator(10**9) if isinstance(value, float) else x


# Numeric settings: type, least value, and whether that value is excluded.
_NUMBERS = {
    "max_iterations": (int, 0, False),
    "pair_budget": (int, 0, False),
    "max_degree": (int, 0, False),
    "steps": (int, 0, False),
    "samples": (int, 1, False),
    "horizon": (Fraction, 0, True),
    "step": (Fraction, 0, True),
    "tolerance": (float, 0, True),
}


# Most RK4 steps the numeric harness takes per trajectory; a horizon of
# more steps is a resource blow-up, refused when the spec is read.  Not a
# setting.  `numcheck` imports it from here, so that reading a spec does
# not import the harness.
MAX_RK4_STEPS = 1 << 20

# Most parameters a complete template may ask for.  Not a setting.
MAX_TEMPLATE_PARAMETERS = 1 << 16


def _number(name, value):
    """Validate one numeric setting against its entry in `_NUMBERS`."""
    kind, least, strict = _NUMBERS[name]
    if kind is Fraction:
        x = _as_fraction_option(value, name)
    else:
        allowed = (int, float, str) if kind is float else (int, str)
        _require(
            isinstance(value, allowed) and not isinstance(value, bool),
            f"{name} must be {'a number' if kind is float else 'an integer'}",
        )
        try:
            x = kind(value)
        except ValueError as exc:
            raise SpecError(f"{name}: {exc}") from exc
        _require(kind is int or isfinite(x), f"{name} must be finite, not {value}")
    _require(
        x > least if strict else x >= least,
        f"{name} must be {'>' if strict else '>='} {least}, not {value}",
    )
    _require(kind is not Fraction or float(x) != 0.0, f"{name} {value} is 0.0 as a double")
    return x


class NumericSpec:
    """Settings for the trajectory cross-check harness.

    `points`, when given, replaces pattern-based sampling with explicit
    rational start points (each a full variable binding).
    """

    __slots__ = ("enabled", "samples", "horizon", "step", "tolerance", "points")

    def __init__(self, enabled=False, samples=3, horizon=Fraction(1),
                 step=Fraction(1, 256), tolerance=1e-6, points=None):
        self.enabled = enabled
        self.samples = samples
        self.horizon = horizon
        self.step = step
        self.tolerance = tolerance
        self.points = points

    @classmethod
    def from_dict(cls, d):
        if d is None:
            return cls()
        _require(isinstance(d, dict), "numeric_check must be a mapping")
        known = {"enabled", "samples", "horizon", "step", "tolerance", "points"}
        _known_keys(d, known, "numeric_check")
        points = d.get("points")
        if points is not None:
            _require(
                isinstance(points, list) and points
                and all(isinstance(p, dict) for p in points),
                "numeric_check points must be a non-empty list of variable bindings",
            )
            points = [
                {str(k): _as_fraction_option(v, f"point value for {k}") for k, v in p.items()}
                for p in points
            ]
        spec = cls(points=points)
        spec.override(**{"enabled": True, **{k: v for k, v in d.items() if k != "points"}})
        return spec

    def override(self, **settings):
        """Replace enabled, samples, horizon, step or tolerance, validated.
        The horizon must be a whole number of steps, and at most
        MAX_RK4_STEPS of them (else ResourceLimitError)."""
        for name, value in settings.items():
            if name == "enabled":
                _require(isinstance(value, bool), "numeric_check enabled must be true or false")
            setattr(self, name, value if name == "enabled" else _number(name, value))
        steps = self.horizon / self.step
        _require(
            steps.denominator == 1,
            f"horizon {self.horizon} is not a whole number of steps of {self.step}",
        )
        if steps > MAX_RK4_STEPS:
            raise ResourceLimitError(
                f"horizon {self.horizon} takes {steps} RK4 steps of {self.step}, "
                f"over the cap of {MAX_RK4_STEPS}"
            )


# The chain and Buchberger caps a spec's `options` may set, with defaults.
_CAPS = {
    "max_iterations": DEFAULT_MAX_ITERATIONS, "pair_budget": DEFAULT_PAIR_BUDGET, "max_degree": None
}


class SystemSpec:
    """Parsed but not yet model-checked specification document."""

    def __init__(self, data: dict):
        _require(isinstance(data, dict), "specification must be a mapping")
        known = {
            "name", "description", "tier", "variables", "order", "field",
            "precondition", "query", "options", "numeric_check",
        }
        _known_keys(data, known, "top-level")
        for key in ("name", "description"):
            _require(isinstance(data.get(key, ""), str), f"{key} must be a string")
        self.name = data.get("name", "unnamed")
        self.tier = data.get("tier", "quick")
        _require(self.tier in TIERS, f"tier must be one of {TIERS}")

        names = self.variables = _names(data.get("variables"), "variables")

        order = data.get("order", "lex")
        _require(order in ("lex", "grevlex"), "order must be lex or grevlex")
        self.order = order

        field = data.get("field")
        _require(isinstance(field, dict), "field must map variables to drifts")
        missing = [v for v in names if v not in field]
        _require(not missing, f"missing drifts for {missing}")
        extra = [v for v in field if v not in names]
        _require(not extra, f"drifts for undeclared variables {extra}")
        self.field = {str(k): str(v) for k, v in field.items()}

        pre = data.get("precondition") or {}
        _require(isinstance(pre, dict), "precondition must be a mapping")
        _known_keys(pre, {"generators", "mode"}, "precondition")
        self.precondition_generators = [
            str(g) for g in _list(pre, "generators", "precondition generators")
        ]
        self.override(mode=pre.get("mode", MODE_AUTO))

        query = data.get("query")
        _require(isinstance(query, dict), "query must be a mapping")
        kind = query.get("kind")
        _require(kind in QUERY_KINDS, f"query kind must be one of {QUERY_KINDS}")
        self.query_kind = kind
        self.query = dict(query)

        options = data.get("options") or {}
        _require(isinstance(options, dict), "options must be a mapping")
        _known_keys(options, set(_CAPS), "option")
        self.override(**{**_CAPS, **options})

        self.numeric = NumericSpec.from_dict(data.get("numeric_check"))

    def override(self, **settings):
        """Replace settings, each checked as in the file: `mode`, the
        precondition's; `numeric`, the check on or off; the caps (None for
        no max_degree); samples, horizon, step and tolerance.  The names are
        the CLI flags' dests."""
        numeric = {}
        for name, value in settings.items():
            if name == "mode":
                _require(value in _MODES, f"precondition mode must be one of {_MODES}")
                self.precondition_mode = value
            elif name in _CAPS:
                none = name == "max_degree" and value is None
                setattr(self, name, None if none else _number(name, value))
            elif name in ("numeric", "samples", "horizon", "step", "tolerance"):
                numeric["enabled" if name == "numeric" else name] = value
            else:
                raise TypeError(f"override() got an unexpected keyword argument {name!r}")
        if numeric:
            self.numeric.override(**numeric)

    @classmethod
    def from_text(cls, text: str | bytes, source: str = "<spec>") -> "SystemSpec":
        """The spec of a YAML or JSON text, read by `_SpecLoader`.  Bytes
        are decoded by the loader: UTF-8, or UTF-16 after a byte order mark.
        Every failure to read the text is a SpecError."""
        try:
            data = yaml.load(text, _SpecLoader)
        except RecursionError:
            raise SpecError(f"{source}: nested too deeply to read") from None
        except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
            # besides YAMLError, PyYAML's constructors raise ValueError
            # (`2001-02-30`), LookupError (`!!bool x`) and AttributeError
            # (`!!timestamp x`), and CParser UnicodeEncodeError on a str
            # with a lone surrogate
            raise SpecError(f"{source}: not valid YAML/JSON: {exc}") from exc
        return cls(data)

    @classmethod
    def load(cls, path) -> "SystemSpec":
        """The spec of a file, whose bytes the loader decodes: a file that
        is not valid UTF-8 is a SpecError, as any unreadable text is."""
        with open(path, "rb") as fh:
            return cls.from_text(fh.read(), source=str(path))

    def build(self) -> "BuiltSystem":
        return BuiltSystem(self)


def _parse_monomial(text, universe, what):
    """The packed monomial of a monomial's text."""
    p = _parse(text, universe, what)
    terms = p.sorted_terms()
    if len(terms) != 1 or terms[0][1] != 1:
        raise SpecError(f"{what}: {text!r} is not a monomial")
    return terms[0][0]


def _parse(text, universe, what):
    try:
        return parse_polynomial(str(text), universe)
    except ParseError as exc:
        raise SpecError(f"{what}: {exc}") from exc


def _split_template(p, params, universe) -> Template:
    """The template over `universe` of a polynomial `p` over the parameters
    followed by the symbols of `universe`, each term of parameter degree 1;
    its rational coefficients are cleared by one lcm."""
    n = len(params)
    (ints,), den = cleared([p._terms])
    unpack, pack = p.universe.packing.unpack, universe.packing.pack
    columns: list = [{} for _ in params]
    for m, c in ints.items():
        exps = unpack(m)
        degree = sum(exps[:n])
        _require(
            degree == 1,
            f"template expression: polynomial has a term of parameter degree {degree}; "
            "templates must be parameter-linear",
        )
        # the first 1 is the parameter's, all before it are 0
        columns[exps.index(1)][pack(exps[n:])] = c
    return Template(universe, params, columns, den)


class BuiltSystem:
    """Specification resolved into engine objects.

    A `post` query holds its `template`; every other query holds the one
    polynomial list it reads, `polynomials`, parsed from the query's key in
    `POLYNOMIAL_KEYS`: the postcondition of `pre` and `check`, the ideal
    generators of `invariant`.  The other of the two is None.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        symbols = [Symbol(n) for n in spec.variables]
        self.universe = SymbolUniverse(symbols, Lex() if spec.order == "lex" else GrevLex())
        drifts = [
            _parse(spec.field[s.name], self.universe, f"drift of {s.name}")
            for s in symbols
        ]
        self.field = VectorField(self.universe, drifts)
        gens = [
            _parse(g, self.universe, "precondition generator")
            for g in spec.precondition_generators
        ]
        self.precondition = Precondition(gens, spec.precondition_mode)
        for point in spec.numeric.points or ():
            _require(
                set(point) == set(spec.variables),
                f"numeric_check point binds {sorted(point)}, not {spec.variables}",
            )
            values = {s: point[s.name] for s in symbols}
            for g in gens:
                _require(g.evaluate(values) == 0, f"numeric_check point violates {g} = 0")
        self.template = self.polynomials = None
        kind = spec.query_kind
        q = spec.query
        if kind == "post":
            _require("template" in q, "post query needs a template")
            _known_keys(q, {"kind", "template"}, "post query")
            self.template = self._build_template(q["template"])
        else:
            key = POLYNOMIAL_KEYS[kind]
            _known_keys(q, {"kind", key}, f"{kind} query")
            texts = q.get(key)
            _require(
                isinstance(texts, list) and texts,
                f"{kind} query needs a non-empty {key} list",
            )
            self.polynomials = [_parse(p, self.universe, f"{key} polynomial") for p in texts]
            _require(
                kind != "check" or not all(p.is_zero() for p in self.polynomials),
                "check query needs a nonzero postcondition polynomial",
            )

    def _build_template(self, tspec) -> Template:
        _require(isinstance(tspec, dict), "template must be a mapping")
        kind = tspec.get("kind")
        if kind == "complete":
            known = {"kind", "degree", "variables", "exclude", "auxiliary_monomials"}
            _known_keys(tspec, known, "template")
            degree = tspec.get("degree")
            _require(
                isinstance(degree, int) and not isinstance(degree, bool) and degree >= 0,
                "template degree must be a non-negative integer",
            )
            var_names = _names(tspec.get("variables", self.spec.variables), "template variables")
            unknown_vars = [v for v in var_names if v not in self.spec.variables]
            _require(not unknown_vars, f"template over undeclared variables {unknown_vars}")
            tvars = [self.universe.by_name(v) for v in var_names]
            auxiliary = [
                _parse_monomial(text, self.universe, "auxiliary monomial")
                for text in _list(tspec, "auxiliary_monomials", "auxiliary monomials")
            ]
            exclude = [
                _parse_monomial(text, self.universe, "excluded monomial")
                for text in _list(tspec, "exclude", "excluded monomials")
            ]
            # the monomials up to `degree`, and m and m*v per auxiliary m
            wanted = comb(len(tvars) + degree, degree) + len(auxiliary) * (1 + len(tvars))
            if wanted > MAX_TEMPLATE_PARAMETERS:
                raise ResourceLimitError(
                    f"template asks for {wanted} parameters, "
                    f"over the cap of {MAX_TEMPLATE_PARAMETERS}"
                )
            return complete_template(
                self.universe, tvars, degree, exclude=exclude, auxiliary=auxiliary
            )
        if kind == "explicit":
            _known_keys(tspec, {"kind", "parameters", "expression"}, "template")
            pnames = _names(tspec.get("parameters"), "template parameters")
            clash = [p for p in pnames if p in self.spec.variables]
            _require(not clash, f"parameters clash with variables: {clash}")
            params = tuple(Symbol(p, Symbol.PARAM) for p in pnames)
            expr = tspec.get("expression")
            _require(isinstance(expr, str), "explicit template needs an expression")
            p = _parse(expr, SymbolUniverse(params + self.universe.symbols), "template expression")
            return _split_template(p, params, self.universe)
        raise SpecError("template kind must be complete or explicit")

    def canonical_echo(self) -> dict:
        """Spec contents with all expressions reprinted canonically."""
        spec = self.spec
        echo = {
            "name": spec.name,
            "tier": spec.tier,
            "variables": spec.variables,
            "order": spec.order,
            "field": {
                s.name: str(d)
                for s, d in zip(self.universe.symbols, self.field.drifts)
            },
            "precondition": {
                "generators": [str(g) for g in self.precondition.generators],
                "mode": self.precondition.mode,
            },
            "query": {"kind": spec.query_kind},
        }
        if self.template is not None:
            echo["query"]["template_parameters"] = len(self.template.params)
        else:
            echo["query"][POLYNOMIAL_KEYS[spec.query_kind]] = [str(p) for p in self.polynomials]
        return echo
