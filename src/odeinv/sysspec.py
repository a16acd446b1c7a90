"""System specification files: schema, validation, and model building.

A spec is a YAML document (JSON, being a YAML subset, is accepted
interchangeably) declaring the state variables, the vector field, an
optional algebraic precondition, one query, and options.  All polynomial
data are expression strings in the grammar of `parser`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isfinite

import yaml

from .algorithms import DEFAULT_MAX_ITERATIONS, MODE_AUTO, Precondition, _MODES
from .dynamics import Template, VectorField, complete_template
from .groebner import DEFAULT_PAIR_BUDGET, ResourceLimitError
from .parser import ParseError, parse_polynomial
from .poly import GrevLex, Lex, Symbol, SymbolUniverse, cleared

QUERY_KINDS = ("post", "pre", "check", "invariant")
TIERS = ("quick", "extended", "data-only")


class SpecError(ValueError):
    """A malformed or inconsistent system specification."""


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def _known_keys(mapping, known, what):
    unknown = set(mapping) - known
    _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")


def _list(mapping, key, what):
    """mapping[key] as a list; absent or null is empty."""
    value = mapping.get(key)
    if value is None:
        return []
    _require(isinstance(value, list), f"{what} must be a list, not {value!r}")
    return value


def _as_fraction_option(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, str, float)):
        raise SpecError(f"{name} must be a number or exact string")
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
                isinstance(points, list)
                and all(isinstance(p, dict) for p in points),
                "numeric_check points must be a list of variable bindings",
            )
            points = [
                {str(k): _as_fraction_option(v, f"point value for {k}") for k, v in p.items()}
                for p in points
            ]
        enabled = d.get("enabled", True)
        _require(isinstance(enabled, bool), "numeric_check enabled must be true or false")
        spec = cls(enabled=enabled, points=points)
        spec.override(**{k: v for k, v in d.items() if k in _NUMBERS})
        return spec

    def override(self, **settings):
        """Replace samples, horizon, step or tolerance, validated.  The
        horizon must be a whole number of steps, and at most MAX_RK4_STEPS
        of them (else ResourceLimitError)."""
        for name, value in settings.items():
            setattr(self, name, _number(name, value))
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


class SystemSpec:
    """Parsed but not yet model-checked specification document."""

    def __init__(self, data: dict, source: str = "<spec>"):
        _require(isinstance(data, dict), "specification must be a mapping")
        self.source = source
        known = {
            "name", "description", "tier", "variables", "order", "field",
            "precondition", "query", "options", "numeric_check",
        }
        _known_keys(data, known, "top-level")
        self.name = str(data.get("name", "unnamed"))
        self.description = str(data.get("description", ""))
        self.tier = data.get("tier", "quick")
        _require(self.tier in TIERS, f"tier must be one of {TIERS}")

        variables = data.get("variables")
        _require(
            isinstance(variables, list) and variables,
            "variables must be a non-empty list",
        )
        names = [str(v) for v in variables]
        _require(len(set(names)) == len(names), "duplicate variable names")
        self.variables = names

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
        self.precondition_mode = str(pre.get("mode", MODE_AUTO))
        _require(
            self.precondition_mode in _MODES,
            f"precondition mode must be one of {_MODES}",
        )

        query = data.get("query")
        _require(isinstance(query, dict), "query must be a mapping")
        kind = query.get("kind")
        _require(kind in QUERY_KINDS, f"query kind must be one of {QUERY_KINDS}")
        self.query_kind = kind
        self.query = dict(query)

        options = data.get("options") or {}
        _require(isinstance(options, dict), "options must be a mapping")
        _known_keys(options, {"max_iterations", "pair_budget", "max_degree"}, "option")
        self.max_iterations = _number(
            "max_iterations", options.get("max_iterations", DEFAULT_MAX_ITERATIONS)
        )
        self.pair_budget = _number("pair_budget", options.get("pair_budget", DEFAULT_PAIR_BUDGET))
        md = options.get("max_degree")
        self.max_degree = None if md is None else _number("max_degree", md)

        self.numeric = NumericSpec.from_dict(data.get("numeric_check"))

    @classmethod
    def from_text(cls, text: str, source: str = "<spec>") -> "SystemSpec":
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise SpecError(f"{source}: not valid YAML/JSON: {exc}") from exc
        return cls(data, source)

    @classmethod
    def load(cls, path) -> "SystemSpec":
        with open(path, "r", encoding="utf-8") as fh:
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
    """Specification resolved into engine objects."""

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
        self.template = None
        self.postcondition = None
        self.ideal_generators = None
        kind = spec.query_kind
        q = spec.query
        if kind == "post":
            _require("template" in q, "post query needs a template")
            _known_keys(q, {"kind", "template"}, "post query")
            self.template = self._build_template(q["template"])
        elif kind in ("pre", "check"):
            _known_keys(q, {"kind", "postcondition"}, f"{kind} query")
            polys = q.get("postcondition")
            _require(
                isinstance(polys, list) and polys,
                f"{kind} query needs a non-empty postcondition list",
            )
            self.postcondition = [
                _parse(p, self.universe, "postcondition polynomial") for p in polys
            ]
            _require(
                kind == "pre" or not all(p.is_zero() for p in self.postcondition),
                "check query needs a nonzero postcondition polynomial",
            )
        elif kind == "invariant":
            _known_keys(q, {"kind", "generators"}, "invariant query")
            gens_q = q.get("generators")
            _require(
                isinstance(gens_q, list) and gens_q,
                "invariant query needs a non-empty generator list",
            )
            self.ideal_generators = [
                _parse(p, self.universe, "ideal generator") for p in gens_q
            ]

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
            var_names = tspec.get("variables", self.spec.variables)
            _require(isinstance(var_names, list) and var_names, "template variables must be a list")
            unknown_vars = [v for v in var_names if v not in self.spec.variables]
            _require(not unknown_vars, f"template over undeclared variables {unknown_vars}")
            tvars = [self.universe.by_name(str(v)) for v in var_names]
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
            pnames = tspec.get("parameters")
            _require(
                isinstance(pnames, list) and pnames,
                "explicit template needs a parameter name list",
            )
            pnames = [str(p) for p in pnames]
            _require(len(set(pnames)) == len(pnames), "duplicate parameter names")
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
        if self.postcondition is not None:
            echo["query"]["postcondition"] = [str(p) for p in self.postcondition]
        if self.ideal_generators is not None:
            echo["query"]["generators"] = [str(p) for p in self.ideal_generators]
        return echo
