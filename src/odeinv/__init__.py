"""Exact algebraic postconditions, preconditions, and invariants for
polynomial ODE systems, on a self-contained Groebner-basis substrate."""

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    GrevLex,
    Lex,
    Monomial,
    Polynomial,
    Symbol,
    SymbolUniverse,
    monomials_up_to_degree,
)
from .groebner import (  # noqa: F401
    Ideal,
    ResourceLimitError,
    buchberger,
    normal_form,
)
from .linalg import Subspace  # noqa: F401
from .dynamics import (  # noqa: F401
    Template,
    VectorField,
    complete_template,
    lie_derivative,
    linear_combination_template,
    result_template,
)
from .algorithms import (  # noqa: F401
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    ModeError,
    PostResult,
    Precondition,
    PreResult,
    SafetyResult,
    check_invariant_ideal,
    check_safety,
    post,
    pre,
)
from .parser import ParseError, parse_polynomial  # noqa: F401
from .sysspec import SpecError, SystemSpec  # noqa: F401
