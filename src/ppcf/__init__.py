"""PPCF: a probabilistic call-by-name PCF with two executable semantics.

The package provides the core calculus (terms, typing, substitution,
sugar), a concrete syntax, the stochastic small-step reduction with a
Monte-Carlo mass estimator, a measure-valued denotational interpreter,
an adequacy harness comparing the two, and a numerical pre-stability
(absolute monotonicity) checker.
"""

from .denotation import (
    NonConvergent,
    SemFunction,
    fixpoint,
    interpret,
    let_bind,
    zero_value,
)
from .harness import AdequacyConfig, AdequacyReport, adequacy_check, cdf_grid
from .intervals import IntervalSet, format_interval_set, parse_interval_set
from .ir import compile_deterministic
from .measure import (
    Atom,
    ConcreteMeasure,
    IntegralMeasure,
    Measure,
    PushforwardMeasure,
    WeightedSumMeasure,
    dirac,
    lebesgue_unit,
    mix,
    pushforward,
)
from .parser import ParseError, SourceProgram, parse, parse_term, pretty
from .primitives import DEFAULT_TABLE, Primitive, PrimitiveTable, chi_name
from .quadrature import QuadratureFailure, integrate_adaptive
from .reduction import (
    Estimate,
    Exhausted,
    InvariantViolation,
    NormalForm,
    Split,
    StuckNormal,
    Value,
    decompose,
    estimate_mass,
    run,
    step,
)
from .rng import RngStream
from .stability import (
    DomainError,
    PointFn,
    StabilityReport,
    check_pre_stable,
    delta_signed,
    identity_fn,
    iterated_delta,
    poly_fn,
    wpor,
)
from .sugar import ArityError, UnknownMacro
from .terms import (
    REAL,
    SAMPLE,
    Abs,
    App,
    Arrow,
    Fix,
    Ifz,
    Let,
    Numeral,
    Prim,
    Term,
    Type,
    Var,
    alpha_equal,
    free_vars,
    substitute,
)
from .typecheck import TypeCheckError, typecheck

__version__ = "0.1.0"
