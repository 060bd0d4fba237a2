"""Exact formal-ball calculus: completions of pre-metric carriers.

Rational-only arithmetic end to end: upper reals with effort-indexed
bounds, formal balls and their exact diameter/domination/neighborhood calculus,
completion points and filters, certified maps, the presented locale of
maps, exact real and complex points, and finite function-algebra duality.
"""

from .numbers import half_pow, parse_rational, rational_str
from .upper import Query, UpperReal
from .carriers import (
    MetricAxiomError,
    MetricCarrier,
    finite_space,
    finite_space_from_json,
    gaussian_rationals,
    product_space,
    rational_line,
)
from .balls import (
    BallOpen,
    FormalBall,
    diameter,
    diameter_upper,
    dominated,
    is_positive,
    meet_witness,
    neighborhood,
    slack,
    way_inside,
)
from .completion import (
    CertificateError,
    CompletionPoint,
    FilterSeed,
    deepest_stage,
    limit_point,
    member_query,
    pair_point,
    point_distance,
    point_of_carrier,
    regularize,
    seed_member_query,
    seed_of_point,
)
from .maps import (
    ISOMETRIC,
    METRIC,
    UNIFORM,
    MapRep,
    ModulusFn,
    apply_map,
    compose_maps,
    extend_by_density,
    identity_map,
    line_map,
    lipschitz_line_map,
    pair_maps,
    proj_map,
)
from .function_locale import (
    MMInstance,
    PairProp,
    check_axiom,
    holds,
    round_trip,
    tau_from_point,
    validate_instance,
)
from .reals import (
    BoundViolation,
    ComplexPoint,
    RealPoint,
    abs_r,
    add_c,
    add_r,
    complex_of_rational,
    conj_c,
    dot_c,
    max_r,
    min_r,
    modulus_c,
    modulus_interval,
    mul_c,
    mul_r,
    neg_r,
    real_of_rational,
    scale_r,
    sub_r,
)
from .gelfand import (
    AlgebraElement,
    BasicOpenXR,
    Character,
    FiniteDiscreteSpace,
    admissibility_theorem_check,
    cstar_identity_check,
    duality_round_trip,
    has_point,
    is_admissible,
    spectrum_of_cn,
    sup_norm,
    verify_character,
    verify_spectrum,
)
from .lawsuite import run_law_suite, suite_json

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
