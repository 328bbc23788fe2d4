"""Exact-arithmetic computation of prime-characteristic singularity
invariants: nu-invariants, F-pure thresholds and F-thresholds, F-jumping
exponents, test ideals, and finite-level F-signature values for polynomials
and ideals over prime finite fields."""

from .arith import (
    INFINITY,
    DomainError,
    GrevLex,
    Lex,
    MultiPoly,
    ORDERS,
    Rational,
    Ring,
    RingMismatchError,
)
from .frobenius import (
    frobenius_power,
    frobenius_root,
    generalized_frobenius_power,
    root_of_product,
)
from .fptdriver import (
    DENOMINATOR_POWER,
    MINIMAL_DENOMINATOR,
    FptOptions,
    FptResult,
    Trace,
    fpt,
    parse_result_json,
    render_trace,
    simplest_rational_between,
)
from .groebner import (
    Ideal,
    buchberger,
    normal_form,
    poly_gcd,
)
from .nu import NuOptions, nu, nu_via_fpt
from .parsing import ParseError, parse_polynomial, parse_ring
from .special import (
    FactoredPoly,
    classify,
    diagonal_fpt,
    extract_linear_factors,
    is_simple_normal_crossing,
    snc_fpt,
    snc_verdict_raw,
    squarefree_factors,
)
from .testideal import (
    ParameterForm,
    compare_fpt,
    f_signature_value,
    is_f_jumping_exponent,
    is_fpt,
    parameter_form,
    secant_intercept,
    test_ideal,
    test_ideal_minus_epsilon,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "DomainError",
    "RingMismatchError",
    "ParseError",
    "Ring",
    "MultiPoly",
    "Ideal",
    "Rational",
    "GrevLex",
    "Lex",
    "ORDERS",
    "parse_polynomial",
    "parse_ring",
    "buchberger",
    "normal_form",
    "poly_gcd",
    "frobenius_power",
    "frobenius_root",
    "generalized_frobenius_power",
    "root_of_product",
    "nu",
    "NuOptions",
    "nu_via_fpt",
    "classify",
    "diagonal_fpt",
    "FactoredPoly",
    "extract_linear_factors",
    "squarefree_factors",
    "is_simple_normal_crossing",
    "snc_fpt",
    "snc_verdict_raw",
    "parameter_form",
    "ParameterForm",
    "test_ideal",
    "test_ideal_minus_epsilon",
    "compare_fpt",
    "is_fpt",
    "is_f_jumping_exponent",
    "f_signature_value",
    "secant_intercept",
    "fpt",
    "FptOptions",
    "FptResult",
    "Trace",
    "render_trace",
    "parse_result_json",
    "simplest_rational_between",
    "MINIMAL_DENOMINATOR",
    "DENOMINATOR_POWER",
]
