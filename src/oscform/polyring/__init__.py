"""Exact polynomial arithmetic: the coefficient rings and parsers used by

every other module.  Re-exports the public names of the submodules."""

from .poly import (
    Exponents,
    Polynomial,
    degree_block,
    grlex_key,
    multi_indices_upto,
)
from .ratfunc import RationalFunction
from .quotient import QuotientRingElement
from .binform import (
    binary_coefficients,
    binary_form_gcd,
    check_binary_form,
    form_from_coefficients,
    form_gcd,
    form_value,
    gen_divmod,
    gen_gcd,
    gen_gcdex,
    gen_trim,
    integer_form,
    integer_zeros,
    quadratic_cubic_resultant,
    quadratic_divides,
    rational_zeros,
    resultant_binary,
    sylvester_resultant,
)
from .exprparse import parse_polynomial, parse_rational
from .series import (
    graph_series,
    solve_series_system,
    taylor_expansions,
    taylor_jets,
    truncated_compose,
    truncated_inverse,
    truncated_multiply,
)

__all__ = [
    "Exponents",
    "Polynomial",
    "RationalFunction",
    "QuotientRingElement",
    "degree_block",
    "grlex_key",
    "multi_indices_upto",
    "binary_coefficients",
    "binary_form_gcd",
    "check_binary_form",
    "form_from_coefficients",
    "form_gcd",
    "form_value",
    "gen_divmod",
    "gen_gcd",
    "gen_gcdex",
    "gen_trim",
    "integer_form",
    "integer_zeros",
    "quadratic_cubic_resultant",
    "quadratic_divides",
    "rational_zeros",
    "resultant_binary",
    "sylvester_resultant",
    "parse_polynomial",
    "parse_rational",
    "graph_series",
    "solve_series_system",
    "taylor_expansions",
    "taylor_jets",
    "truncated_compose",
    "truncated_inverse",
    "truncated_multiply",
]
