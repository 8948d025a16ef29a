"""Zero-divisor graphs of finite commutative rings, exact global defensive
k-alliance numbers, and closed-form predictions checked against the solver."""

from .rings import (CapacityError, DEFAULT_ORDER_CAP, FiniteRing,
                    LocalStructure, annihilator, is_prime, is_reduced,
                    local_structure, make_gf, make_idealization, make_product,
                    make_zn, nilradical, units, zero_divisors)
from .expressions import (GF, ExprError, ExprSemanticError, ExprSyntaxError,
                          Idealization, Product, Zn, build_ring,
                          parse_ring_expr)
from .graphs import MAX_VERTICES, NoGraphError, ZdGraph, bits, build_graph
from .solver import (ORACLE_MAX_VERTICES, AllianceProblem, AllianceSolution,
                     BudgetExceeded, domination_number, oracle_solve,
                     oracle_spectrum, solve, spectrum)
from .formulas import (Prediction, bounds, exact, local_count_bounds,
                       out_of_range, predict_complete, predict_local_index2,
                       predict_prime_power, predict_star_bipartite,
                       predict_two_fields, predict_z2_local,
                       predict_z2_two_fields, predict_z2z2_field,
                       zero_divisor_count_bound)
from .verify import (SUITES, SuiteConfig, VerificationRecord,
                     check_cardinality_bounds, emit_report, run_suite,
                     summarize)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "DEFAULT_ORDER_CAP", "FiniteRing", "LocalStructure",
    "annihilator", "is_prime", "is_reduced", "local_structure", "make_gf",
    "make_idealization", "make_product", "make_zn", "nilradical", "units",
    "zero_divisors",
    "GF", "ExprError", "ExprSemanticError", "ExprSyntaxError", "Idealization",
    "Product", "Zn", "build_ring", "parse_ring_expr",
    "MAX_VERTICES", "NoGraphError", "ZdGraph", "bits", "build_graph",
    "ORACLE_MAX_VERTICES", "AllianceProblem", "AllianceSolution",
    "BudgetExceeded", "domination_number", "oracle_solve", "oracle_spectrum",
    "solve", "spectrum",
    "Prediction", "bounds", "exact", "local_count_bounds", "out_of_range",
    "predict_complete", "predict_local_index2", "predict_prime_power",
    "predict_star_bipartite", "predict_two_fields", "predict_z2_local",
    "predict_z2_two_fields", "predict_z2z2_field", "zero_divisor_count_bound",
    "SUITES", "SuiteConfig", "VerificationRecord", "check_cardinality_bounds",
    "emit_report", "run_suite", "summarize",
    "__version__",
]
