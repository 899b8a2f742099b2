"""Systolic array specifications (Section 3.2 of the paper).

A systolic array is completely determined by two linear distribution
functions: ``step`` (temporal) and ``place`` (spatial).  ``flow`` is derived
from them per stream (Theorem 10).  This package also provides the
compatibility and neighbourhood checks (Eq. 1 and the flow requirement of
Appendix A.1), the four designs worked out in the paper's appendices, and a
small bounded-search synthesiser standing in for the external systolic
design systems the paper cites as producers of ``step``/``place``.
"""

from repro.util import lazy_exports

__all__ = [
    "SystolicArray",
    "stream_flow",
    "all_flows",
    "is_stationary",
    "flow_denominator",
    "check_systolic_array",
    "check_neighbour_flows",
    "polynomial_product_program",
    "polyprod_design_d1",
    "polyprod_design_d2",
    "matrix_product_program",
    "matmul_design_e1",
    "matmul_design_e2",
    "all_paper_designs",
    "reversed_polyprod_program",
    "polyprod_design_reversed",
    "rectangular_matmul_program",
    "rectmm_design",
    "correlation_program",
    "correlation_design",
    "tensor_contraction_program",
    "tensor_design_simple",
    "tensor_design_skewed",
    "synthesize_step",
    "synthesize_places",
    "synthesize_array",
    "makespan",
    "DesignCost",
    "cost_candidate",
    "cost_of",
    "explore_designs",
    "loading_candidates",
    "rank_costs",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.systolic.spec": ("SystolicArray",),
    "repro.systolic.flow": (
        "stream_flow", "all_flows", "is_stationary", "flow_denominator",
    ),
    "repro.systolic.check": ("check_systolic_array", "check_neighbour_flows"),
    "repro.systolic.designs": (
        "polynomial_product_program",
        "polyprod_design_d1",
        "polyprod_design_d2",
        "matrix_product_program",
        "matmul_design_e1",
        "matmul_design_e2",
        "all_paper_designs",
        "reversed_polyprod_program",
        "polyprod_design_reversed",
        "rectangular_matmul_program",
        "rectmm_design",
        "correlation_program",
        "correlation_design",
        "tensor_contraction_program",
        "tensor_design_simple",
        "tensor_design_skewed",
    ),
    "repro.systolic.explore": (
        "DesignCost",
        "cost_candidate",
        "cost_of",
        "explore_designs",
        "loading_candidates",
        "rank_costs",
    ),
    "repro.systolic.schedule": (
        "synthesize_step", "synthesize_places", "synthesize_array", "makespan",
    ),
})
