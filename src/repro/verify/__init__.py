"""Verification: oracle equivalence and executable theorems.

:mod:`repro.verify.equivalence` runs a compiled design on the simulator and
compares every variable against the sequential interpreter -- the mechanical
version of the paper's hand-checked transputer runs.
:mod:`repro.verify.theorems` states Theorems 1-11 of Appendix B as
executable checks over a concrete design and problem size.
"""

from repro.util import lazy_exports

__all__ = [
    "BACKENDS",
    "VerificationReport",
    "verify_design",
    "verify_design_batch",
    "random_inputs",
    "check_all_theorems",
    "THEOREM_CHECKS",
    "CrossCheckReport",
    "cross_check",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.verify.equivalence": (
        "BACKENDS",
        "VerificationReport",
        "random_inputs",
        "verify_design",
        "verify_design_batch",
    ),
    "repro.verify.theorems": ("check_all_theorems", "THEOREM_CHECKS"),
    "repro.verify.enumerative": ("CrossCheckReport", "cross_check"),
})
