"""Exact verification of finite-dimensional Hopf *-algebra data.

Structure constants over cyclotomic rationals, integrals and modular data
computed by linear algebra, and every defining identity checked exactly,
the GNS operator statements included.  Floats are left in two places: the
positivity verdict and the group-like finder.
"""

from .cyclotomic import CYC_MINUS_ONE, CYC_ONE, CYC_ZERO, Cyc
from .duality import (act_left, act_right, biduality_check, compute_dual_integrals,
                      dual_hopf, pairing, plancherel_check)
from .errors import HopfError
from .fileformat import hopf_from_text, hopf_to_text, load_hopf, save_hopf
from .hopf import Elem, HopfData, find_group_likes, full_axiom_suite
from .integrals import (ModularData, compute_modular, left_integral,
                        modular_element, right_integral)
from .linalg import Mat, Tensor3
from .radford import radford_check, radford_factorization, s2_order, s_order
from .report import Check
from .zoo import (function_algebra, group_algebra, standard_zoo, sweedler, taft,
                  tensor_product)

__version__ = "0.1.0"


def __getattr__(name: str):
    """run_pipeline and PipelineResult, imported on first use: the pipeline
    reaches the float positivity verdict and so numpy, which
    `import hopfcheck`, the zoo and the file format then do without."""
    if name in ("PipelineResult", "run_pipeline"):
        from . import pipeline
        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CYC_MINUS_ONE", "CYC_ONE", "CYC_ZERO", "Cyc", "Check", "Elem",
    "HopfData", "HopfError", "Mat", "ModularData", "PipelineResult", "Tensor3",
    "act_left", "act_right", "biduality_check", "compute_dual_integrals",
    "compute_modular", "dual_hopf", "find_group_likes",
    "full_axiom_suite", "function_algebra", "group_algebra", "hopf_from_text",
    "hopf_to_text", "left_integral", "load_hopf", "modular_element", "pairing",
    "plancherel_check", "radford_check", "radford_factorization", "right_integral",
    "run_pipeline", "s2_order", "s_order", "save_hopf", "standard_zoo", "sweedler",
    "taft", "tensor_product",
]
