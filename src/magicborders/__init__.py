"""Magic borders and fully bordered magic squares.

Build a border for any inner order, prescribe its corners at even
orders, enumerate all borders with given corners, map plans through the
square's symmetry group, and stack borders into complete bordered magic
squares.
"""

from .assemble import build_square, plan_from_frame, render_frame
from .construct import build_border
from .core import (
    InfeasibleCornersError,
    border_pool,
    complement,
    complement_base,
    magic_constant,
)
from .corners import construct_with_corners, extend_border, seed_order4
from .enumeration import (
    BudgetExhausted,
    CanonicalBorder,
    OmegaKey,
    SearchBudget,
    count_borders,
    count_omega,
    enumerate_omega,
    enumerate_order,
    format_counts,
)
from .transform import SYMMETRIES, apply_symmetry, orbit, permute_lines
from .verify import (
    BorderFrame,
    BorderPlan,
    CheckReport,
    Violation,
    verify_border,
    verify_bordered,
    verify_frame,
    verify_square,
)

__version__ = "0.1.0"

__all__ = [
    "BorderFrame",
    "BorderPlan",
    "BudgetExhausted",
    "CanonicalBorder",
    "CheckReport",
    "InfeasibleCornersError",
    "OmegaKey",
    "SYMMETRIES",
    "SearchBudget",
    "Violation",
    "apply_symmetry",
    "border_pool",
    "build_border",
    "build_square",
    "complement",
    "complement_base",
    "construct_with_corners",
    "count_borders",
    "count_omega",
    "enumerate_omega",
    "enumerate_order",
    "extend_border",
    "format_counts",
    "magic_constant",
    "orbit",
    "permute_lines",
    "plan_from_frame",
    "render_frame",
    "seed_order4",
    "verify_border",
    "verify_bordered",
    "verify_frame",
    "verify_square",
]
