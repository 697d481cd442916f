"""Magic borders and fully bordered magic squares.

Build a border for any inner order, prescribe its corners at even
orders, enumerate all borders with given corners, map plans through the
square's symmetry group, and stack borders into complete bordered magic
squares.
"""

from .assemble import base_square, build_square, layer_plans, plan_from_frame, render_frame
from .construct import (
    PairingScheme,
    build_border,
    build_pairing,
    recipe_case,
    recipe_even_4k,
    recipe_even_4k_plus_2,
    recipe_n3,
    recipe_odd,
    scheme_from_plan,
)
from .core import (
    InfeasibleCornersError,
    border_pool,
    complement,
    complement_base,
    d_corner,
    d_value,
    magic_constant,
)
from .corners import (
    SeedAudit,
    block_sets,
    construct_with_corners,
    corners_feasible,
    extend_border,
    missing_pairs,
    seed_order4,
    seed_order_m,
)
from .enumeration import (
    BudgetExhausted,
    CanonicalBorder,
    NoBorderError,
    OmegaKey,
    SearchBudget,
    count_borders,
    count_omega,
    enumerate_omega,
    format_counts,
    ordered_variant_count,
    search_first,
)
from .transform import SYMMETRIES, apply_symmetry, compose, orbit, permute_lines
from .verify import (
    BorderFrame,
    BorderPlan,
    CheckReport,
    Violation,
    verify_balance,
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
    "NoBorderError",
    "OmegaKey",
    "PairingScheme",
    "SYMMETRIES",
    "SearchBudget",
    "SeedAudit",
    "Violation",
    "apply_symmetry",
    "base_square",
    "block_sets",
    "border_pool",
    "build_border",
    "build_pairing",
    "build_square",
    "complement",
    "complement_base",
    "compose",
    "construct_with_corners",
    "corners_feasible",
    "count_borders",
    "count_omega",
    "d_corner",
    "d_value",
    "enumerate_omega",
    "extend_border",
    "format_counts",
    "layer_plans",
    "magic_constant",
    "missing_pairs",
    "orbit",
    "ordered_variant_count",
    "permute_lines",
    "plan_from_frame",
    "recipe_case",
    "recipe_even_4k",
    "recipe_even_4k_plus_2",
    "recipe_n3",
    "recipe_odd",
    "render_frame",
    "scheme_from_plan",
    "search_first",
    "seed_order4",
    "seed_order_m",
    "verify_balance",
    "verify_border",
    "verify_bordered",
    "verify_frame",
    "verify_square",
]
