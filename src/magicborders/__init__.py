"""Magic borders and fully bordered magic squares.

Build a border for any inner order, prescribe its corners at even
orders, enumerate all borders with given corners, map plans through the
square's symmetry group, and stack borders into complete bordered magic
squares.

Each public name is imported from its module on first use (PEP 562), so
a program loads only the modules whose names it reads.
"""

__version__ = "0.1.0"

# the module that defines each public name
_HOMES = {
    "BorderFrame": "verify",
    "BorderPlan": "verify",
    "BudgetExhausted": "core",
    "CanonicalBorder": "enumeration",
    "CheckReport": "verify",
    "InfeasibleCornersError": "core",
    "OmegaKey": "enumeration",
    "SYMMETRIES": "transform",
    "SearchBudget": "enumeration",
    "Violation": "verify",
    "apply_symmetry": "transform",
    "border_pool": "core",
    "build_border": "construct",
    "build_square": "assemble",
    "complement": "core",
    "complement_base": "core",
    "construct_with_corners": "corners",
    "count_borders": "enumeration",
    "count_omega": "enumeration",
    "enumerate_omega": "enumeration",
    "enumerate_order": "enumeration",
    "format_counts": "enumeration",
    "magic_constant": "core",
    "orbit": "transform",
    "permute_lines": "transform",
    "plan_from_frame": "verify",
    "render_frame": "assemble",
    "seed_order4": "corners",
    "verify_border": "verify",
    "verify_bordered": "verify",
    "verify_frame": "verify",
    "verify_square": "verify",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    try:
        module = f"{__name__}.{_HOMES[name]}"
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # given a fromlist, __import__ returns the submodule itself
    value = globals()[name] = getattr(__import__(module, fromlist=(name,)), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
