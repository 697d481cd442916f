"""Deterministic cost counters, and the stage table they are read on.

Wall time moves with the machine's load; the number of opcodes a call
executes does not, so tests can gate how a stage's cost grows with its
input.  The count moves with the interpreter's version, so compare counts
across runs only on one version, and otherwise as ratios.  Work done inside
C (``map(sum, rows)``, ``str.split``) counts as the few opcodes that start
it, whatever its size.

``STAGES`` is the one list of the stages the package is measured by: the
scaling gates of ``test_costs`` and ``scripts/bench.py`` both read it.
"""

import gc
import sys
from collections import Counter
from typing import Callable, NamedTuple

from magicborders import (
    OmegaKey,
    build_square,
    complement_base,
    construct_with_corners,
    count_borders,
    count_omega,
    render_frame,
    verify_border,
    verify_bordered,
)
from magicborders.construct import _recipe
from magicborders.corners import audit_order_m
from magicborders.documents import FORMATS, parse_document, serialize_grid
from magicborders.verify import write_ring


def code_name(code) -> str:
    """A code object's name within its module: its qualified name (its
    plain name before Python 3.11) and first line, since two lambdas or
    comprehensions of one function share a qualified name."""
    return f"{getattr(code, 'co_qualname', code.co_name)}:{code.co_firstlineno}"


def opcodes(func, *args) -> Counter:
    """The opcodes executed by ``func(*args)``, per code object, keyed by
    (module name, :func:`code_name`).  The cyclic garbage collector is off
    meanwhile: when it runs depends on what the process did before, and
    its callbacks (hypothesis installs one) would count too."""
    counts = Counter()

    def trace_call(frame, event, arg):
        key = (frame.f_globals.get("__name__"), code_name(frame.f_code))
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def trace_opcode(frame, event, arg):
            if event == "opcode":
                counts[key] += 1
            return trace_opcode

        return trace_opcode

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(trace_call)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return counts


class Stage(NamedTuple):
    """One measured call.  ``call(size)`` does the set-up and returns
    ``(func, *args)``, the call measured.  Square, ring and frame stages
    take the order N of the square, corner builds and ``count_borders`` the
    inner order n, ``count_omega`` n, and ``audit_order_m`` the order m.

    ``kind`` names the scaling gate: "square" stages cost at most about
    four times as much when N doubles (N^2 cells), "ring" and "corners"
    stages about twice (4N - 4 cells); None is not gated.  ``pin`` is the
    size opcodes are counted at (and doubled at, for the gate), ``wall``
    the sizes timed, and ``peak`` the size whose peak RSS is read."""

    call: Callable[[int], tuple]
    kind: str | None
    pin: int
    wall: tuple[int, ...]
    peak: int


def _square_stage(call):
    return Stage(call, "square", 80, (200, 2003), 1500)


def _ring_stage(call):
    return Stage(call, "ring", 80, (200, 2003), 2003)


def _frame(order):
    return render_frame(_recipe(order - 2)).cells


STAGES = {
    "recipe": _ring_stage(lambda order: (_recipe, order - 2)),
    "verify_border": _ring_stage(lambda order: (verify_border, _recipe(order - 2))),
    "write_ring": _ring_stage(
        lambda order: (write_ring, [[0] * order for _ in range(order)], 0, _recipe(order - 2), 0)
    ),
    "render_frame": _square_stage(lambda order: (render_frame, _recipe(order - 2))),
    "build_square": _square_stage(lambda order: (build_square, order)),
    "verify_bordered": _square_stage(lambda order: (verify_bordered, build_square(order))),
}
for _fmt in FORMATS:
    STAGES[f"serialize_grid-{_fmt}"] = _square_stage(
        lambda order, fmt=_fmt: (serialize_grid, build_square(order), fmt)
    )
    STAGES[f"parse_document-{_fmt}"] = _square_stage(
        lambda order, fmt=_fmt: (parse_document, serialize_grid(build_square(order), fmt))
    )
    STAGES[f"serialize_grid-frame-{_fmt}"] = Stage(
        lambda order, fmt=_fmt: (serialize_grid, _frame(order), fmt), "square", 80, (1500,), 1500
    )
# corners (v, w) at inner order n, C being complement_base(n): small and
# ascending, swapped, v large, v and w large and descending, and a gap pair
# that block insertion alone grows
for _key, _corners in {
    "1,2": lambda n: (1, 2),
    "2,1": lambda n: (2, 1),
    "C-1,2": lambda n: (complement_base(n) - 1, 2),
    "C-2,C-1": lambda n: (complement_base(n) - 2, complement_base(n) - 1),
    "1,2n+2": lambda n: (1, 2 * n + 2),
}.items():
    STAGES[f"construct_with_corners-{_key}"] = Stage(
        lambda n, corners=_corners: (construct_with_corners, n, *corners(n)),
        "corners", 200, (4000, 40000), 40000,
    )
STAGES.update(
    count_borders=Stage(lambda n: (count_borders, OmegaKey(n, 1, 2)), None, 8, (12, 16), 16),
    count_omega=Stage(lambda n: (count_omega, n), None, 4, (8, 9), 8),
    audit_order_m=Stage(lambda m: (audit_order_m, m), None, 100, (1000,), 1000),
)


def stage_opcodes(name: str, size: int) -> Counter:
    """:func:`opcodes` of stage ``name`` at ``size``, the set-up and one
    call before it uncounted (a first call may import a module, as the CSV
    reader does json)."""
    func, *args = STAGES[name].call(size)
    func(*args)
    return opcodes(func, *args)


def pinned_totals() -> dict[str, int]:
    """Each stage's total opcodes at its pin size."""
    return {name: sum(stage_opcodes(name, stage.pin).values()) for name, stage in STAGES.items()}
