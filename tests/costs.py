"""Deterministic cost counters: the Python opcodes one call executes.

Wall time moves with the machine's load; the number of opcodes a call
executes does not, so tests can gate how a stage's cost grows with its
input.  The count moves with the interpreter's version, so compare counts
only within one run, as ratios.  Work done inside C (``map(sum, rows)``,
``str.split``) counts as the few opcodes that start it, whatever its size.
"""

import sys
from collections import Counter


def opcodes(func, *args) -> Counter:
    """The opcodes executed by ``func(*args)``, per function, keyed by the
    ``co_qualname`` of its code (``co_name`` before Python 3.11)."""
    counts = Counter()

    def trace_call(frame, event, arg):
        code = frame.f_code
        name = getattr(code, "co_qualname", code.co_name)
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def trace_opcode(frame, event, arg):
            if event == "opcode":
                counts[name] += 1
            return trace_opcode

        return trace_opcode

    previous = sys.gettrace()
    sys.settrace(trace_call)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
    return counts
