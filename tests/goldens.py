"""Reference borders and frames used as golden test vectors.

The frames below are transcriptions of fully worked magic borders; the
plans list b and c in the printed left-to-right / top-to-bottom order so
rendered frames can be compared cell by cell.
"""

from magicborders import BorderPlan, complement, d_value
from magicborders.documents import parse_document

# inner order 8, corners (99, 96)
ORDER8_PLAN = BorderPlan(
    n=8, v=99, w=96,
    b=(1, 3, 97, 7, 11, 89, 14, 88),
    c=(6, 93, 9, 91, 15, 85, 84, 18),
)

ORDER8_FRAME_TEXT = """
99   1   3  97   7  11  89  14  88  96
 6   .   .   .   .   .   .   .   .  95
93   .   .   .   .   .   .   .   .   8
 9   .   .   .   .   .   .   .   .  92
91   .   .   .   .   .   .   .   .  10
15   .   .   .   .   .   .   .   .  86
85   .   .   .   .   .   .   .   .  16
84   .   .   .   .   .   .   .   .  17
18   .   .   .   .   .   .   .   .  83
 5 100  98   4  94  90  12  87  13   2
"""

# inner order 10, corners (1, 4)
ORDER10_PLAN = BorderPlan(
    n=10, v=1, w=4,
    b=(143, 142, 5, 139, 138, 8, 15, 129, 128, 18),
    c=(136, 10, 134, 12, 132, 14, 19, 125, 124, 22),
)

ORDER10_FRAME_TEXT = """
  1 143 142   5 139 138   8  15 129 128  18   4
136   .   .   .   .   .   .   .   .   .   .   9
 10   .   .   .   .   .   .   .   .   .   . 135
134   .   .   .   .   .   .   .   .   .   .  11
 12   .   .   .   .   .   .   .   .   .   . 133
132   .   .   .   .   .   .   .   .   .   .  13
 14   .   .   .   .   .   .   .   .   .   . 131
 19   .   .   .   .   .   .   .   .   .   . 126
125   .   .   .   .   .   .   .   .   .   .  20
124   .   .   .   .   .   .   .   .   .   .  21
 22   .   .   .   .   .   .   .   .   .   . 123
141   2   3 140   6   7 137 130  16  17 127 144
"""

# inner order 7, corners (14, 8)
ORDER7_PLAN = BorderPlan(
    n=7, v=14, w=8,
    b=(81, 78, 12, 16, 76, 73, 11),
    c=(80, 79, 13, 15, 77, 7, 10),
)

ORDER7_FRAME_TEXT = """
14 81 78 12 16 76 73 11  8
80  .  .  .  .  .  .  .  2
79  .  .  .  .  .  .  .  3
13  .  .  .  .  .  .  . 69
15  .  .  .  .  .  .  . 67
77  .  .  .  .  .  .  .  5
 7  .  .  .  .  .  .  . 75
10  .  .  .  .  .  .  . 72
74  1  4 70 66  6  9 71 68
"""

# alternative inner-order-5 border with corners (11, 5): both corners odd,
# so odd orders escape the even-order parity rule
ORDER5_ALT_PLAN = BorderPlan(
    n=5, v=11, w=5,
    b=(9, 12, 49, 46, 43),
    c=(48, 47, 6, 8, 10),
)

ORDER5_ALT_FRAME_TEXT = """
11  9 12 49 46 43  5
48  .  .  .  .  .  2
47  .  .  .  .  .  3
 6  .  .  .  .  . 44
 8  .  .  .  .  . 42
10  .  .  .  .  . 40
45 41 38  1  4  7 39
"""

# alternative inner-order-8 border with corners (7, 8)
ORDER8_ALT_PLAN = BorderPlan(
    n=8, v=7, w=8,
    b=(100, 2, 98, 4, 95, 91, 12, 88),
    c=(96, 9, 11, 87, 86, 16, 17, 83),
)

ORDER8_ALT_FRAME_TEXT = """
 7 100   2  98   4  95  91  12  88   8
96   .   .   .   .   .   .   .   .   5
 9   .   .   .   .   .   .   .   .  92
11   .   .   .   .   .   .   .   .  90
87   .   .   .   .   .   .   .   .  14
86   .   .   .   .   .   .   .   .  15
16   .   .   .   .   .   .   .   .  85
17   .   .   .   .   .   .   .   .  84
83   .   .   .   .   .   .   .   .  18
93   1  99   3  97   6  10  89  13  94
"""

# the order-8 border above with both lines reordered, still magic
ORDER8_PERMUTED_FRAME_TEXT = """
99  88  14  89  11   7  97   3   1  96
93   .   .   .   .   .   .   .   .   8
 6   .   .   .   .   .   .   .   .  95
91   .   .   .   .   .   .   .   .  10
 9   .   .   .   .   .   .   .   .  92
85   .   .   .   .   .   .   .   .  16
15   .   .   .   .   .   .   .   .  86
18   .   .   .   .   .   .   .   .  83
84   .   .   .   .   .   .   .   .  17
 5  13  87  12  90  94   4  98 100   2
"""

LO_SHU = [[2, 7, 6], [9, 5, 1], [4, 3, 8]]


def frame_cells(text: str):
    doc = parse_document(text)
    return doc.as_frame().cells


def balance_sums(plan: BorderPlan) -> tuple[int, int]:
    """The deviation sums (beta, gamma) of a plan's top row and left column.

    beta covers b with both corners at even n, b with w at odd n; gamma
    covers c at even n, c with the complement of w at odd n.  Each multiset
    is matched as sorted neighbours: any perfect matching sums to
    sum(values) - (pairs) * C, so the choice does not change the result.
    """
    n = plan.n
    if n % 2 == 0:
        beta, gamma = [*plan.b, plan.v, plan.w], list(plan.c)
    else:
        beta, gamma = [*plan.b, plan.w], [*plan.c, complement(plan.w, n)]
    sums = []
    for values in (beta, gamma):
        ordered = sorted(values)
        sums.append(sum(d_value(x, y, n) for x, y in zip(ordered[::2], ordered[1::2])))
    return sums[0], sums[1]


ALL_GOLDEN_PLANS = (
    ORDER8_PLAN,
    ORDER10_PLAN,
    ORDER7_PLAN,
    ORDER5_ALT_PLAN,
    ORDER8_ALT_PLAN,
)

ALL_GOLDEN_FRAMES = (
    (8, ORDER8_FRAME_TEXT),
    (10, ORDER10_FRAME_TEXT),
    (7, ORDER7_FRAME_TEXT),
    (5, ORDER5_ALT_FRAME_TEXT),
    (8, ORDER8_ALT_FRAME_TEXT),
    (8, ORDER8_PERMUTED_FRAME_TEXT),
)
