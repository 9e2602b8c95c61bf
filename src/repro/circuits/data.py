"""Embedded genuine benchmark netlists.

Only the tiny, universally reproduced circuits are embedded verbatim:
``c17`` (ISCAS'85) and ``s27`` (ISCAS'89).  The larger suite members are
represented by seeded synthetic stand-ins (see
:mod:`repro.circuits.catalog`).
"""

C17_BENCH = """\
# c17 — smallest ISCAS'85 benchmark (6 NAND gates)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""

S27_BENCH = """\
# s27 — smallest ISCAS'89 benchmark (3 DFFs)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
"""

EMBEDDED_BENCHES = {
    "c17": C17_BENCH,
    "s27": S27_BENCH,
}
