"""Formats the test modules share.

CATALOG_FORMATS are the formats on which the catalog's formulas change
character: the greatest finite value M below one, the least positive value
m above one, m*M on either side of one (m*M = (2**p - 1) * 2**k is never
1), precision 2, and formats with and without subnormals.

HOST_FORMATS are the formats whose point ops the host kernel decides and
the exhaustive or sampled tests check it on: the catalog formats and
binary32.
"""

CATALOG_FORMATS = ("p3e-2:3", "p4e-3:3", "p2e0:0ns", "p2e-6:-6", "p3e-4:-1", "p2e-1:-1ns",
                   "p2e2:4ns", "p3e0:2", "p3e-2:3ns")

HOST_FORMATS = (*CATALOG_FORMATS, "p24e-126:127")
