"""Resource caps for enumeration and convolution kernels, and the one check
that applies the count caps.

Every cap is a fixed constant with one value; the caps guard memory and
runtime and never change computed values. No check samples: TUPLE_CAP bounds
every box of supports, and each count check counts its whole box.
"""

from .errors import TooLargeError

# Candidate budget for exact witness enumeration.
DEFAULT_ENUM_BUDGET = 10_000_000
# Cell cap for the bounding box of convolutions over free coordinates.
DEFAULT_CONV_CELL_CAP = 100_000_000

# Largest product of part sizes a hypergraph or generated instance may span;
# building a complete 100^3 hypergraph (10^6 tuples) peaks at 86 MB RSS on
# CPython 3.11, x86-64.
TUPLE_CAP = 1_000_000

# Largest |A|^2 additions a pair histogram (energy, |A+A|) may take. At the
# cap, a random 4,000-element set in Z^2, whose 8M pair sums are all
# distinct, takes 20 s and peaks at 755 MB RSS (CPython 3.11, x86-64).
PAIR_CAP = 16_000_000


def require_within_cap(count: int, cap: int, what: str) -> int:
    """Return count, or raise TooLargeError when it is above cap; what names
    the thing counted."""
    if count > cap:
        raise TooLargeError(f"{what}: {count}, above the cap of {cap}")
    return count
