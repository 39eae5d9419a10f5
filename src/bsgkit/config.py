"""Resource caps for enumeration and convolution kernels.

Each cap has one value. The enumeration budget and the convolution cell cap
can be overridden only through the BSGKIT_CAPS environment variable, e.g.
``BSGKIT_CAPS="enum=500000,conv=1000000"``, which applies to the CLI and to
library calls alike; they guard memory and runtime and never change computed
values. The tuple cap, the exhaustive support cap and the sample count are
fixed.
"""

from __future__ import annotations

import os

from .errors import ConfigInvalidError

DEFAULT_ENUM_BUDGET = 10_000_000
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


def _caps_from_env() -> dict[str, int]:
    raw = os.environ.get("BSGKIT_CAPS", "")
    caps: dict[str, int] = {}
    if not raw:
        return caps
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigInvalidError(f"BSGKIT_CAPS entry {item!r} is not key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in ("enum", "conv"):
            raise ConfigInvalidError(f"BSGKIT_CAPS key {key!r} not one of enum, conv")
        try:
            caps[key] = int(value)
        except ValueError as exc:
            raise ConfigInvalidError(f"BSGKIT_CAPS value {value!r} is not an integer") from exc
    return caps


def enum_budget() -> int:
    """Candidate budget for exact witness enumeration."""
    return _caps_from_env().get("enum", DEFAULT_ENUM_BUDGET)


def conv_cell_cap() -> int:
    """Cell cap for the bounding box of convolutions over free coordinates."""
    return _caps_from_env().get("conv", DEFAULT_CONV_CELL_CAP)
