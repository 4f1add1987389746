"""Binary BCH codes, exact covering radii, Johnson/Wu bounds, and decoding."""

from .bch import (
    build_bch,
    generator_polynomial,
    multiplicative_order_of_two,
)
from .bounds import (
    CoverageReport,
    WuRadius,
    classify,
    johnson_binary_floor,
    johnson_curve,
    johnson_general_floor,
    tau_wu,
)
from .decode import DecodeResult, list_decode, ml_decode
from .gf2m import FieldContext, PRIMITIVE_POLYS, make_field
from .linear_code import LinearCode, Word, from_generator_poly
from .manifest import TABLE1, TableRow
from .radius import RadiusResult, StratumEvent, WeightCapExceeded, covering_radius

__version__ = "0.1.0"

__all__ = [
    "CoverageReport",
    "DecodeResult",
    "FieldContext",
    "LinearCode",
    "PRIMITIVE_POLYS",
    "RadiusResult",
    "StratumEvent",
    "TABLE1",
    "TableRow",
    "Word",
    "WeightCapExceeded",
    "WuRadius",
    "build_bch",
    "classify",
    "covering_radius",
    "from_generator_poly",
    "generator_polynomial",
    "johnson_binary_floor",
    "johnson_curve",
    "johnson_general_floor",
    "list_decode",
    "make_field",
    "ml_decode",
    "multiplicative_order_of_two",
    "tau_wu",
]
