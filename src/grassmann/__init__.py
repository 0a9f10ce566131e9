"""Exact incidence algebra and straightedge constructions on plane cubics."""

from .core import (
    GeomObject,
    KindError,
    Line,
    Point,
    Scalar,
    ZERO_LINE,
    ZERO_POINT,
    bracket,
    canonicalize,
    incidence,
    join,
    meet,
    product,
    projectively_equal,
    scale,
)
from .poly import HomPoly, PolyVector, nullspace_fit, restrict_to_line
from .expr import Environment, eval_numeric, eval_symbolic, parse, pretty_print
from .constructions import (
    CubicParams,
    NinePointLabels,
    check_ten_points,
    conic_cubic_sixth,
    conic_five_points,
    conic_line_second_intersection,
    fit_nine_points,
    group_add,
    is_flex,
    pascal_points,
    tangent_at_a,
    tangent_third_point,
    third_point_general,
    third_point_on_chord_ab,
)

__version__ = "0.1.0"
