"""Excess-zero graphs on the involutions of finite-rank Coxeter groups.

The graph of a group W has the non-identity involutions as vertices, with x
and y joined exactly when l(xy) = l(x) + l(y).  This package constructs the
groups through their reflection representation, builds the graphs at desk
scale, and verifies the tabulated valency distributions, diameters, the
commuting-reflections valency recursion and the classification of the
valency-1 vertices.  See the README for the command-line interface.
"""

from .coxeter import CoxeterGroup, CoxeterMatrix
from .graph import (
    build_graph,
    components_and_diameter,
    enumerate_involutions,
    graph_distance,
    pendant_report,
    valency_distribution,
)
from .infinite import (
    InfiniteCoxeterGroup,
    ball_graph_diameter_evidence,
    enumerate_ball,
    product_diameter_check,
)

__version__ = "0.1.0"
