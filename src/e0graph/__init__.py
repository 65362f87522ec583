"""Excess-zero graphs on the involutions of finite-rank Coxeter groups.

The graph of a group W has the non-identity involutions as vertices, with x
and y joined exactly when l(xy) = l(x) + l(y).  This package constructs the
groups through their reflection representation, builds the graphs at desk
scale, and verifies the tabulated valency distributions, diameters, the
commuting-reflections valency recursion and the classification of the
valency-1 vertices.  See the README for the command-line interface.
"""

from .coxeter import (
    CoxeterGroup,
    CoxeterMatrix,
    Element,
    GroupSpec,
    SpecError,
    ToleranceError,
    build_coxeter_matrix,
    format_word,
    generate_root_system,
    parse_group_spec,
    parse_word,
)
from .graph import (
    E0Graph,
    InvolutionSet,
    PendantReport,
    ValencyDistribution,
    build_graph,
    components_and_diameter,
    delta1_of_w0x,
    enumerate_involutions,
    excess,
    graph_distance,
    is_adjacent,
    is_sequential,
    pendant_elements,
    pendant_report,
    predicted_pendants,
    valency_distribution,
)
from .infinite import (
    Ball,
    InfiniteCoxeterGroup,
    MatrixElement,
    ball_graph_diameter_evidence,
    enumerate_ball,
    product_diameter_check,
    universal_neighborhood,
)
from .symn import (
    Matching,
    delta,
    delta_bruteforce,
    delta_closed_form,
    involution_count,
    min_length_class_representatives,
    telephone,
    wlog_check,
)
from .cli import load_group

__version__ = "0.1.0"
