"""raagv: which graph groups embed into Thompson's group V.

The graph group of a finite simple graph has one generator per vertex and
one commutation relation per edge.  It embeds into Thompson's group V
exactly when the graph avoids the three-vertex pattern "one edge plus a
vertex adjacent to neither endpoint"; such graphs carry a unique commuting
partition and their groups are direct products of free groups.  This package
decides the class, produces the partition, the group decomposition and
witnesses, and solves the word problem on the embeddable side.
"""

from .classify import ForbiddenTriple, find_forbidden_triple, is_nb, recognize_multipartite
from .graphio import (
    LabelMap,
    ParseError,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from .graphs import (
    Graph,
    eccentricity,
    new_graph,
    universal_vertices,
)
from .groups import (
    Embeddable,
    GroupDecomposition,
    NotEmbeddable,
    Verdict,
    canonical_form,
    decompose,
    emit_presentation,
    format_decomposition,
    verdict,
)
from .harness import (
    CrossCheckReport,
    Mismatch,
    cross_check,
    enumerate_graphs,
    graph_from_family,
    random_graph,
    random_nb_graph,
    random_partition_family,
)
from .partition import (
    CommutingPartition,
    InternalEdge,
    MissingCrossEdge,
    Violation,
    WrongP0,
    canonical_partition,
    greedy_partition,
    min_pivot,
    seeded_pivot,
    validate_partition,
)
from .words import (
    GroupModel,
    Letter,
    NormalForm,
    Word,
    format_word,
    group_model,
    is_trivial,
    normal_form,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "CommutingPartition",
    "CrossCheckReport",
    "Embeddable",
    "ForbiddenTriple",
    "Graph",
    "GroupModel",
    "GroupDecomposition",
    "InternalEdge",
    "LabelMap",
    "Letter",
    "Mismatch",
    "MissingCrossEdge",
    "NormalForm",
    "NotEmbeddable",
    "ParseError",
    "Verdict",
    "Violation",
    "Word",
    "WrongP0",
    "canonical_form",
    "canonical_partition",
    "cross_check",
    "decompose",
    "eccentricity",
    "emit_dot",
    "emit_edge_list",
    "emit_graph6",
    "emit_presentation",
    "enumerate_graphs",
    "find_forbidden_triple",
    "format_decomposition",
    "format_word",
    "graph_from_family",
    "greedy_partition",
    "group_model",
    "is_nb",
    "is_trivial",
    "min_pivot",
    "new_graph",
    "normal_form",
    "parse_edge_list",
    "parse_graph6",
    "parse_word",
    "random_graph",
    "random_nb_graph",
    "random_partition_family",
    "recognize_multipartite",
    "seeded_pivot",
    "universal_vertices",
    "validate_partition",
    "verdict",
]
