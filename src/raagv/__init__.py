"""raagv: which graph groups embed into Thompson's group V.

The graph group of a finite simple graph has one generator per vertex and
one commutation relation per edge.  It embeds into Thompson's group V
exactly when the graph avoids the three-vertex pattern "one edge plus a
vertex adjacent to neither endpoint"; such graphs carry a unique commuting
partition and their groups are direct products of free groups.  This package
decides the class, produces the partition, the group decomposition and
witnesses, and solves the word problem on the embeddable side.
"""

from .graphs import *
from .classify import *
from .partition import *
from .groups import *
from .words import *
from .harness import *
from .graphio import *

__version__ = "0.1.0"

# each module's __all__ lists the names it defines; importing a submodule binds it here
__all__ = (
    graphs.__all__
    + classify.__all__
    + partition.__all__
    + groups.__all__
    + words.__all__
    + harness.__all__
    + graphio.__all__
)
