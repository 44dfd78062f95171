"""List coloring with bounded neighbor overlap: exact solvers, closed-form
separation values for cycles, cactuses and outerplanar graphs, adversarial
certificate generators, and constructive coloring procedures.

The package exports what each module lists in its own `__all__`."""

from . import adversary, colorers, formulas, graphs, lists, solver
from .adversary import *
from .colorers import *
from .formulas import *
from .graphs import *
from .lists import *
from .solver import *

__version__ = "0.1.0"

__all__ = [name for mod in (adversary, colorers, formulas, graphs, lists, solver) for name in mod.__all__]
