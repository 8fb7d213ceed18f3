"""Feedback optimization of plant steady states under constraints.

A discrete-time controller that drives a plant's steady state to a
first-order optimal point of a constrained problem using only output
measurements and steady-state sensitivities: each step projects the scaled
negative reduced gradient onto a linearization of the feasible set and
applies it as an input update.  The package bundles the projection
subproblem solver, descent certificates with an explicit step-size bound, a
primal-dual baseline for comparison, and a deterministic simulation harness
with CSV logging.
"""

from . import certificates, controller, harness, model, problems, qp, saddle
from .model import *
from .qp import *
from .controller import *
from .certificates import *
from .saddle import *
from .problems import *
from .harness import *

__version__ = "0.1.0"

# The public surface is the union of the modules' own ``__all__`` lists.
__all__ = [name for module in (model, qp, controller, certificates, saddle,
                               problems, harness)
           for name in module.__all__] + ["__version__"]
