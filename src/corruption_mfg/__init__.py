"""Solver and simulator for a three-state mean-field game of corruption.

Agents are honest, corrupt or reserved (punished); each rationally chooses
when to switch between honesty and corruption against the aggregate
distribution of everyone else, under a detecting principal and two social
interaction channels (corruption infection, social-norm pressure on
detection).  The package enumerates all stationary equilibria in closed
form, classifies their stability, and validates them against the mean-field
ODE flow and exact finite-population simulation.
"""

from . import equilibria, hjb, model, simulate, stability
from .model import *
from .hjb import *
from .equilibria import *
from .stability import *
from .simulate import *

__version__ = "0.1.0"

# Each module's ``__all__`` declares its public names.
__all__ = [*model.__all__, *hjb.__all__, *equilibria.__all__, *stability.__all__,
           *simulate.__all__]
