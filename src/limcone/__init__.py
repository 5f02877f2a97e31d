"""Numerical laboratory for limit cones, critical exponents and growth
indicators of finitely generated matrix groups.

Representations of a free group F_k into SL(d, R) are probed through
their word spectra: Cartan projections (singular values) over group
elements and Jordan projections (eigenvalue moduli) over conjugacy
classes, which play the role of periodic-orbit data for a symbolic
flow.  On top of that sit two independent routes to the same growth
quantities: definition-level counting estimators and a thermodynamic
route through periodic-orbit pressure, convex duality and Legendre-type
reconstruction of the growth indicator.

The public names are those of each module's __all__.
"""

from .errors import *
from .words import *
from .reps import *
from .spectra import *
from .counting import *
from .pressure import *
from .growth import *

__version__ = "0.1.0"
