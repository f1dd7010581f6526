"""Age of information for two update streams sharing a single-source
n-receiver multicast network under earliest-k1/k2 stopping.

Closed-form exact and large-n average ages, a Monte Carlo simulator that
serves as an independent oracle, and a weighted threshold optimizer with
pareto frontiers.
"""

from .analytic import *
from .optimize import *
from .orderstats import *
from .sim import *

__version__ = "0.1.0"
