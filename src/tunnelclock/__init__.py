"""Tunneling times for piecewise-constant potentials.

Clock times from overlap integrals of the stationary states, dwell-time
integrals, exact symmetric double-barrier expressions with opaque and
wide-barrier asymptotics, and a discrete N-level clock whose pointer
records the transit through a region.

Each public name is declared once, in its module's ``__all__``; the
package re-exports those names and nothing else.
"""

from . import checks, clocktimes, closedform, errors, potentials, rotor, scattering
from .checks import *  # noqa: F403
from .clocktimes import *  # noqa: F403
from .closedform import *  # noqa: F403
from .errors import *  # noqa: F403
from .potentials import *  # noqa: F403
from .rotor import *  # noqa: F403
from .scattering import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (checks, clocktimes, closedform, errors, potentials, rotor, scattering)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
