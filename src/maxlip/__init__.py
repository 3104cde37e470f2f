"""Grid-level laboratory for maximal operators, their commutators, and
Lipschitz-type oscillation functionals measured in variable-exponent norms.

Everything is exact on a fixed cell-centered grid: integrals are plain cell
sums, cubes are axis-aligned blocks of cells, and every fast code path has a
slow independent counterpart used by the test oracles.  Each module's
``__all__`` is the one list of its public names; all of them are re-exported here.
"""

__version__ = "0.1.0"

from .catalog import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .exponents import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .lipschitz import *  # noqa: F401,F403
from .luxemburg import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403
