"""rwkit: compressed-sensing purification and robustness certification.

The toolkit reconstructs approximately sparse signals from randomly
subsampled Fourier measurements, measures how far a signal is from exact
sparsity (its sparsity defect), and turns restricted-width bounds on the
sensing ensemble into certified adversarial-robustness radii for linear
sign classifiers defended by the reconstruction pipeline.

Each module declares its public names once, in its own ``__all__``; the
package re-exports all of them.
"""

from .certify import *
from .classifier import *
from .config import *
from .data import *
from .defect import *
from .errors import *
from .frames import *
from .io import *
from .reconstruct import *
from .sensing import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *certify.__all__, *classifier.__all__, *config.__all__, *data.__all__, *defect.__all__,
    *errors.__all__, *frames.__all__, *io.__all__, *reconstruct.__all__, *sensing.__all__,
]
