"""White-box graph node classification from explicit signal dictionaries.

The pipeline in one breath: build a nine-block propagation dictionary
over the node features, keep the top Fisher-scored coordinates, fit one
PCA subspace per class and a closed-form multi-alpha ridge boundary,
fuse the two standardized score matrices, and read the fitted pieces
back out as node-level atlases and dataset fingerprints.

Each stage is imported from its own submodule (``graphsig.scaffold``,
``graphsig.atlas``, ...).  The package root binds only ``build_graph``,
the ``graphsig.io`` module and ``__version__``.
"""

import os as _os

# BLAS thread cap; must land before numpy initializes its backend.  It
# overrides the backends' own variables, so the one knob sets the count.
_threads = _os.environ.get("GRAPHSIG_NUM_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ[_var] = _threads

from . import io
from .conventions import PACKAGE_VERSION as __version__
from .graph import build_graph
