"""Pluggable consumers of materialised models.

Importing this package registers the built-in backends on the shared
:data:`~repro.modeling.backends.registry.BACKENDS` registry:

* ``highs`` — SciPy's HiGHS, sparse-native, simplex/IPM auto-switch (LP);
* ``mehrotra-ipm`` — the sparse Mehrotra predictor-corrector interior
  point (convex);
* ``cvxpy`` / ``ecos`` / ``scs`` — optional, probe-gated: registered
  always, usable only when the packages are installed.

Adding a backend is a ~50-line registration: write a module with a
``@BACKENDS.register(...)``-decorated function consuming a materialised
model and import it here.
"""

from repro.modeling.backends.registry import (
    BACKENDS,
    BackendRegistry,
    BackendSolveResult,
    DEFAULT_BACKEND,
    ModelBackend,
)
from repro.modeling.backends import cvxpy_backend  # noqa: F401
from repro.modeling.backends import highs  # noqa: F401
from repro.modeling.backends import mehrotra  # noqa: F401

__all__ = [
    "BACKENDS",
    "BackendRegistry",
    "BackendSolveResult",
    "DEFAULT_BACKEND",
    "ModelBackend",
]
