"""Declarative model-builder layer: declare once, solve with any backend.

The library's optimisation paths declare their programs here instead of
hand-rolling COO/CSR assembly: a :class:`LinearModel` or
:class:`ConvexModel` collects named variable blocks, bounds, constraint
blocks and the objective, materialises to canonical solver inputs exactly
once (cached, fingerprinted), and any backend registered on
:data:`BACKENDS` consumes the result.  The shared precedence polytope —
the one constraint system every scheduling program in the paper shares —
is declared through :func:`declare_precedence`.
"""

from repro.modeling.backends import (
    BACKENDS,
    BackendRegistry,
    BackendSolveResult,
    DEFAULT_BACKEND,
    ModelBackend,
)
from repro.modeling.model import (
    ConvexModel,
    LinearModel,
    MaterializedConvex,
    MaterializedLP,
    PowerObjective,
    VariableBlock,
)
from repro.modeling.precedence import declare_precedence
from repro.utils.errors import BackendUnavailableError, UnknownBackendError

__all__ = [
    "BACKENDS",
    "BackendRegistry",
    "BackendSolveResult",
    "BackendUnavailableError",
    "ConvexModel",
    "DEFAULT_BACKEND",
    "LinearModel",
    "MaterializedConvex",
    "MaterializedLP",
    "ModelBackend",
    "PowerObjective",
    "UnknownBackendError",
    "VariableBlock",
    "declare_precedence",
]
