"""Top-level solver dispatch through the :class:`SolverRegistry`.

``solve(problem)`` resolves the problem's energy model to a registered
solver backend and calls it with validated options:

* :class:`ContinuousModel`   → methods ``auto`` (default), ``closed-form``,
  ``tree``, ``series-parallel``, ``convex-sparse`` (aliases ``convex``,
  ``sparse``, ``ipm``);
* :class:`VddHoppingModel`   → methods ``lp`` (default) and ``mixing``;
* :class:`DiscreteModel`     → methods ``auto`` (default), ``exact``,
  ``heuristic``;
* :class:`IncrementalModel`  → methods ``theorem5`` (default, alias
  ``approx``) and ``exact``.

Unknown methods raise :class:`~repro.utils.errors.UnknownSolverError` and
undeclared or ill-typed options raise
:class:`~repro.utils.errors.UnknownOptionError` /
:class:`~repro.utils.errors.InvalidOptionError` — nothing is silently
swallowed any more.  The legacy call shapes keep working: ``solve(problem)``,
``solve(problem, exact=True)`` for the NP-complete models, and extra
keyword arguments such as ``backend="highs"`` or ``k=10`` are folded into
``options`` (and validated).

Passing a :class:`repro.cache.ResultCache` as ``cache=`` makes the call
content-addressed: the request's
:meth:`~repro.core.problem.MinEnergyProblem.cache_key` is looked up first
and a hit is rebuilt into a full :class:`Solution` (with
``metadata["cache_hit"] = True``) without running the solver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.models import (
    ContinuousModel,
    IncrementalModel,
    VddHoppingModel,
)
from repro.core.problem import MinEnergyProblem
from repro.core.registry import REGISTRY, SolverBackend
from repro.core.solution import Solution
from repro.utils.errors import InvalidModelError, InvalidOptionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import ResultCache

_BACKENDS_LOADED = False


def ensure_backends_loaded() -> None:
    """Import the four solver packages so their backends are registered.

    Importing a solver module runs its ``@REGISTRY.register`` decorators;
    this is the single place that triggers those imports, keeping
    ``repro.core`` free of dependencies on the solver packages.
    """
    global _BACKENDS_LOADED
    if _BACKENDS_LOADED:
        return
    import repro.continuous.solve    # noqa: F401
    import repro.discrete.solve      # noqa: F401
    import repro.incremental.approx  # noqa: F401
    import repro.vdd.solve           # noqa: F401
    _BACKENDS_LOADED = True


def resolve_backend(problem: MinEnergyProblem, method: str | None = None,
                    *, exact: bool | None = None) -> SolverBackend:
    """Resolve the backend a ``solve`` call would use (without calling it).

    Applies the same legacy-``exact`` routing as :func:`solve`: for the
    NP-complete models ``exact=True`` with no explicit method selects the
    ``exact`` backend, and for the polynomial models it raises.
    """
    ensure_backends_loaded()
    model = problem.model
    if exact is True and isinstance(model, (ContinuousModel, VddHoppingModel)):
        raise InvalidModelError(
            f"exact=True is contradictory for the polynomial {model.name!r} "
            "model: its default algorithms are already exact; drop the flag "
            "(or pick a method explicitly)"
        )
    if isinstance(model, IncrementalModel) and method is None and exact is True:
        method = "exact"
    backend = REGISTRY.resolve(model.name, method)
    if exact is True and not backend.supports_exact and backend.method != "exact":
        raise InvalidOptionError(
            f"exact=True conflicts with method={backend.method!r} of the "
            f"{model.name!r} model (use method='exact' or drop the flag)"
        )
    return backend


def solve(problem: MinEnergyProblem, *, method: str | None = None,
          options: dict[str, Any] | None = None,
          exact: bool | None = None,
          cache: "ResultCache | None" = None,
          **kwargs: Any) -> Solution:
    """Solve a ``MinEnergy(G, D)`` instance through the solver registry.

    Parameters
    ----------
    problem:
        The instance to solve.
    method:
        Name of a registered backend of the problem's energy model, or
        ``None`` for the model's default.  Unknown names raise
        :class:`~repro.utils.errors.UnknownSolverError`.
    options:
        Backend options, validated against the backend's declared schema
        (undeclared names raise
        :class:`~repro.utils.errors.UnknownOptionError`).
    exact:
        Legacy tri-state for the NP-complete models (Discrete,
        Incremental): force exact resolution (``True``), force the
        polynomial approximation/heuristics (``False``), or let the
        dispatcher decide (``None``).  ``exact=True`` with a polynomial
        model (Continuous, Vdd-Hopping) raises
        :class:`~repro.utils.errors.InvalidModelError` instead of being
        ignored.
    cache:
        Optional :class:`repro.cache.ResultCache`; hits skip the solver and
        return a rebuilt solution with ``metadata["cache_hit"] = True``.
    **kwargs:
        Legacy spelling of ``options`` (e.g. ``backend="highs"``,
        ``k=10``); merged into ``options`` and validated the same way.

    Returns
    -------
    Solution
        A validated, feasible solution for the requested model.
    """
    backend = resolve_backend(problem, method, exact=exact)

    opts = dict(options or {})
    for key, value in kwargs.items():
        if key in opts and opts[key] != value:
            raise InvalidOptionError(
                f"option {key!r} passed both in options= ({opts[key]!r}) and "
                f"as a keyword ({value!r})"
            )
        opts[key] = value
    clean = backend.validate_options(opts)
    call_options = dict(clean)
    if backend.supports_exact:
        call_options["exact"] = exact

    if cache is not None:
        key = request_cache_key(problem, backend, clean, exact)
        envelope = cache.get(key)
        if envelope is not None:
            from repro.cache import solution_from_envelope

            return solution_from_envelope(problem, envelope)
        solution = backend.fn(problem, **call_options)
        from repro.cache import solution_envelope

        cache.put(key, solution_envelope(solution))
        solution.metadata.setdefault("cache_hit", False)
        return solution

    return backend.fn(problem, **call_options)


def request_cache_key(problem: MinEnergyProblem, backend: SolverBackend,
                      options: dict[str, Any], exact: bool | None) -> str:
    """Cache key of a solve request given its resolved backend.

    The single place the ``(method, options, exact)`` triple is folded into
    :meth:`MinEnergyProblem.cache_key` — every cache consumer (direct
    ``solve``, the batch fan-out, the service) must compose keys through
    here so identical requests can never produce mismatched keys.
    """
    return problem.cache_key(
        method=backend.method, options=options,
        exact=exact if backend.supports_exact else None)


def cache_key_for(problem: MinEnergyProblem, method: str | None = None, *,
                  options: dict[str, Any] | None = None,
                  exact: bool | None = None) -> str:
    """Resolve and validate a request, then return its cache key.

    Raises exactly what the eventual :func:`solve` call would raise for a
    bad method/option/exact combination, so callers that pre-resolve cache
    hits (batch, service) can turn those errors into per-instance failures.
    """
    backend = resolve_backend(problem, method, exact=exact)
    clean = backend.validate_options(options or {})
    return request_cache_key(problem, backend, clean, exact)


def solver_methods(problem_or_model: "MinEnergyProblem | str") -> list[str]:
    """Registered method names for a problem's model (default first)."""
    ensure_backends_loaded()
    if isinstance(problem_or_model, MinEnergyProblem):
        model_name = problem_or_model.model.name
    else:
        model_name = problem_or_model
    return REGISTRY.methods(model_name)
