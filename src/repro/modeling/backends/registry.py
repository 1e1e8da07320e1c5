"""Registry of interchangeable consumers of materialised models.

Mirrors the :class:`repro.core.registry.SolverRegistry` pattern one layer
down: where that registry maps ``(energy model, method)`` to solver
functions, this one maps a **backend name** to a consumer of materialised
:class:`~repro.modeling.model.MaterializedLP` /
:class:`~repro.modeling.model.MaterializedConvex` systems.  Adding a
backend is a registration, not a rewrite:

* each entry declares which model ``kinds`` it consumes (``"lp"``,
  ``"convex"``) and its option schema (the same
  :class:`~repro.core.registry.OptionSpec` machinery, so the CLI can show
  it and validation errors are typed);
* **optional** backends carry an import ``probe`` and register
  unconditionally — :meth:`BackendRegistry.availability` runs the probe
  lazily (and caches it), so ``repro backends`` can list what is missing
  and why, and the parity suite can skip instead of fail;
* :meth:`BackendRegistry.solve` is the single solve path: it materialises
  the model (cached — the "declare once" guarantee), validates options,
  times the backend, and stamps every result's metadata with the backend
  name, ``build_seconds``, ``solve_seconds`` and the model fingerprint.

Unknown names raise :class:`~repro.utils.errors.UnknownBackendError`
listing the registered/available sets; resolving an uninstalled optional
backend raises :class:`~repro.utils.errors.BackendUnavailableError` with
the probe's reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.core.registry import OptionSpec, validate_options
from repro.utils.errors import BackendUnavailableError, UnknownBackendError

#: Default backend per model kind (used when a solve passes ``backend=None``).
DEFAULT_BACKEND = {"lp": "highs", "convex": "mehrotra-ipm"}


@dataclass(frozen=True)
class BackendSolveResult:
    """Outcome of one backend solve: the point, its objective, diagnostics.

    ``duals`` holds the nonnegative multipliers of the ``<=`` rows in
    materialised row order, or ``None`` when the backend reports none.
    They stay off ``metadata``, which travels into cache envelopes and
    result rows.
    """

    x: np.ndarray
    objective: float
    metadata: dict[str, Any] = field(default_factory=dict)
    duals: np.ndarray | None = None


@dataclass(frozen=True)
class ModelBackend:
    """One registered backend entry.

    ``fn`` takes ``(materialized, options, hints)`` and returns
    ``(x, objective, metadata)``.  ``hints`` carries solver-specific,
    non-identity extras (a warm-start point, a relative-step mask) that a
    backend is free to ignore.
    """

    name: str
    fn: Callable[..., tuple[np.ndarray, float, dict[str, Any]]]
    kinds: tuple[str, ...]
    options: tuple[OptionSpec, ...] = ()
    probe: Callable[[], str | None] | None = None
    optional: bool = False
    doc: str = ""

    def accepts(self, option: str) -> bool:
        """Whether this backend declared the named option."""
        return any(spec.name == option for spec in self.options)

    def validate_options(self, options: Mapping[str, Any]) -> dict[str, Any]:
        return validate_options(self.options, options, owner=repr(self.name),
                                method=self.name)


class BackendRegistry:
    """Name → :class:`ModelBackend` mapping plus the shared solve path."""

    def __init__(self) -> None:
        self._backends: dict[str, ModelBackend] = {}
        self._availability: dict[str, str | None] = {}
        self._routes: dict[str, set[str]] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, *, kinds: Iterable[str],
                 options: Iterable[OptionSpec] = (),
                 probe: Callable[[], str | None] | None = None,
                 optional: bool = False, doc: str = "",
                 ) -> Callable[[Callable], Callable]:
        """Decorator registering ``fn`` as the named backend.

        ``probe`` returns ``None`` when the backend is usable or a reason
        string when it is not (its result is cached on first use).
        Re-registering a name replaces the entry, keeping reloads
        idempotent.
        """

        def decorate(fn: Callable) -> Callable:
            doc_lines = (doc or fn.__doc__ or "").strip().splitlines()
            self._backends[name] = ModelBackend(
                name=name, fn=fn, kinds=tuple(kinds),
                options=tuple(options), probe=probe, optional=optional,
                doc=doc_lines[0] if doc_lines else "")
            self._availability.pop(name, None)
            return fn

        return decorate

    def announce_route(self, kind: str, route: str) -> None:
        """Record that a solver path (e.g. ``vdd-hopping/lp``) consumes ``kind``.

        Purely informational: ``repro backends`` uses it to show which
        registered solve paths each backend serves.
        """
        self._routes.setdefault(kind, set()).add(route)

    def routes(self, kind: str) -> list[str]:
        return sorted(self._routes.get(kind, ()))

    # ------------------------------------------------------------------ #
    # resolution / introspection
    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        return sorted(self._backends)

    def resolve(self, name: str, *, kind: str | None = None) -> ModelBackend:
        """Return the entry for ``name``, checking kind and availability.

        Raises :class:`UnknownBackendError` for unregistered names and for
        backends that do not consume ``kind``;
        :class:`BackendUnavailableError` for probe-gated backends whose
        probe failed.
        """
        fitting = sorted(n for n, e in self._backends.items()
                         if kind is None or kind in e.kinds)
        entry = self._backends.get(name)
        if entry is None:
            scope = "" if kind is None else f" for {kind!r} models"
            raise UnknownBackendError(
                f"unknown backend {name!r} (registered backends{scope}: "
                f"{', '.join(fitting) or '<none>'}; available for this "
                f"environment: {', '.join(self.available(kind)) or '<none>'})"
            )
        if kind is not None and kind not in entry.kinds:
            raise UnknownBackendError(
                f"backend {name!r} does not consume {kind!r} models "
                f"(it handles: {', '.join(entry.kinds)}); backends for "
                f"{kind!r}: {', '.join(fitting) or '<none>'}"
            )
        reason = self.availability(name)
        if reason is not None:
            raise BackendUnavailableError(
                f"backend {name!r} is registered but not usable here: "
                f"{reason}"
            )
        return entry

    def availability(self, name: str) -> str | None:
        """``None`` when the backend is usable, else the probe's reason."""
        if name not in self._backends:
            raise UnknownBackendError(
                f"unknown backend {name!r} (registered backends: "
                f"{', '.join(self.names()) or '<none>'})"
            )
        if name not in self._availability:
            probe = self._backends[name].probe
            self._availability[name] = probe() if probe is not None else None
        return self._availability[name]

    def available(self, kind: str | None = None) -> list[str]:
        """Names of usable backends (optionally restricted to one kind)."""
        out = []
        for name, entry in sorted(self._backends.items()):
            if kind is not None and kind not in entry.kinds:
                continue
            if self.availability(name) is None:
                out.append(name)
        return out

    def describe(self) -> list[dict[str, Any]]:
        """Flat description of every backend (for the CLI and docs)."""
        out: list[dict[str, Any]] = []
        for name in self.names():
            entry = self._backends[name]
            reason = self.availability(name)
            out.append({
                "name": name,
                "kinds": list(entry.kinds),
                "optional": entry.optional,
                "available": reason is None,
                "reason": reason,
                "default_for": sorted(k for k, v in DEFAULT_BACKEND.items()
                                      if v == name),
                "routes": sorted(r for k in entry.kinds
                                 for r in self.routes(k)),
                "options": {spec.name: spec.doc for spec in entry.options},
                "doc": entry.doc,
            })
        return out

    # ------------------------------------------------------------------ #
    # the shared solve path
    # ------------------------------------------------------------------ #
    def solve(self, model: Any, *, backend: str | None = None,
              options: Mapping[str, Any] | None = None,
              hints: Mapping[str, Any] | None = None) -> BackendSolveResult:
        """Materialise ``model`` (cached) and run the requested backend.

        ``backend=None`` picks the kind's default.  The returned metadata
        always carries ``backend``, ``build_seconds``, ``solve_seconds``
        and ``model_fingerprint`` next to whatever the backend reported;
        a backend's ``"duals"`` metadata entry moves to
        :attr:`BackendSolveResult.duals`.
        """
        name = backend or DEFAULT_BACKEND[model.kind]
        entry = self.resolve(name, kind=model.kind)
        clean = entry.validate_options(options or {})
        materialized = model.materialize()
        start = time.perf_counter()
        x, objective, metadata = entry.fn(materialized, clean,
                                          dict(hints or {}))
        solve_seconds = time.perf_counter() - start
        merged = dict(metadata)
        duals = merged.pop("duals", None)
        merged.update({
            "backend": name,
            "build_seconds": float(materialized.build_seconds),
            "solve_seconds": float(solve_seconds),
            "model_fingerprint": materialized.fingerprint,
        })
        return BackendSolveResult(x=x, objective=float(objective),
                                  metadata=merged, duals=duals)


#: The process-wide backend registry.  The built-in backends register at
#: :mod:`repro.modeling.backends` import time; optional ones are probe-gated.
BACKENDS = BackendRegistry()
