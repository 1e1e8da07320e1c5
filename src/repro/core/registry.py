"""Registry-based solver dispatch.

The four energy models of the paper each come with several algorithms
(closed forms, the Theorem-2 tree/SP passes, a convex program, an LP with
two backends, exact search, heuristics, the Theorem-5 round-up).  Before
this layer existed they were reached through an ``isinstance`` chain that
forwarded untyped ``**kwargs`` — a misspelled option was silently swallowed
and there was no canonical (model, method, options) triple to key a result
cache on or to queue behind a service.

:class:`SolverRegistry` fixes both: every solver package registers named
*backends* for its model, each with a declared, validated option schema.
Dispatch becomes ``solve(problem, method="convex-sparse", options={...})``:

* an unknown method raises :class:`~repro.utils.errors.UnknownSolverError`
  listing the registered methods;
* an option the backend did not declare raises
  :class:`~repro.utils.errors.UnknownOptionError`;
* a wrong type or out-of-choices value raises
  :class:`~repro.utils.errors.InvalidOptionError`.

The validated ``(method, options)`` pair is also what
:meth:`repro.core.problem.MinEnergyProblem.cache_key` folds into the
content-addressed cache key, so the registry is the single point where a
solve call is given its canonical identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.utils.errors import (
    InvalidOptionError,
    UnknownOptionError,
    UnknownSolverError,
)


@dataclass(frozen=True)
class OptionSpec:
    """Declared schema of one solver option.

    Attributes
    ----------
    name:
        Keyword name of the option.
    types:
        Accepted Python types.  ``bool`` is only accepted when listed
        explicitly (it is deliberately not treated as an ``int``).
    default:
        Informational default (the backend function's own default applies
        when the option is omitted; the spec never injects values).
    choices:
        Optional closed set of admissible values.
    doc:
        One-line description shown by ``describe()`` and the CLI.
    """

    name: str
    types: tuple[type, ...]
    default: Any = None
    choices: tuple[Any, ...] | None = None
    doc: str = ""

    def validate(self, value: Any, *, method: str) -> Any:
        """Type/choice-check ``value``; returns it unchanged when valid."""
        if isinstance(value, bool) and bool not in self.types:
            raise InvalidOptionError(
                f"option {self.name!r} of method {method!r} expects "
                f"{self._type_names()}, got bool {value!r}"
            )
        if not isinstance(value, self.types):
            raise InvalidOptionError(
                f"option {self.name!r} of method {method!r} expects "
                f"{self._type_names()}, got {type(value).__name__} {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise InvalidOptionError(
                f"option {self.name!r} of method {method!r} must be one of "
                f"{sorted(map(repr, self.choices))}, got {value!r}"
            )
        return value

    def _type_names(self) -> str:
        return " | ".join(t.__name__ for t in self.types)


def validate_options(specs: Iterable[OptionSpec], options: Mapping[str, Any],
                     *, owner: str, method: str) -> dict[str, Any]:
    """Validate a full option mapping against a declared schema.

    The one schema check of both registries: ``owner`` names the entry in
    the :class:`UnknownOptionError` message and ``method`` in each
    :meth:`OptionSpec.validate` message.
    """
    known = {spec.name: spec for spec in specs}
    clean: dict[str, Any] = {}
    for key in options:
        if key not in known:
            valid = ", ".join(sorted(known)) or "<none>"
            raise UnknownOptionError(
                f"backend {owner} rejected option {key!r}: not in its "
                f"declared schema (valid options: {valid})"
            )
        clean[key] = known[key].validate(options[key], method=method)
    return clean


@dataclass(frozen=True)
class SolverBackend:
    """One registered (model, method) solver entry.

    ``fn`` takes ``(problem, **options)`` and returns a
    :class:`repro.core.solution.Solution`.  ``supports_exact`` marks the
    backends (the Discrete automatic dispatcher) that additionally accept
    the tri-state ``exact`` flag of the legacy top-level signature.
    """

    model: str
    method: str
    fn: Callable[..., Any]
    options: tuple[OptionSpec, ...] = ()
    default: bool = False
    supports_exact: bool = False
    aliases: tuple[str, ...] = ()
    doc: str = ""

    def validate_options(self, options: Mapping[str, Any]) -> dict[str, Any]:
        """Validate a full option mapping against the declared schema."""
        return validate_options(self.options, options,
                                owner=f"{self.model}/{self.method}",
                                method=self.method)


class SolverRegistry:
    """Mapping from (energy-model name, method name) to solver backends.

    Solver packages register their backends at import time with
    :meth:`register`; :meth:`resolve` turns a user-facing ``method`` string
    (or ``None`` for the model's default) into a :class:`SolverBackend`.
    """

    def __init__(self) -> None:
        self._backends: dict[str, dict[str, SolverBackend]] = {}
        self._default: dict[str, str] = {}
        self._alias: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, model: str, method: str, *,
                 options: Iterable[OptionSpec] = (),
                 default: bool = False, supports_exact: bool = False,
                 aliases: Iterable[str] = (), doc: str = "",
                 ) -> Callable[[Callable], Callable]:
        """Decorator registering ``fn`` as a backend of ``model``.

        Re-registering the same (model, method) replaces the entry, so a
        module reload stays idempotent.
        """

        def decorate(fn: Callable) -> Callable:
            doc_lines = (doc or fn.__doc__ or "").strip().splitlines()
            backend = SolverBackend(
                model=model, method=method, fn=fn,
                options=tuple(options), default=default,
                supports_exact=supports_exact,
                aliases=tuple(aliases),
                doc=doc_lines[0] if doc_lines else "",
            )
            table = self._backends.setdefault(model, {})
            table[method] = backend
            alias_table = self._alias.setdefault(model, {})
            for alias in backend.aliases:
                alias_table[alias] = method
            if default or model not in self._default:
                self._default[model] = method
            return fn

        return decorate

    # ------------------------------------------------------------------ #
    # resolution / introspection
    # ------------------------------------------------------------------ #
    def resolve(self, model: str, method: str | None = None) -> SolverBackend:
        """Return the backend for ``(model, method)``.

        ``method=None`` resolves to the model's default backend.  Raises
        :class:`UnknownSolverError` for an unregistered model or method.
        """
        table = self._backends.get(model)
        if not table:
            registered = ", ".join(sorted(self._backends)) or "<none>"
            raise UnknownSolverError(
                f"no solver backends registered for energy model {model!r} "
                f"(registered models: {registered})"
            )
        if method is None:
            method = self._default[model]
        method = self._alias.get(model, {}).get(method, method)
        backend = table.get(method)
        if backend is None:
            raise UnknownSolverError(
                f"unknown method {method!r} for the {model!r} model "
                f"(registered methods: {', '.join(sorted(table))})"
            )
        return backend

    def default_method(self, model: str) -> str:
        """Name of the default method of ``model``."""
        self.resolve(model)  # raises for unknown models
        return self._default[model]

    def models(self) -> list[str]:
        """Registered energy-model names."""
        return sorted(self._backends)

    def methods(self, model: str) -> list[str]:
        """Registered method names of ``model`` (default first)."""
        self.resolve(model)
        default = self._default[model]
        rest = sorted(m for m in self._backends[model] if m != default)
        return [default, *rest]

    def describe(self) -> list[dict[str, Any]]:
        """Flat description of every backend (for the CLI and docs)."""
        out: list[dict[str, Any]] = []
        for model in self.models():
            for method in self.methods(model):
                backend = self._backends[model][method]
                out.append({
                    "model": model,
                    "method": method,
                    "default": method == self._default[model],
                    "aliases": list(backend.aliases),
                    "options": {spec.name: spec.doc for spec in backend.options},
                    "doc": backend.doc,
                })
        return out


#: The process-wide registry the solver packages register into.  Populated
#: lazily by :func:`repro.solve.ensure_backends_loaded` (importing a solver
#: package is what registers its backends).
REGISTRY = SolverRegistry()
