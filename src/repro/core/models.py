"""The four energy models of the paper.

Every model answers the same three questions the solvers need:

* which speeds are admissible for a task (``is_admissible``),
* what the fastest / slowest admissible speeds are (``max_speed`` /
  ``min_speed``),
* how an ideal continuous speed maps onto the model (``round_up`` /
  ``round_down`` for the mode-based models).

The models are:

``ContinuousModel``
    any speed in ``(0, s_max]`` (Section "Continuous" of the paper);
``DiscreteModel``
    an arbitrary finite set of modes, one constant speed per task;
``VddHoppingModel``
    the same finite set of modes, but the speed may change during a task,
    so any *average* speed between the smallest and the largest mode can be
    emulated by mixing modes;
``IncrementalModel``
    modes regularly spaced by ``delta`` between ``s_min`` and ``s_max``
    (the "potentiometer knob" of the paper).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.utils.errors import InvalidModelError
from repro.utils.numerics import DEFAULT_ABS_TOL, DEFAULT_REL_TOL


def _validate_modes(modes: Sequence[float]) -> tuple[float, ...]:
    """Normalise and validate a set of discrete modes (sorted, unique, > 0)."""
    if not modes:
        raise InvalidModelError("a mode-based model needs at least one speed")
    cleaned = sorted(float(m) for m in modes)
    for m in cleaned:
        if not (m > 0 and math.isfinite(m)):
            raise InvalidModelError(f"modes must be finite and strictly positive, got {m}")
    unique: list[float] = []
    for m in cleaned:
        if not unique or not math.isclose(m, unique[-1], rel_tol=1e-12, abs_tol=0.0):
            unique.append(m)
    return tuple(unique)


@dataclass(frozen=True)
class EnergyModel:
    """Base class of all energy models.

    Subclasses define which speeds a task may use.  The energy consumed is
    always governed by the problem's :class:`repro.core.power.PowerLaw`;
    the model only constrains the admissible speed values and whether the
    speed may change during a task.
    """

    #: Human-readable model name used in reports and solver dispatch.
    name: str = field(default="abstract", init=False)

    #: Whether a task may change speed during its execution.
    allows_mid_task_switching: bool = field(default=False, init=False)

    def is_admissible(self, speed: float, *, tol: float = DEFAULT_ABS_TOL) -> bool:
        """Whether ``speed`` is an admissible constant speed for a task."""
        raise NotImplementedError

    @property
    def max_speed(self) -> float:
        """Largest admissible speed."""
        raise NotImplementedError

    @property
    def min_speed(self) -> float:
        """Smallest admissible *positive* speed (0 for the continuous model)."""
        raise NotImplementedError

    def is_mode_based(self) -> bool:
        """Whether the model has a finite set of modes."""
        return False

    def cache_token(self) -> tuple:
        """Canonical, hashable identity of the model for cache keys.

        Folds the concrete class name and every dataclass field (including
        the mode tuples and the Incremental ``(s_min, s_max, delta)``
        triple), so two model instances produce the same token exactly when
        they constrain speeds identically.
        """
        import dataclasses

        values = tuple(
            (f.name, getattr(self, f.name)) for f in dataclasses.fields(self)
        )
        return (type(self).__name__, values)


@dataclass(frozen=True)
class ContinuousModel(EnergyModel):
    """Arbitrary speeds in ``(0, s_max]``.

    Parameters
    ----------
    s_max:
        Maximum speed; ``math.inf`` (the default) removes the cap, which is
        the setting of Theorem 2 for series-parallel graphs.
    """

    s_max: float = math.inf
    name: str = field(default="continuous", init=False)

    def __post_init__(self) -> None:
        if not self.s_max > 0:
            raise InvalidModelError(f"s_max must be positive, got {self.s_max}")

    def is_admissible(self, speed: float, *, tol: float = DEFAULT_ABS_TOL) -> bool:
        return speed > 0 and speed <= self.s_max * (1.0 + DEFAULT_REL_TOL) + tol

    @property
    def max_speed(self) -> float:
        return self.s_max

    @property
    def min_speed(self) -> float:
        return 0.0

    def has_speed_cap(self) -> bool:
        """Whether ``s_max`` is finite."""
        return math.isfinite(self.s_max)


@dataclass(frozen=True)
class _ModeBasedModel(EnergyModel):
    """Shared implementation for models with a finite mode set."""

    modes: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", _validate_modes(self.modes))

    def is_mode_based(self) -> bool:
        return True

    @property
    def max_speed(self) -> float:
        return self.modes[-1]

    @property
    def min_speed(self) -> float:
        return self.modes[0]

    @property
    def n_modes(self) -> int:
        """Number of distinct modes."""
        return len(self.modes)

    def is_admissible(self, speed: float, *, tol: float = DEFAULT_ABS_TOL) -> bool:
        return any(math.isclose(speed, m, rel_tol=DEFAULT_REL_TOL, abs_tol=tol)
                   for m in self.modes)

    def round_up(self, speed: float) -> float:
        """Smallest mode ``>= speed * (1 - DEFAULT_REL_TOL)``.

        The relative tolerance absorbs round-off in a computed speed: a
        speed a hair above a mode (the top one included) rounds to that
        mode instead of past it.

        Raises
        ------
        InvalidModelError
            If ``speed`` exceeds the largest mode by more than the
            tolerance (no admissible speed can sustain the requested rate).
        """
        if speed <= self.modes[0]:
            return self.modes[0]
        # tolerate tiny numerical overshoots above an exact mode
        idx = bisect.bisect_left(self.modes, speed * (1.0 - DEFAULT_REL_TOL))
        if idx >= len(self.modes):
            raise InvalidModelError(
                f"requested speed {speed} exceeds the maximum mode {self.modes[-1]}"
            )
        return self.modes[idx]

    def round_down(self, speed: float) -> float:
        """Largest mode ``<= speed``.

        Raises
        ------
        InvalidModelError
            If ``speed`` is below the smallest mode.
        """
        if speed >= self.modes[-1]:
            return self.modes[-1]
        idx = bisect.bisect_right(self.modes, speed * (1.0 + DEFAULT_REL_TOL)) - 1
        if idx < 0:
            raise InvalidModelError(
                f"requested speed {speed} is below the minimum mode {self.modes[0]}"
            )
        return self.modes[idx]

    def bracketing_modes(self, speed: float) -> tuple[float, float]:
        """The two consecutive modes surrounding ``speed``.

        Returns ``(lower, upper)`` with ``lower <= speed <= upper``; at the
        extremes both entries are the same mode.  Used by the Vdd-Hopping
        two-mode mixing construction.
        """
        if speed <= self.modes[0]:
            return self.modes[0], self.modes[0]
        if speed >= self.modes[-1]:
            return self.modes[-1], self.modes[-1]
        upper = self.round_up(speed)
        lower = self.round_down(speed)
        return lower, upper

    def max_mode_gap(self) -> float:
        """Largest gap ``s_{i+1} - s_i`` between consecutive modes.

        This is the quantity ``alpha`` of Proposition 1 (second bullet).
        """
        if len(self.modes) == 1:
            return 0.0
        return max(b - a for a, b in zip(self.modes, self.modes[1:]))


@dataclass(frozen=True)
class DiscreteModel(_ModeBasedModel):
    """Arbitrary finite set of modes; one constant speed per task.

    ``MinEnergy(G, D)`` is NP-complete under this model (Theorem 4).
    """

    name: str = field(default="discrete", init=False)


@dataclass(frozen=True)
class VddHoppingModel(_ModeBasedModel):
    """Finite set of modes with mid-task speed switching allowed.

    Any average speed between the smallest and largest mode can be emulated
    by splitting the task's work across modes; the optimal split uses the
    two modes bracketing the ideal continuous speed.  ``MinEnergy(G, D)``
    is polynomial under this model (Theorem 3, via linear programming).
    """

    name: str = field(default="vdd-hopping", init=False)
    allows_mid_task_switching: bool = field(default=True, init=False)


@dataclass(frozen=True)
class IncrementalModel(_ModeBasedModel):
    """Regularly spaced modes ``s_min + i * delta`` within ``[s_min, s_max]``.

    Parameters
    ----------
    s_min, s_max:
        Bounds of the admissible speed range (``0 < s_min <= s_max``).
    delta:
        Speed increment (strictly positive).  The largest mode is the
        largest value of the grid not exceeding ``s_max``; by the paper's
        definition the grid always contains ``s_min``.

    Notes
    -----
    Construct with :meth:`from_range`; the primary constructor also accepts
    an explicit mode tuple for interoperability with the shared base class,
    but ``from_range`` is the canonical way and stores ``s_min`` / ``s_max``
    / ``delta`` for the approximation-ratio certificates of Theorem 5.
    """

    name: str = field(default="incremental", init=False)
    s_min: float = 0.0
    s_max: float = 0.0
    delta: float = 0.0

    @classmethod
    def from_range(cls, s_min: float, s_max: float, delta: float) -> "IncrementalModel":
        """Build the model from the paper's ``(s_min, s_max, delta)`` triple."""
        if not (s_min > 0 and math.isfinite(s_min)):
            raise InvalidModelError(f"s_min must be finite and positive, got {s_min}")
        if not (s_max >= s_min and math.isfinite(s_max)):
            raise InvalidModelError(
                f"s_max must be finite and at least s_min, got s_min={s_min}, s_max={s_max}"
            )
        if not (delta > 0 and math.isfinite(delta)):
            raise InvalidModelError(f"delta must be finite and positive, got {delta}")
        count = int(math.floor((s_max - s_min) / delta + 1e-12)) + 1
        modes = tuple(s_min + i * delta for i in range(count))
        return cls(modes=modes, s_min=s_min, s_max=s_max, delta=delta)

    def __post_init__(self) -> None:
        super().__post_init__()
        # When constructed directly from modes, infer the triple.
        if self.s_min == 0.0 and self.s_max == 0.0 and self.delta == 0.0:
            modes = self.modes
            object.__setattr__(self, "s_min", modes[0])
            object.__setattr__(self, "s_max", modes[-1])
            gap = modes[1] - modes[0] if len(modes) > 1 else 0.0
            object.__setattr__(self, "delta", gap)

    def approximation_ratio_vs_continuous(self) -> float:
        """The a-priori ratio ``(1 + delta / s_min)**2`` of Proposition 1."""
        if self.delta == 0.0:
            return 1.0
        return (1.0 + self.delta / self.s_min) ** 2

    def to_discrete(self) -> DiscreteModel:
        """View the same mode set as a plain Discrete model."""
        return DiscreteModel(modes=self.modes)

    def to_vdd_hopping(self) -> VddHoppingModel:
        """View the same mode set as a Vdd-Hopping model."""
        return VddHoppingModel(modes=self.modes)
