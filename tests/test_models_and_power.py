"""Tests for the energy models and the power law."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.models import (
    ContinuousModel,
    DiscreteModel,
    IncrementalModel,
    VddHoppingModel,
)
from repro.core.power import CUBIC, PowerLaw
from repro.utils.errors import InvalidModelError
from repro.utils.numerics import DEFAULT_REL_TOL


class TestPowerLaw:
    def test_cubic_power(self):
        assert CUBIC.power(2.0) == 8.0

    def test_cubic_energy(self):
        assert CUBIC.energy(2.0, 3.0) == 24.0

    def test_energy_for_work_cubic(self):
        # w * s^2 for alpha = 3
        assert CUBIC.energy_for_work(5.0, 2.0) == 20.0

    def test_energy_for_work_zero_work(self):
        assert CUBIC.energy_for_work(0.0, 2.0) == 0.0

    def test_energy_for_work_zero_speed_is_infinite(self):
        assert CUBIC.energy_for_work(1.0, 0.0) == math.inf

    def test_negative_speed_rejected(self):
        with pytest.raises(InvalidModelError):
            CUBIC.power(-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(InvalidModelError):
            CUBIC.energy(1.0, -1.0)

    def test_negative_work_rejected(self):
        with pytest.raises(InvalidModelError):
            CUBIC.energy_for_work(-1.0, 1.0)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(InvalidModelError):
            PowerLaw(alpha=1.0)

    def test_alternative_alpha(self):
        quad = PowerLaw(alpha=2.0)
        assert quad.energy_for_work(3.0, 2.0) == 6.0  # w * s^(alpha-1)

    def test_optimal_single_task_speed(self):
        assert CUBIC.optimal_single_task_speed(10.0, 4.0) == 2.5

    def test_optimal_single_task_speed_bad_deadline(self):
        with pytest.raises(InvalidModelError):
            CUBIC.optimal_single_task_speed(1.0, 0.0)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.01, max_value=100.0))
    def test_energy_consistency(self, work, speed):
        # E = P(s) * (w / s) must equal energy_for_work(w, s)
        direct = CUBIC.energy(speed, work / speed)
        assert direct == pytest.approx(CUBIC.energy_for_work(work, speed), rel=1e-9)

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=1.01, max_value=2.0))
    def test_energy_monotone_in_speed(self, work, speed, factor):
        assert (CUBIC.energy_for_work(work, speed * factor)
                > CUBIC.energy_for_work(work, speed))


class TestContinuousModel:
    def test_default_is_uncapped(self):
        m = ContinuousModel()
        assert math.isinf(m.max_speed)
        assert not m.has_speed_cap()

    def test_admissibility(self):
        m = ContinuousModel(s_max=2.0)
        assert m.is_admissible(1.5)
        assert m.is_admissible(2.0)
        assert not m.is_admissible(2.5)
        assert not m.is_admissible(0.0)
        assert not m.is_admissible(-1.0)

    def test_admissibility_tolerates_tiny_overshoot(self):
        m = ContinuousModel(s_max=2.0)
        assert m.is_admissible(2.0 * (1 + 1e-9))

    def test_invalid_s_max(self):
        with pytest.raises(InvalidModelError):
            ContinuousModel(s_max=0.0)

    def test_not_mode_based(self):
        assert not ContinuousModel().is_mode_based()

    def test_min_speed_is_zero(self):
        assert ContinuousModel().min_speed == 0.0


class TestDiscreteModel:
    def test_modes_sorted_and_deduplicated(self):
        m = DiscreteModel(modes=(2.0, 1.0, 2.0, 0.5))
        assert m.modes == (0.5, 1.0, 2.0)
        assert m.n_modes == 3

    def test_min_max(self):
        m = DiscreteModel(modes=(0.5, 1.0, 2.0))
        assert m.min_speed == 0.5
        assert m.max_speed == 2.0

    def test_empty_modes_rejected(self):
        with pytest.raises(InvalidModelError):
            DiscreteModel(modes=())

    def test_non_positive_mode_rejected(self):
        with pytest.raises(InvalidModelError):
            DiscreteModel(modes=(0.0, 1.0))

    def test_admissibility(self):
        m = DiscreteModel(modes=(0.5, 1.0))
        assert m.is_admissible(0.5)
        assert m.is_admissible(1.0)
        assert not m.is_admissible(0.75)

    def test_round_up(self):
        m = DiscreteModel(modes=(0.5, 1.0, 2.0))
        assert m.round_up(0.3) == 0.5
        assert m.round_up(0.6) == 1.0
        assert m.round_up(1.0) == 1.0
        assert m.round_up(1.5) == 2.0

    def test_round_up_above_max_rejected(self):
        m = DiscreteModel(modes=(0.5, 1.0))
        with pytest.raises(InvalidModelError):
            m.round_up(1.5)

    def test_round_down(self):
        m = DiscreteModel(modes=(0.5, 1.0, 2.0))
        assert m.round_down(0.7) == 0.5
        assert m.round_down(2.5) == 2.0
        assert m.round_down(1.0) == 1.0

    def test_round_down_below_min_rejected(self):
        m = DiscreteModel(modes=(0.5, 1.0))
        with pytest.raises(InvalidModelError):
            m.round_down(0.2)

    def test_bracketing_modes(self):
        m = DiscreteModel(modes=(0.5, 1.0, 2.0))
        assert m.bracketing_modes(0.7) == (0.5, 1.0)
        assert m.bracketing_modes(0.1) == (0.5, 0.5)
        assert m.bracketing_modes(3.0) == (2.0, 2.0)

    def test_max_mode_gap(self):
        m = DiscreteModel(modes=(0.5, 1.0, 2.0))
        assert m.max_mode_gap() == 1.0
        assert DiscreteModel(modes=(1.0,)).max_mode_gap() == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
           st.floats(min_value=0.01, max_value=10.0))
    # a target a hair above the top mode is round-off: the top mode answers
    @example([9.999999999999998], 10.0)
    @settings(max_examples=50)
    def test_round_up_is_smallest_admissible_at_least_target(self, modes, target):
        m = DiscreteModel(modes=tuple(modes))
        floor = target * (1 - DEFAULT_REL_TOL)
        if floor > m.max_speed:
            with pytest.raises(InvalidModelError):
                m.round_up(target)
            return
        rounded = m.round_up(target)
        assert rounded in m.modes
        assert rounded >= floor
        smaller = [x for x in m.modes if x < rounded]
        assert all(x < floor for x in smaller)


class TestVddHoppingModel:
    def test_allows_switching(self):
        m = VddHoppingModel(modes=(1.0, 2.0))
        assert m.allows_mid_task_switching
        assert not DiscreteModel(modes=(1.0, 2.0)).allows_mid_task_switching

    def test_name(self):
        assert VddHoppingModel(modes=(1.0,)).name == "vdd-hopping"


class TestIncrementalModel:
    def test_from_range_grid(self):
        m = IncrementalModel.from_range(1.0, 2.0, 0.25)
        assert m.modes == (1.0, 1.25, 1.5, 1.75, 2.0)
        assert m.s_min == 1.0
        assert m.s_max == 2.0
        assert m.delta == 0.25

    def test_from_range_non_divisible(self):
        m = IncrementalModel.from_range(1.0, 2.0, 0.3)
        assert m.modes == (1.0, 1.3, 1.6, pytest.approx(1.9))
        assert m.max_speed == pytest.approx(1.9)

    def test_from_range_single_point(self):
        m = IncrementalModel.from_range(1.0, 1.0, 0.5)
        assert m.modes == (1.0,)

    def test_from_range_invalid(self):
        with pytest.raises(InvalidModelError):
            IncrementalModel.from_range(0.0, 1.0, 0.1)
        with pytest.raises(InvalidModelError):
            IncrementalModel.from_range(2.0, 1.0, 0.1)
        with pytest.raises(InvalidModelError):
            IncrementalModel.from_range(1.0, 2.0, 0.0)

    def test_direct_construction_infers_triple(self):
        m = IncrementalModel(modes=(1.0, 1.5, 2.0))
        assert m.s_min == 1.0
        assert m.s_max == 2.0
        assert m.delta == 0.5

    def test_approximation_ratio(self):
        m = IncrementalModel.from_range(1.0, 2.0, 0.5)
        assert m.approximation_ratio_vs_continuous() == pytest.approx(2.25)

    def test_views(self):
        m = IncrementalModel.from_range(1.0, 2.0, 0.5)
        assert isinstance(m.to_discrete(), DiscreteModel)
        assert m.to_discrete().modes == m.modes
        assert isinstance(m.to_vdd_hopping(), VddHoppingModel)
        assert m.to_vdd_hopping().modes == m.modes

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=50)
    def test_grid_spacing_and_bounds(self, s_min, span, delta):
        m = IncrementalModel.from_range(s_min, s_min + span, delta)
        assert m.modes[0] == pytest.approx(s_min)
        assert m.modes[-1] <= s_min + span + 1e-9
        for a, b in zip(m.modes, m.modes[1:]):
            assert b - a == pytest.approx(delta, rel=1e-9)
