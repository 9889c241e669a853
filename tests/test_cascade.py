"""Sideband ladder selection rules and spatial sideband generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexcascade import (
    BeamParams,
    GridSpec,
    LGModeIndex,
    RamanConfig,
    SidebandLabel,
    build_comb,
    cascade_phase_recursion,
    conservation_check,
    lg_mode_field,
    measure_charge_circulation,
    observed_sideband,
    ring_radius,
    sideband_charge,
    sideband_frequency,
    spatial_sideband,
)
from vortexcascade.cascade import geometric_amplitudes, uniform_amplitudes
from vortexcascade.errors import (
    DegenerateOverlapError,
    DetuningWarning,
    GridMismatchError,
    NegativeFrequencyError,
)
from vortexcascade.units import (
    omega_from_wavenumber_cm,
    wavelength_from_omega,
    wavenumber_cm_from_omega,
)

PUMP_CM = 12500.0  # 800 nm
SHIFT_CM = 320.0


def make_config(ell_p=1, ell_s=-1, max_as=20, max_s=20):
    return RamanConfig(
        omega_p=omega_from_wavenumber_cm(PUMP_CM),
        omega_s=omega_from_wavenumber_cm(PUMP_CM - SHIFT_CM),
        ell_p=ell_p,
        ell_s=ell_s,
        omega_raman=omega_from_wavenumber_cm(SHIFT_CM),
        max_as=max_as,
        max_s=max_s,
    )


class TestLabels:
    def test_ladder_index_bijection(self):
        for k in range(-30, 31):
            label = SidebandLabel.from_ladder_index(k)
            assert label.k == k
            assert SidebandLabel.parse(str(label)) == label

    def test_known_indices(self):
        assert SidebandLabel.stokes().k == 0
        assert SidebandLabel.pump().k == 1
        assert SidebandLabel.anti_stokes(1).k == 2
        assert SidebandLabel.stokes_order(2).k == -2

    def test_validation(self):
        from vortexcascade import SidebandKind

        with pytest.raises(ValueError):
            SidebandLabel(SidebandKind.ANTI_STOKES, 0)
        with pytest.raises(ValueError):
            SidebandLabel(SidebandKind.PUMP, 2)
        with pytest.raises(ValueError):
            SidebandLabel.parse("Q3")


class TestFrequencies:
    def test_seeds_map_to_themselves(self):
        cfg = make_config()
        assert sideband_frequency(cfg, SidebandLabel.pump()) == cfg.omega_p
        assert sideband_frequency(cfg, SidebandLabel.stokes()) == cfg.omega_s

    def test_first_orders_in_nanometers(self):
        # oracle: wavenumber arithmetic, AS1 at 12820 cm^-1, S1 at 11860 cm^-1
        cfg = make_config()
        as1 = wavelength_from_omega(sideband_frequency(cfg, SidebandLabel.anti_stokes(1)))
        s1 = wavelength_from_omega(sideband_frequency(cfg, SidebandLabel.stokes_order(1)))
        assert as1 * 1e9 == pytest.approx(1e7 / (PUMP_CM + SHIFT_CM), abs=1e-3)
        assert s1 * 1e9 == pytest.approx(1e7 / (PUMP_CM - 2 * SHIFT_CM), abs=1e-3)
        assert as1 * 1e9 == pytest.approx(780.0, abs=0.1)
        assert s1 * 1e9 == pytest.approx(843.2, abs=0.1)

    def test_ladder_reaches_twentieth_anti_stokes(self):
        cfg = make_config()
        omega = sideband_frequency(cfg, SidebandLabel.anti_stokes(20))
        assert omega > 0
        assert wavenumber_cm_from_omega(omega) == pytest.approx(
            PUMP_CM - SHIFT_CM + 21 * SHIFT_CM, rel=1e-12
        )

    def test_unphysical_stokes_extension_raises(self):
        cfg = make_config()
        n_limit = int((PUMP_CM - SHIFT_CM) / SHIFT_CM)
        with pytest.raises(NegativeFrequencyError):
            sideband_frequency(cfg, SidebandLabel.stokes_order(n_limit + 1))

    def test_affine_ladder_exact_on_dyadic_inputs(self):
        # dyadic rationals make every float operation exact, so the second
        # differences of the ladder must be exactly zero
        cfg = RamanConfig(
            omega_p=2.0**51 + 2.0**45,
            omega_s=2.0**51,
            ell_p=1,
            ell_s=-1,
            omega_raman=2.0**45,
            max_as=25,
            max_s=25,
        )
        omegas = [
            sideband_frequency(cfg, SidebandLabel.from_ladder_index(k)) for k in range(-25, 27)
        ]
        assert np.all(np.diff(omegas, 2) == 0.0)

    def test_affine_ladder_near_machine_epsilon_on_physical_inputs(self):
        cfg = make_config()
        omegas = np.array(
            [sideband_frequency(cfg, SidebandLabel.from_ladder_index(k)) for k in range(-20, 22)]
        )
        assert np.max(np.abs(np.diff(omegas, 2))) <= 4 * np.finfo(float).eps * omegas.max()


class TestCharges:
    def test_equal_seeds_give_order_independent_charge(self):
        cfg = make_config(ell_p=1, ell_s=1)
        for k in range(-20, 22):
            assert sideband_charge(cfg, SidebandLabel.from_ladder_index(k)) == 1

    def test_opposite_seeds_give_odd_ladder(self):
        cfg = make_config(ell_p=1, ell_s=-1)
        for n in range(1, 21):
            assert sideband_charge(cfg, SidebandLabel.anti_stokes(n)) == 2 * n + 1
            assert sideband_charge(cfg, SidebandLabel.stokes_order(n)) == -(2 * n + 1)
        ladder = [
            sideband_charge(cfg, SidebandLabel.from_ladder_index(k)) for k in (-2, -1, 0, 1, 2, 3)
        ]
        assert ladder == [-5, -3, -1, 1, 3, 5]

    def test_zero_seeds_stay_zero(self):
        cfg = make_config(ell_p=0, ell_s=0)
        for k in range(-15, 17):
            assert sideband_charge(cfg, SidebandLabel.from_ladder_index(k)) == 0


class TestRecursion:
    def test_first_two_anti_stokes_match_hand_arithmetic(self):
        cfg = make_config(ell_p=1, ell_s=-1)
        _, ell1 = cascade_phase_recursion(cfg, SidebandLabel.anti_stokes(1))
        _, ell2 = cascade_phase_recursion(cfg, SidebandLabel.anti_stokes(2))
        assert ell1 == 2 * 1 - (-1) == 3
        assert ell2 == 1 + ell1 - (-1) == 5

    def test_recursion_equals_closed_forms_exhaustively(self):
        for ell_p in range(-3, 4):
            for ell_s in range(-3, 4):
                cfg = make_config(ell_p=ell_p, ell_s=ell_s, max_as=25, max_s=25)
                for k in range(-25, 27):
                    label = SidebandLabel.from_ladder_index(k)
                    try:
                        omega_c = sideband_frequency(cfg, label)
                    except NegativeFrequencyError:
                        with pytest.raises(NegativeFrequencyError):
                            cascade_phase_recursion(cfg, label)
                        continue
                    omega_r, ell_r = cascade_phase_recursion(cfg, label)
                    assert ell_r == sideband_charge(cfg, label)
                    assert omega_r == pytest.approx(omega_c, rel=1e-12)


class TestConservation:
    def test_equal_seeds(self):
        assert conservation_check(make_config(ell_p=1, ell_s=1), 5)

    def test_opposite_seeds_second_order(self):
        cfg = make_config(ell_p=1, ell_s=-1)
        assert sideband_charge(cfg, SidebandLabel.stokes_order(2)) == -5
        assert sideband_charge(cfg, SidebandLabel.anti_stokes(2)) == 5
        assert conservation_check(cfg, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10, 10), st.integers(-10, 10), st.integers(1, 25))
    def test_random_charges(self, ell_p, ell_s, n):
        assert conservation_check(make_config(ell_p=ell_p, ell_s=ell_s), n)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            conservation_check(make_config(), 0)


class TestSpatialSideband:
    def setup_method(self):
        self.spec = GridSpec.square(256, 25e-6)
        cfg = make_config()
        self.lam_p = wavelength_from_omega(cfg.omega_p)
        self.lam_s = wavelength_from_omega(cfg.omega_s)

    def pump(self, ell):
        return lg_mode_field(LGModeIndex(0, ell), BeamParams(0.8e-3, self.lam_p), self.spec)

    def stokes(self, ell):
        return lg_mode_field(LGModeIndex(0, ell), BeamParams(0.8e-3, self.lam_s), self.spec)

    def test_equal_charges_all_orders_carry_one(self):
        out = spatial_sideband(self.pump(1), self.stokes(1), SidebandLabel.anti_stokes(1))
        assert measure_charge_circulation(out, 0.55e-3) == 1

    def test_opposite_charges_second_order_carries_five(self):
        out = spatial_sideband(self.pump(1), self.stokes(-1), SidebandLabel.anti_stokes(2))
        assert measure_charge_circulation(out, 0.55e-3) == 5

    def test_gaussian_inputs_stay_gaussian(self):
        out = spatial_sideband(self.pump(0), self.stokes(0), SidebandLabel.anti_stokes(3))
        assert measure_charge_circulation(out, 0.5e-3) == 0
        assert ring_radius(out) == 0.0
        assert out.power == pytest.approx(1.0, rel=1e-9)

    def test_output_frequency_tag(self):
        out = spatial_sideband(self.pump(1), self.stokes(-1), SidebandLabel.anti_stokes(1))
        expect_cm = PUMP_CM + SHIFT_CM
        got_cm = 1e-2 / out.wavelength
        assert got_cm == pytest.approx(expect_cm, rel=1e-9)

    def test_spatial_engine_agrees_with_integer_engine(self):
        # every combination |ell_p|, |ell_s| <= 2 and order n <= 3
        spec = GridSpec.square(512, 25e-6)
        for ell_p in range(-2, 3):
            for ell_s in range(-2, 3):
                cfg = make_config(ell_p=ell_p, ell_s=ell_s)
                pump = lg_mode_field(LGModeIndex(0, ell_p), BeamParams(1e-3, self.lam_p), spec)
                stokes = lg_mode_field(LGModeIndex(0, ell_s), BeamParams(1e-3, self.lam_s), spec)
                for k in range(-3, 5):
                    label = SidebandLabel.from_ladder_index(k)
                    out = spatial_sideband(pump, stokes, label)
                    loop = max(ring_radius(out), 0.5e-3)
                    assert measure_charge_circulation(out, loop) == sideband_charge(cfg, label), (
                        ell_p,
                        ell_s,
                        str(label),
                    )

    def test_grid_mismatch_rejected(self):
        other = GridSpec.square(128, 25e-6)
        stokes = lg_mode_field(LGModeIndex(0, 1), BeamParams(0.8e-3, self.lam_s), other)
        with pytest.raises(GridMismatchError):
            spatial_sideband(self.pump(1), stokes, SidebandLabel.anti_stokes(1))

    def test_disjoint_beams_rejected(self):
        pump = self.pump(0)
        shifted = pump.with_values(np.roll(pump.values, self.spec.nx // 2, axis=1))
        stokes = self.stokes(0)
        with pytest.raises(DegenerateOverlapError):
            spatial_sideband(shifted, stokes, SidebandLabel.anti_stokes(2))

    def test_observed_rings_grow_with_order_for_opposite_seeds(self):
        pump, stokes = self.pump(1), self.stokes(-1)
        radii = [
            ring_radius(observed_sideband(pump, stokes, SidebandLabel.from_ladder_index(k), oversample=2))
            for k in (1, 2, 3)
        ]
        assert radii[0] < radii[1] < radii[2]

    def test_source_plane_rings_do_not_grow(self):
        # the interaction-plane product has an order-independent peak radius
        # w/sqrt(2); the growth belongs to the observation plane
        pump, stokes = self.pump(1), self.stokes(-1)
        radii = [
            ring_radius(spatial_sideband(pump, stokes, SidebandLabel.from_ladder_index(k)))
            for k in (1, 2, 3)
        ]
        for r in radii:
            assert r == pytest.approx(0.8e-3 / math.sqrt(2.0), rel=0.05)


class TestComb:
    def test_twenty_anti_stokes_channels(self):
        comb = build_comb(make_config())
        as_channels = [c for c in comb if str(c.label).startswith("AS")]
        assert len(as_channels) == 20
        assert len(comb) == 42  # S20..S, P, AS1..AS20

    def test_uniform_amplitudes(self):
        comb = build_comb(make_config(), uniform_amplitudes)
        mags = {abs(c.amplitude) for c in comb}
        assert mags == {1.0}

    def test_geometric_amplitudes_step_by_ratio(self):
        comb = build_comb(make_config(), geometric_amplitudes(0.5))
        by_k = {c.k: abs(c.amplitude) for c in comb}
        assert by_k[0] == by_k[1] == 1.0
        for k in range(1, 21):
            assert by_k[k + 1] / by_k[k] == pytest.approx(0.5)
        for k in range(0, -20, -1):
            assert by_k[k - 1] / by_k[k] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "n, ks", [(41, range(-20, 21)), (2, range(-1, 1)), (1, range(0, 1))]
    )
    def test_window_matches_pulse_channels(self, n, ks):
        # reference: the n flat channels centred on the Stokes/pump pair,
        # k = -(n // 2) .. -(n // 2) + n - 1, as the pulse command uses them
        cfg = make_config()
        expected = []
        for k in range(-(n // 2), -(n // 2) + n):
            label = SidebandLabel.from_ladder_index(k)
            expected.append(
                (label, sideband_frequency(cfg, label), sideband_charge(cfg, label), 1.0 + 0.0j)
            )
        comb = build_comb(cfg, uniform_amplitudes, ks)
        assert [(c.label, c.omega, c.ell, c.amplitude) for c in comb] == expected

    def test_channels_sorted_and_affine(self):
        comb = build_comb(make_config(ell_p=1, ell_s=-1))
        ks = [c.k for c in comb]
        assert ks == sorted(ks)
        omegas = np.array([c.omega for c in comb])
        assert np.all(np.diff(omegas) > 0)
        ells = np.array([c.ell for c in comb])
        assert np.all(np.diff(ells, 2) == 0)

    def test_detuning_warns(self):
        with pytest.warns(DetuningWarning):
            RamanConfig(
                omega_p=omega_from_wavenumber_cm(PUMP_CM),
                omega_s=omega_from_wavenumber_cm(PUMP_CM - 2 * SHIFT_CM),
                ell_p=1,
                ell_s=1,
                omega_raman=omega_from_wavenumber_cm(SHIFT_CM),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RamanConfig(1.0, 2.0, 0, 0, 1.0)
