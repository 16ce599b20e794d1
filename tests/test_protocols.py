import math

import numpy as np
import pytest

from qndsim.detection import IDEAL, DetectorModel, PatternTable
from qndsim.fock import Channel, FockState
from qndsim.protocols import (
    KerrStrengthParams,
    NumberInputSpec,
    PdcSourceSpec,
    PolarizationAngle,
    kerr_qnd,
    kerr_tau,
    noon_bound,
    number_qnd,
    pdc_state,
    pol_device_transform,
    pol_fidelity_approx,
    pol_qnd,
    teleport_number_qnd,
    teleport_pol_qnd,
)
from qndsim.fock import Mode
from qndsim import protocols

PURE_ONE = NumberInputSpec(0.0, 1.0, 0.0)
PURE_TWO = NumberInputSpec(0.0, 0.0, 1.0)


def exact_number_fidelity(eta2: float) -> float:
    """Exact conditional fidelity of the four-mode device, derived from the
    POVM structure (and cross-checked against the loss-ancilla oracle in
    test_detection): every two-photon-loss pattern feeding |0> is the
    one-photon pattern with one extra lost photon, so the vacuum-to-target
    weight ratio is (1 - eta2) in every branch and the fidelity is
    1 / (2 - eta2), independent of the two-photon fraction."""
    return 1.0 / (2.0 - eta2)


def exact_pol_fidelity(gamma: float, eta2: float) -> float:
    """Exact conditional fidelity of the six-channel device at the diagonal
    polarization, from an independent symbolic evaluation of the conditioned
    output (weights below are in units of eta^8; x is the per-photon loss)."""
    x = 1.0 - eta2
    c1s, c2s = 1.0 / (1.0 + gamma), gamma / (1.0 + gamma)
    w_theta = 16.0 * c1s / 729.0 + 112.0 * c2s * x / 2187.0
    w_perp = 64.0 * c2s * x / 2187.0
    w_vac = 8.0 * c1s * x / 729.0 + 136.0 * c2s * x**2 / 2187.0
    return w_theta / (w_theta + w_perp + w_vac)


def bloch_sample(count: int):
    """Deterministic quasi-uniform sample of polarization states."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(count):
        theta = math.acos(1.0 - 2.0 * (i + 0.5) / count)
        yield PolarizationAngle.from_bloch(theta, golden * i)


class TestInputSpecs:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            NumberInputSpec(0.5, 0.5, 0.5)

    def test_gamma(self):
        spec = NumberInputSpec.from_gamma(10.0)
        assert spec.gamma == pytest.approx(10.0)
        assert abs(spec.c1) ** 2 + abs(spec.c2) ** 2 == pytest.approx(1.0)
        assert NumberInputSpec(1.0, 0.0, 0.0).gamma == 0.0

    def test_from_gamma_with_vacuum(self):
        spec = NumberInputSpec.from_gamma(1.0, c0=0.5)
        assert abs(spec.c0) ** 2 == pytest.approx(0.25)
        assert spec.gamma == pytest.approx(1.0)

    def test_polarization_angle(self):
        with pytest.raises(ValueError):
            PolarizationAngle(1.0, 1.0)
        diag = PolarizationAngle.diagonal()
        assert abs(diag.alpha * diag.beta) ** 2 == pytest.approx(0.25)
        avg = PolarizationAngle.bloch_average()
        assert abs(avg.alpha * avg.beta) ** 2 == pytest.approx(1.0 / 6.0)

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError):
            NumberInputSpec(0.0, math.nan, 0.0)

    def test_non_finite_gamma_rejected(self):
        for gamma in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                NumberInputSpec.from_gamma(gamma)

    def test_nan_polarization_rejected(self):
        with pytest.raises(ValueError):
            PolarizationAngle.from_bloch(math.nan)

    @pytest.mark.parametrize("theta, phi", [(math.inf, 0.0), (-math.inf, 0.0),
                                            (math.nan, 0.0), (1.1, math.inf), (0.0, math.nan)])
    def test_non_finite_bloch_angles_rejected(self, theta, phi):
        with pytest.raises(ValueError, match="Bloch angles must be finite"):
            PolarizationAngle.from_bloch(theta, phi)

    def test_pdc_source(self):
        with pytest.raises(ValueError):
            PdcSourceSpec(0.0)
        assert PdcSourceSpec(0.01).p_pdc == pytest.approx(1e-4)


class TestEvolvedDevice:
    def test_nan_probability_raises(self):
        a, b = Channel("a"), Channel("b")
        table = PatternTable((a,), (b,), {(1,): (math.nan, {(1,): 1.0})})
        device = protocols.EvolvedDevice(table, (1,), FockState.basis((b,), (1,)))
        with pytest.raises(ValueError, match="NaN"):
            device.outcome()


class TestNumberQnd:
    def test_success_at_half_transmission(self):
        out = number_qnd(PURE_ONE, 0.5)
        assert out.success_probability == pytest.approx(1 / 8, abs=1e-12)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_success_at_third_transmission(self):
        out = number_qnd(PURE_ONE, 1 / 3)
        assert out.success_probability == pytest.approx(4 / 27, abs=1e-12)

    def test_success_scales_as_t_times_reflection_squared(self):
        for t in (0.2, 0.45, 0.7):
            out = number_qnd(PURE_ONE, t)
            assert out.success_probability == pytest.approx(t * (1 - t) ** 2, abs=1e-12)

    def test_two_photon_rejected(self):
        for t in (0.3, 0.5, 0.8):
            assert number_qnd(PURE_TWO, t).success_probability <= 1e-12

    def test_vacuum_rejected(self):
        out = number_qnd(NumberInputSpec(1.0, 0.0, 0.0), 0.5)
        assert out.success_probability <= 1e-12

    def test_degenerate_transmission(self):
        with pytest.raises(ValueError):
            number_qnd(PURE_ONE, 0.0)

    def test_lossy_fidelity_matches_derived_law(self):
        for eta2 in (0.5, 0.7, 0.88, 0.95):
            det = DetectorModel(eta2)
            for gamma in (0.0, 0.1, 1.0, 10.0):
                out = number_qnd(NumberInputSpec.from_gamma(gamma), 0.5, det)
                assert out.fidelity == pytest.approx(
                    exact_number_fidelity(eta2), abs=1e-12
                )

    def test_fidelity_gamma_independent(self):
        det = DetectorModel(0.88)
        values = {
            number_qnd(NumberInputSpec.from_gamma(g), 0.5, det).fidelity
            for g in (0.0, 0.5, 5.0)
        }
        assert max(values) - min(values) < 1e-12

    def test_ideal_detectors_unit_fidelity_any_gamma(self):
        for gamma in (0.0, 1.0, 10.0):
            out = number_qnd(NumberInputSpec.from_gamma(gamma), 0.5)
            assert out.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_output_lives_in_heralded_mode(self):
        out = number_qnd(PURE_ONE, 0.5)
        assert out.target.channels == (Channel("b"),)
        assert out.conditional_output.channels == (Channel("b"),)


class TestPolQnd:
    def test_ideal_success_and_fidelity(self):
        out = pol_qnd(PURE_ONE, PolarizationAngle.diagonal())
        assert out.success_probability == pytest.approx((4 / 27) ** 2, abs=1e-12)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_theta_invariance_20_points(self):
        for angle in bloch_sample(20):
            out = pol_qnd(PURE_ONE, angle)
            assert out.success_probability == pytest.approx((4 / 27) ** 2, abs=1e-9)
            assert abs(out.fidelity - 1.0) < 1e-12

    def test_two_photon_rejected(self):
        out = pol_qnd(PURE_TWO, PolarizationAngle.diagonal())
        assert out.success_probability <= 1e-12

    def test_device_matrix_unitary(self):
        u = np.asarray(pol_device_transform().matrix)
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-12

    def test_lossy_fidelity_matches_derived_law(self):
        det = DetectorModel(0.88)
        for gamma in (0.0, 0.1, 1.0, 10.0):
            out = pol_qnd(
                NumberInputSpec.from_gamma(gamma), PolarizationAngle.diagonal(), det
            )
            assert out.fidelity == pytest.approx(
                exact_pol_fidelity(gamma, 0.88), abs=1e-12
            )

    def test_lossy_success_scales_with_efficiency_at_gamma_zero(self):
        # all heralding patterns of the one-photon branch carry four photons,
        # so the gamma=0 success scales as eta^8 plus the single-loss term
        det = DetectorModel(0.9)
        out = pol_qnd(PURE_ONE, PolarizationAngle.diagonal(), det)
        x = 0.1
        assert out.success_probability == pytest.approx(
            0.9**4 * (16 / 729 + 8 * x / 729), abs=1e-12
        )


class TestPolFidelityApprox:
    def test_perfect_detectors(self):
        assert pol_fidelity_approx(0.0, 1.0) == pytest.approx(1.0)

    def test_reference_points(self):
        eta = math.sqrt(0.88)
        assert pol_fidelity_approx(0.0, eta) == pytest.approx(0.9858, abs=5e-5)
        assert pol_fidelity_approx(1.0, eta) == pytest.approx(0.9467, abs=5e-5)


class TestPdcState:
    def test_small_epsilon_is_nearly_vacuum(self):
        p1, p2 = Mode("p1", polarized=True), Mode("p2", polarized=True)
        st = pdc_state(PdcSourceSpec(1e-4), (p1, p2))
        assert abs(st.amplitude((0, 0, 0, 0))) == pytest.approx(1.0, abs=1e-6)

    def test_singlet_amplitudes(self):
        p1, p2 = Mode("p1", polarized=True), Mode("p2", polarized=True)
        eps = 0.01
        st = pdc_state(PdcSourceSpec(eps), (p1, p2))
        # ratio of pair to vacuum amplitude survives renormalization
        ratio = st.amplitude((1, 0, 0, 1)) / st.amplitude((0, 0, 0, 0))
        assert ratio == pytest.approx(eps / math.sqrt(2) / (1 - eps**2))
        assert st.amplitude((0, 1, 1, 0)) == pytest.approx(-st.amplitude((1, 0, 0, 1)))

    def test_normalized(self):
        p1, p2 = Mode("p1", polarized=True), Mode("p2", polarized=True)
        st = pdc_state(PdcSourceSpec(0.3), (p1, p2))
        assert st.norm() == pytest.approx(1.0, abs=1e-12)


class TestTeleportPol:
    def test_perfect_for_single_photon_input(self):
        src = PdcSourceSpec(0.01)
        out = teleport_pol_qnd(PURE_ONE, PolarizationAngle.bloch_average(), src)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        # both analyzer outcomes fire: half the pair probability
        eps = src.epsilon
        norm_sq = (1 - eps**2) ** 2 + eps**2
        assert out.success_probability == pytest.approx(
            eps**2 / 2 / norm_sq, abs=1e-15
        )

    def test_exact_theta_resolved_fidelity(self):
        """Frozen exact law: false acceptance of the two-photon branch is
        (1/2 + |alpha beta|^2) |c2|^2 times the squared vacuum amplitude."""
        src = PdcSourceSpec(0.01)
        eps2 = src.epsilon**2
        vac_sq = (1 - eps2) ** 2
        for angle in (PolarizationAngle.diagonal(), PolarizationAngle.bloch_average(),
                      PolarizationAngle.from_bloch(0.3, 1.1)):
            ab2 = abs(angle.alpha * angle.beta) ** 2
            for gamma in (0.01, 1.0, 100.0):
                spec = NumberInputSpec.from_gamma(gamma)
                c1s, c2s = abs(spec.c1) ** 2, abs(spec.c2) ** 2
                good = eps2 * c1s / 2
                false = c2s * vac_sq * (0.5 + ab2)
                out = teleport_pol_qnd(spec, angle, src)
                assert out.fidelity == pytest.approx(good / (good + false), rel=1e-12)

    def test_two_photon_dominated_fidelity_vanishes(self):
        out = teleport_pol_qnd(
            NumberInputSpec.from_gamma(100.0), PolarizationAngle.diagonal(),
            PdcSourceSpec(0.001),
        )
        assert out.fidelity < 1e-5

    def test_output_channels(self):
        out = teleport_pol_qnd(PURE_ONE, PolarizationAngle.diagonal(), PdcSourceSpec(0.1))
        assert out.target.channels == Mode("p2", polarized=True).channels


class TestTeleportNumber:
    def test_single_photon_component_teleports(self):
        out = teleport_number_qnd(PURE_ONE, PdcSourceSpec(0.01))
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.success_probability > 0

    def test_vacuum_never_coincides(self):
        out = teleport_number_qnd(NumberInputSpec(1.0, 0.0, 0.0), PdcSourceSpec(0.01))
        assert out.success_probability == pytest.approx(0.0, abs=1e-15)

    def test_two_photon_false_acceptance_is_strictly_positive(self):
        # the documented contrast with the interferometric devices
        out = teleport_number_qnd(PURE_TWO, PdcSourceSpec(0.01))
        assert out.success_probability > 0.4
        assert out.fidelity == pytest.approx(0.0, abs=1e-12)

    def test_two_photon_dominated_fidelity_vanishes_with_epsilon(self):
        out = teleport_number_qnd(NumberInputSpec.from_gamma(100.0), PdcSourceSpec(0.001))
        assert out.fidelity < 1e-6


class TestKerrQnd:
    def test_pi_phase_routes_single_photon_to_d2(self):
        out = kerr_qnd(PURE_ONE, math.pi)
        assert out.success_probability == pytest.approx(1.0, abs=1e-12)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_signal_routes_to_d1(self):
        out = kerr_qnd(NumberInputSpec(1.0, 0.0, 0.0), math.pi)
        assert out.success_probability == pytest.approx(0.0, abs=1e-12)

    def test_no_coupling_no_information(self):
        out = kerr_qnd(PURE_ONE, 0.0)
        assert out.success_probability == pytest.approx(0.0, abs=1e-12)

    def test_half_phase_splits_probe(self):
        out = kerr_qnd(PURE_ONE, math.pi / 2)
        assert out.success_probability == pytest.approx(0.5, abs=1e-12)

    def test_two_photon_signal_has_even_parity_at_pi(self):
        out = kerr_qnd(PURE_TWO, math.pi)
        assert out.success_probability == pytest.approx(0.0, abs=1e-12)

    def test_lossy_detector_scales_success(self):
        s = 1 / math.sqrt(3)
        out = kerr_qnd(NumberInputSpec(s, s, s), math.pi, DetectorModel(0.88))
        assert out.success_probability == pytest.approx(0.88 / 3, abs=1e-12)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)


class TestCalculators:
    def test_kerr_tau_reference_parameters(self):
        value = kerr_tau(KerrStrengthParams(3e15, 3e-11, 2e-22, 1e-7))
        assert value == pytest.approx(1.6e-18, rel=0.01)

    def test_kerr_tau_inverse_volume(self):
        a = kerr_tau(KerrStrengthParams(3e15, 3e-11, 2e-22, 1e-7))
        b = kerr_tau(KerrStrengthParams(3e15, 3e-11, 2e-22, 2e-7))
        assert a == pytest.approx(2 * b)

    def test_kerr_tau_constants_match_scipy(self):
        from scipy import constants

        assert protocols._HBAR == constants.hbar
        assert protocols._EPSILON_0 == constants.epsilon_0

    def test_kerr_params_validation(self):
        with pytest.raises(ValueError):
            KerrStrengthParams(-1.0, 1.0, 1.0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                KerrStrengthParams(1.0, 1.0, 1.0, bad)

    def test_noon_bound(self):
        assert noon_bound(1) == math.pi / 2
        assert noon_bound(2) == pytest.approx(math.pi / 4)
        assert noon_bound(100) == pytest.approx(math.pi / 200)
        with pytest.raises(ValueError):
            noon_bound(0)
