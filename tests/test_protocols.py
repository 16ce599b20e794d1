import math

import numpy as np
import pytest

from qndsim.detection import (
    IDEAL,
    DetectorModel,
    PatternTable,
    TargetOverlaps,
    condition,
    pattern_table,
    reweight,
)
from qndsim.fock import Channel, FockState, MixedState, tensor
from qndsim.optics import (
    BeamSplitterSpec,
    KerrGateSpec,
    apply,
    beam_splitter,
    compose,
    kerr_gate,
)
from qndsim.protocols import (
    KerrStrengthParams,
    NumberInputSpec,
    PdcSourceSpec,
    PolarizationAngle,
    kerr_qnd,
    kerr_tau,
    noon_bound,
    number_device_transform,
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

    def test_from_bloch_matches_numpy_exp_bit_for_bit(self):
        rng = np.random.default_rng(67)
        phis = [0.0, -0.0, math.pi, -math.pi, 1e-300, 1e300] + rng.uniform(-50, 50, 200).tolist()
        for theta, phi in zip(rng.uniform(0.0, math.pi, len(phis)).tolist(), phis):
            beta = PolarizationAngle.from_bloch(theta, phi).beta
            ref = complex(np.exp(1j * phi)) * math.sin(theta / 2.0)
            assert (beta.real.hex(), beta.imag.hex()) == (ref.real.hex(), ref.imag.hex()), phi

    def test_pdc_source(self):
        with pytest.raises(ValueError):
            PdcSourceSpec(0.0)
        with pytest.raises(ValueError):
            PdcSourceSpec(1.0)
        assert PdcSourceSpec(0.01).epsilon == 0.01


class TestEvolvedDevice:
    def test_nan_probability_raises(self):
        a, b = Channel("a"), Channel("b")
        table = PatternTable((a,), (b,), {(1,): (math.nan, {(1,): 1.0})})
        device = protocols.EvolvedDevice(table, (1,), FockState.basis((b,), (1,)))
        with pytest.raises(ValueError, match="NaN"):
            device.outcome()


def splitter_chain(transmission):
    """Reference: the four-mode network as the three splitters it is made of."""
    a, b, c, d = (Channel(name) for name in "abcd")
    spec = BeamSplitterSpec(transmission)
    net = beam_splitter(BeamSplitterSpec(0.5), c, d)
    net = compose(net, beam_splitter(spec, c, a))
    net = compose(net, beam_splitter(spec, d, b))
    return net.embedded((a, b, c, d))


def exact_matrix(t):
    """Channels, then every entry's two float parts as exact bits."""
    return t.channels, [(z.real.hex(), z.imag.hex()) for z in t.matrix.ravel().tolist()]


class TestNumberDeviceTransform:
    @pytest.mark.parametrize("transmission", [
        0.0, 1e-12, 1 / 3, 0.37, 0.5, 1 - 1e-12, 1.0,
        *np.random.default_rng(19).random(40).tolist(),
    ])
    def test_matches_splitter_chain_bit_for_bit(self, transmission):
        assert exact_matrix(number_device_transform(transmission)) == exact_matrix(
            splitter_chain(transmission))

    @pytest.mark.parametrize("transmission", [math.nan, -0.1, 1.5, math.inf])
    def test_bad_transmission_rejected(self, transmission):
        with pytest.raises(ValueError, match="transmission out of range"):
            number_device_transform(transmission)


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

    @pytest.mark.parametrize("gamma, eta2", [(1.7e308, 1.0), (1.7e308, 0.5), (1e308, 0.0)])
    def test_overflowing_term_raises(self, gamma, eta2):
        with pytest.raises(ValueError, match="overflows"):
            pol_fidelity_approx(gamma, math.sqrt(eta2))


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


def teleport_by_reweight(input_amps, src, target_amps):
    """Reference: the partial Bell analyzer as six `reweight` calls with ideal
    detectors, one per accepted pattern."""
    signal = FockState(protocols._TS.channels, input_amps)
    state = tensor(signal, pdc_state(src, (protocols._TP1, protocols._TP2)))
    state = apply(beam_splitter(BeamSplitterSpec(0.5), protocols._TS, protocols._TP1), state)
    table = pattern_table(state, protocols._TS.channels + protocols._TP1.channels)
    total, branches = 0.0, []
    for pattern, correct in protocols._BELL_PATTERNS:
        prob, out = reweight(table, pattern)
        total += prob
        for w, st in out.branches:
            branches.append((w, protocols._sigma_z(st, protocols._TP2_V) if correct else st))
    out = MixedState(tuple(branches))
    target = FockState(protocols._TP2.channels, target_amps)
    return protocols._outcome(total, out, TargetOverlaps(target), out.total_weight())


def exact_protocol_outcome(outc):
    """Probability, fidelity, then each branch's weight and amplitudes, as bits."""
    return (outc.success_probability.hex(), outc.fidelity.hex(), [
        (w.hex(), [(occ, a.real.hex(), a.imag.hex()) for occ, a in st.amplitudes.items()])
        for w, st in outc.conditional_output.branches])


def seeded_teleport_cases(count):
    """(input, angle, source) triples: fixed edge inputs, then seeded random ones."""
    rng = np.random.default_rng(47)
    edges = [PURE_ONE, PURE_TWO, NumberInputSpec(1.0, 0.0, 0.0)]
    for i in range(count):
        if i < len(edges):
            spec = edges[i]
        else:
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            c /= np.linalg.norm(c)
            spec = NumberInputSpec(*c.tolist())
        angle = PolarizationAngle.from_bloch(*(rng.random(2) * [math.pi, 2 * math.pi]))
        yield spec, angle, PdcSourceSpec(float(rng.uniform(1e-3, 0.9)))


class TestTeleportLookups:
    """The analyzer reads its six ideal patterns straight from the table."""

    @pytest.mark.parametrize("device", ["number", "pol"])
    def test_matches_six_reweight_calls_bit_for_bit(self, monkeypatch, device):
        cases = list(seeded_teleport_cases(40))
        if device == "number":
            run = teleport_number_qnd
            expected = [teleport_by_reweight(
                {(0, 0): spec.c0, (1, 0): spec.c1, (2, 0): spec.c2}, src, {(1, 0): 1.0})
                for spec, _, src in cases]
            calls = [(spec, src) for spec, _, src in cases]
        else:
            run = teleport_pol_qnd
            expected = [teleport_by_reweight(
                protocols._pol_input_amplitudes(spec, angle), src,
                {(1, 0): angle.alpha, (0, 1): angle.beta})
                for spec, angle, src in cases]
            calls = cases

        def no_reweight(*args):
            raise AssertionError("teleport called reweight")

        monkeypatch.setattr(protocols, "reweight", no_reweight)
        for args, ref in zip(calls, expected):
            assert exact_protocol_outcome(run(*args)) == exact_protocol_outcome(ref), args


class TestTeleportSector:
    """Only the input kets with two photons on (in, p1) can herald."""

    def test_every_bell_pattern_holds_two_photons(self):
        assert all(sum(pattern) == 2 for pattern, _ in protocols._BELL_PATTERNS)

    @pytest.mark.parametrize("device, kets", [("number", 3), ("pol", 7)])
    def test_apply_receives_the_two_photon_sector(self, monkeypatch, device, kets):
        seen = []

        def counting_apply(t, state, floor=None):
            seen.append(len(state.amplitudes))
            return apply(t, state, floor)

        monkeypatch.setattr(protocols, "apply", counting_apply)
        spec, src = NumberInputSpec(0.6, 0.48, 0.64), PdcSourceSpec(0.3)
        if device == "number":
            teleport_number_qnd(spec, src)
        else:
            teleport_pol_qnd(spec, PolarizationAngle.from_bloch(1.1, 0.4), src)
        assert seen == [kets]


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


K_P, K_W, K_S = Channel("probe"), Channel("arm"), Channel("signal")


def kerr_unheralded(input, tau, det):
    """Reference: the Kerr device with its 50:50 splitters built on every call
    and the whole output evolved, conditioned as before."""
    state = FockState((K_P, K_W, K_S), {
        (1, 0, 0): input.c0, (1, 0, 1): input.c1, (1, 0, 2): input.c2})
    half = BeamSplitterSpec(0.5)
    state = apply(beam_splitter(half, K_P, K_W), state)
    state = kerr_gate(KerrGateSpec(tau), K_W, K_S, state)
    state = apply(beam_splitter(half, K_P, K_W), state)
    prob, out = condition(state, {K_P: 1, K_W: 0}, det)
    return protocols._outcome(prob, out, TargetOverlaps(FockState.basis((K_S,), (1,))))


class TestKerrHerald:
    """The second splitter expands only the kets with the probe photon at D2."""

    @pytest.mark.parametrize("counting", [True, False], ids=["counting", "threshold"])
    def test_matches_full_evolution_bit_for_bit(self, counting):
        rng = np.random.default_rng(83)
        specs = [PURE_ONE, PURE_TWO, NumberInputSpec(1.0, 0.0, 0.0)]
        for _ in range(12):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            specs.append(NumberInputSpec(*(c / np.linalg.norm(c)).tolist()))
        taus = [0.0, math.pi, 2 * math.pi] + rng.uniform(-10.0, 10.0, 3).tolist()
        for eta2 in (0.0, 5e-324, 1e-160, 0.5, 1.0):
            det = DetectorModel(eta2, counting)
            for spec in specs:
                for tau in taus:
                    assert exact_protocol_outcome(kerr_qnd(spec, tau, det)) == (
                        exact_protocol_outcome(kerr_unheralded(spec, tau, det))), (spec, tau, eta2)


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
