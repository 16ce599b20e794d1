import itertools
import math
import re

import numpy as np
import pytest
from scipy.stats import unitary_group

from qndsim.circuits import parse_circuit
from qndsim.fock import Channel, FockState, Mode, ModeMismatchError
from qndsim.optics import (
    BeamSplitterSpec,
    KerrGateSpec,
    ModeTransform,
    NonUnitaryError,
    apply,
    beam_splitter,
    compose,
    identity_transform,
    kerr_gate,
    matrix_transform,
    phase_shifter,
    polarization_rotator,
    polarizing_beam_splitter,
)
from qndsim.protocols import number_device_transform, pol_device_transform

from test_fock import random_state

A, B, C, D = Channel("a"), Channel("b"), Channel("c"), Channel("d")
S2 = math.sqrt(2)


def unitarity_deviation(t: ModeTransform) -> float:
    u = np.asarray(t.matrix)
    return np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))


class TestBeamSplitter:
    def test_half_on_single_photon(self):
        t = beam_splitter(BeamSplitterSpec(0.5), A, B)
        out = apply(t, FockState.basis((A, B), (1, 0)))
        assert out.amplitude((1, 0)) == pytest.approx(1 / S2)
        assert out.amplitude((0, 1)) == pytest.approx(1 / S2)

    def test_half_second_input_sign(self):
        t = beam_splitter(BeamSplitterSpec(0.5), A, B)
        out = apply(t, FockState.basis((A, B), (0, 1)))
        assert out.amplitude((0, 1)) == pytest.approx(1 / S2)
        assert out.amplitude((1, 0)) == pytest.approx(-1 / S2)

    def test_full_transmission_is_identity(self):
        t = beam_splitter(BeamSplitterSpec(1.0), A, B)
        assert np.allclose(t.matrix, np.eye(2))

    def test_compose_equals_sequential_apply(self):
        t = beam_splitter(BeamSplitterSpec(0.5), A, B)
        both = compose(t, t)
        psi = FockState.basis((A, B), (1, 0))
        once = apply(both, psi)
        twice = apply(t, apply(t, psi))
        for occ in set(once.amplitudes) | set(twice.amplitudes):
            assert once.amplitude(occ) == pytest.approx(twice.amplitude(occ))

    def test_flip_moves_the_sign(self):
        t = beam_splitter(BeamSplitterSpec(0.5, flip=True), A, B)
        out = apply(t, FockState.basis((A, B), (1, 0)))
        assert out.amplitude((0, 1)) == pytest.approx(-1 / S2)

    def test_transmission_range(self):
        with pytest.raises(ValueError):
            BeamSplitterSpec(1.5)

    def test_polarized_inputs_get_same_block(self):
        m1, m2 = Mode("a", polarized=True), Mode("b", polarized=True)
        t = beam_splitter(BeamSplitterSpec(0.3), m1, m2)
        mat = np.asarray(t.matrix)
        # H and V blocks identical, no cross-polarization mixing
        assert mat[0, 0] == mat[1, 1]
        assert mat[0, 1] == 0 and mat[1, 0] == 0

    def test_mixed_polarization_rejected(self):
        with pytest.raises(ModeMismatchError):
            beam_splitter(BeamSplitterSpec(0.5), Mode("a", polarized=True), Mode("b"))

    def test_one_mode_twice_rejected(self):
        m = Mode("a", polarized=True)
        with pytest.raises(ModeMismatchError, match="beam splitter inputs must be distinct"):
            beam_splitter(BeamSplitterSpec(0.5), m, m)


class TestPhaseShifter:
    def test_zero_is_identity(self):
        assert np.allclose(phase_shifter(0.0, A).matrix, np.eye(1))

    def test_phases_compose_additively(self):
        t = compose(phase_shifter(0.3, A), phase_shifter(0.9, A))
        assert t.matrix[0, 0] == pytest.approx(np.exp(1.2j))

    def test_variant_convention_via_phase_shifts(self):
        # pi/2 on the second input and output, pi on the first output turns the
        # symmetric splitter into a -> (-p + i q)/sqrt2, b -> (i p - q)/sqrt2
        bs = beam_splitter(BeamSplitterSpec(0.5), A, B)
        t = compose(phase_shifter(math.pi / 2, B), bs)
        t = compose(t, phase_shifter(math.pi, A))
        t = compose(t, phase_shifter(math.pi / 2, B))
        expected = np.array([[-1, 1j], [1j, -1]]) / S2
        assert np.allclose(t.matrix, expected, atol=1e-12)


class TestPolarizationElements:
    def test_rotator_zero_identity(self):
        m = Mode("a", polarized=True)
        assert np.allclose(polarization_rotator(0.0, m).matrix, np.eye(2))

    def test_rotator_quarter_turn(self):
        m = Mode("a", polarized=True)
        t = polarization_rotator(math.pi / 2, m)
        out = apply(t, FockState.basis(m.channels, (1, 0)))
        assert abs(out.amplitude((0, 1))) == pytest.approx(1.0)

    def test_four_quarter_turns_identity(self):
        m = Mode("a", polarized=True)
        t = polarization_rotator(math.pi / 2, m)
        total = t
        for _ in range(3):
            total = compose(total, t)
        assert np.allclose(np.abs(total.matrix), np.eye(2), atol=1e-12)

    def test_rotator_needs_polarized_mode(self):
        with pytest.raises(ModeMismatchError):
            polarization_rotator(0.1, Mode("a"))

    def test_pbs_routing(self):
        m1, m2 = Mode("a", polarized=True), Mode("b", polarized=True)
        t = polarizing_beam_splitter(m1, m2)
        chans = m1.channels + m2.channels
        h_in = apply(t, FockState.basis(chans, (1, 0, 0, 0)))
        assert h_in.amplitude((1, 0, 0, 0)) == pytest.approx(1.0)
        v_in = apply(t, FockState.basis(chans, (0, 1, 0, 0)))
        assert v_in.amplitude((0, 0, 0, 1)) == pytest.approx(1.0)

    def test_pbs_splits_superposition(self):
        m1, m2 = Mode("a", polarized=True), Mode("b", polarized=True)
        t = polarizing_beam_splitter(m1, m2)
        chans = m1.channels + m2.channels
        alpha, beta = 0.6, 0.8
        st = FockState(chans, {(1, 0, 0, 0): alpha, (0, 1, 0, 0): beta})
        out = apply(t, st)
        assert out.amplitude((1, 0, 0, 0)) == pytest.approx(alpha)
        assert out.amplitude((0, 0, 0, 1)) == pytest.approx(beta)
        assert out.norm() == pytest.approx(1.0)

    def test_pbs_needs_polarized_modes(self):
        with pytest.raises(ModeMismatchError):
            polarizing_beam_splitter(Mode("a", polarized=True), Mode("b"))

    def test_pbs_one_mode_twice_rejected(self):
        m = Mode("a", polarized=True)
        with pytest.raises(ModeMismatchError, match="polarizing beam splitter inputs must be"):
            polarizing_beam_splitter(m, m)


class TestKerrGate:
    def test_no_probe_photon_no_phase(self):
        st = FockState.basis((A, B), (1, 0))
        out = kerr_gate(KerrGateSpec(1.234), A, B, st)
        assert out.amplitude((1, 0)) == pytest.approx(1.0)

    def test_pi_phase_on_pair(self):
        st = FockState.basis((A, B), (1, 1))
        out = kerr_gate(KerrGateSpec(math.pi), A, B, st)
        assert out.amplitude((1, 1)) == pytest.approx(-1.0)

    def test_phase_proportional_to_product(self):
        st = FockState.basis((A, B), (2, 1))
        out = kerr_gate(KerrGateSpec(math.pi / 2), A, B, st)
        assert out.amplitude((2, 1)) == pytest.approx(np.exp(-1j * math.pi))

    def test_missing_channel_rejected(self):
        with pytest.raises(ModeMismatchError, match="channel c not in state"):
            kerr_gate(KerrGateSpec(1.0), A, C, FockState.basis((A, B), (1, 1)))

    def test_repeated_channel_rejected(self):
        # exp(-i tau n_a n_a) is a self-phase, not the cross phase of two channels
        with pytest.raises(ModeMismatchError, match="distinct"):
            kerr_gate(KerrGateSpec(1.0), A, A, FockState.basis((A, B), (2, 1)))

    def test_non_finite_tau_rejected(self):
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError):
                KerrGateSpec(tau)

    def test_norm_and_photon_number_preserved(self):
        rng = np.random.default_rng(2)
        psi = random_state(rng, (A, B), 3, 4)
        out = kerr_gate(KerrGateSpec(0.7), A, B, psi)
        assert out.norm() == pytest.approx(1.0)
        assert set(out.amplitudes) == set(psi.amplitudes)

    def test_matches_numpy_exp_bit_for_bit(self):
        rng = np.random.default_rng(61)
        taus = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e-300, 1e300]
        taus += rng.uniform(-50.0, 50.0, 40).tolist() + rng.uniform(-1e6, 1e6, 20).tolist()
        # every occupation pair up to 4 photons per channel
        psi = FockState((A, B), {(na, nb): complex(rng.standard_normal(), rng.standard_normal())
                                 for na in range(5) for nb in range(5)})
        for tau in taus:
            spec = KerrGateSpec(tau)
            assert exact_items(kerr_gate(spec, A, B, psi).amplitudes) == exact_items(
                numpy_exp_kerr_gate(spec, A, B, psi).amplitudes), tau

    def test_overflowing_phase_raises(self):
        psi = FockState((A, B), {(1, 1): 0.6, (2, 2): 0.8})
        with pytest.raises(ValueError, match="cross phase"):
            kerr_gate(KerrGateSpec(1e308), A, B, psi)
        # the same tau passes while tau * n_a * n_b stays finite
        kerr_gate(KerrGateSpec(1e308), A, B, FockState.basis((A, B), (1, 1)))


def numpy_exp_kerr_gate(spec, a, b, state):
    """Reference: `kerr_gate` with numpy's complex exp, as the code once had it."""
    ia, ib = state.channels.index(a), state.channels.index(b)
    return FockState(state.channels, {
        occ: amp * complex(np.exp(-1j * spec.tau * occ[ia] * occ[ib]))
        for occ, amp in state.amplitudes.items()})


class TestComposeApply:
    def test_identity_neutral(self):
        t = beam_splitter(BeamSplitterSpec(0.4), A, B)
        assert np.allclose(compose(identity_transform((A, B)), t).matrix, t.matrix)

    def test_inverse_composes_to_identity(self):
        t = beam_splitter(BeamSplitterSpec(0.4), A, B)
        assert np.allclose(compose(t, t.dagger()).matrix, np.eye(2), atol=1e-12)

    def test_network_matches_closed_form_matrix(self):
        # the four-mode heralding network at T=1/2, against its closed form
        t = number_device_transform(0.5)
        expected = np.array(
            [
                [1 / S2, 0, 0.5, -0.5],
                [0, 1 / S2, 0.5, 0.5],
                [-1 / S2, 0, 0.5, -0.5],
                [0, -1 / S2, 0.5, 0.5],
            ]
        )
        assert t.channels == (A, B, C, D)
        assert np.allclose(t.matrix, expected, atol=1e-12)

    def test_compose_many_on_the_union_in_order_of_first_appearance(self):
        t1 = beam_splitter(BeamSplitterSpec(0.3), B, A)
        t2 = phase_shifter(0.7, C)
        t3 = beam_splitter(BeamSplitterSpec(0.6), D, B)
        t = compose(t1, t2, t3)
        assert t.channels == (B, A, C, D)
        psi = FockState((A, B, C, D), {(1, 1, 0, 0): 0.6, (0, 0, 1, 1): 0.8})
        once, step = apply(t, psi), apply(t3, apply(t2, apply(t1, psi)))
        assert once.amplitudes.keys() == step.amplitudes.keys()
        for occ, amp in step.amplitudes.items():
            assert once.amplitudes[occ] == pytest.approx(amp, abs=1e-12)

    def test_compose_of_one_is_its_padded_self(self):
        t = beam_splitter(BeamSplitterSpec(0.3), B, A)
        assert compose(t).channels == t.channels
        assert np.array_equal(compose(t).matrix, t.matrix)

    def test_matrix_from_nested_rows(self):
        rows = [[0, 1j], [1j, 0]]
        assert np.array_equal(matrix_transform((A, B), rows).matrix, np.array(rows))
        assert matrix_transform((), []).matrix.shape == (0, 0)

    @pytest.mark.parametrize("entry", [math.inf, -math.inf * 1j, math.nan, 1e200])
    def test_non_finite_or_huge_entry_rejected_without_warning(self, entry):
        # warnings are errors here: a product of these entries would warn
        with pytest.raises(NonUnitaryError, match="entry of magnitude"):
            matrix_transform((A, B), [[1, 0], [0, entry]])

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            matrix_transform((A, B), np.array([[1, 0], [1, 1]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"matrix shape \(3, 3\) for 2 channels"):
            ModeTransform((A, B), np.eye(3))

    def test_embedded_onto_channels_lacking_one_rejected(self):
        t = beam_splitter(BeamSplitterSpec(0.4), A, B)
        with pytest.raises(ModeMismatchError, match="cannot embed: b missing from target"):
            t.embedded((A, C, D))

    def test_embedded_onto_own_channels_is_self(self):
        t = beam_splitter(BeamSplitterSpec(0.4), A, B)
        assert t.embedded((A, B)) is t
        swapped = t.embedded((B, A))
        assert swapped.channels == (B, A)
        assert np.array_equal(swapped.matrix, t.matrix[::-1, ::-1])

    def test_apply_needs_known_channels(self):
        t = beam_splitter(BeamSplitterSpec(0.5), A, B)
        with pytest.raises(ModeMismatchError):
            apply(t, FockState.vacuum((C, D)))

    def test_overflowing_output_amplitude_rejected(self):
        # |1,0> + |0,1> at 1e154 each leaves sqrt(2)e154 on one port: |a|^2 overflows
        state = FockState((A, B), {(1, 0): 1e154, (0, 1): 1e154})
        with pytest.raises(ValueError, match=r"\|a\|\^2 overflows a float"):
            apply(beam_splitter(BeamSplitterSpec(0.5), A, B), state)

    def test_tiny_exact_amplitude_is_kept(self):
        # op 69 of circuit-evolve deck 0, seed 5110: only the |1,0,1,6> ket
        # (|amp| 0.15) feeds |1,0,0,7>, so nothing cancels there; its amplitude
        # is a product of small matrix entries and matches a 50-digit
        # permanent of the parsed matrix.  |a|^2 = 3.3e-31 lies under an
        # absolute 1e-30 cutoff but above the relative 1e-30 * 0.15^2.
        t = parse_circuit(
            "mode m0 pol\nmode m1\nmode m2\nps m2 phi=1.9531975791695635\n"
            "bs m2 m1 T=0.2896573151751394 flip\nrot m0 angle=4.566818788930159\n"
            "bs m2 m1 T=0.7350001037602576\nrot m0 angle=2.7623119503127125\n"
            "bs m2 m1 T=0.728411253996824\nbs m2 m1 T=0.32448731939041575 flip\n"
            "rot m0 angle=0.6357254910259804\nbs m1 m2 T=0.5956570109884997\n"
            "rot m0 angle=0.08702221383669347\nrot m0 angle=4.554402936539619\n"
            "ps m0 phi=4.766698308540065\n"
        )
        kets = {
            (1, 0, 1, 6): -0.15017518984329672 + 0.008233796046220458j,
            (1, 5, 0, 2): -0.8019020208508503 + 0.06194795602269354j,
            (3, 2, 0, 3): 0.10068985978673944 + 0.5660006791464639j,
        }
        out = apply(t, FockState(t.channels, kets))
        exact = 4.287497815775636e-16 + 3.78436807635108e-16j
        assert out.amplitudes[(1, 0, 0, 7)] == pytest.approx(exact, rel=1e-9)

    def test_apply_four_photons_on_splitter(self):
        t = beam_splitter(BeamSplitterSpec(0.5), A, B)
        out = apply(t, FockState.basis((A, B), (2, 2)))
        assert {sum(occ) for occ in out.amplitudes} == {4}
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        # |2,2> -> sqrt(3/8) (|4,0> + |0,4>) - 1/2 |2,2>, no odd splits
        assert abs(out.amplitude((4, 0))) ** 2 == pytest.approx(3 / 8, abs=1e-12)
        assert abs(out.amplitude((0, 4))) ** 2 == pytest.approx(3 / 8, abs=1e-12)
        assert abs(out.amplitude((2, 2))) ** 2 == pytest.approx(1 / 4, abs=1e-12)
        assert abs(out.amplitude((3, 1))) < 1e-12


    def test_input_ket_past_float_factorials_value_error(self):
        # 171! exceeds the largest float, so sqrt(171!) is refused by name
        t = beam_splitter(BeamSplitterSpec(0.5), A, B)
        with pytest.raises(ValueError, match=r"ket \(171, 0\): .*overflows a float"):
            apply(t, FockState.basis((A, B), (171, 0)))

    def test_output_ket_past_float_factorials_value_error(self):
        # |86,86> fits, but a 50:50 splitter reaches |172,0>, |171,1> and their mirrors
        t = beam_splitter(BeamSplitterSpec(0.5), A, B)
        with pytest.raises(ValueError, match=r"ket \((17[12], [01]|[01], 17[12])\): .*overflows"):
            apply(t, FockState.basis((A, B), (86, 86)))

    def test_one_hundred_seventy_photons_evolve(self):
        t = beam_splitter(BeamSplitterSpec(0.5), A, B)
        out = apply(t, FockState.basis((A, B), (170, 0)))
        assert {sum(occ) for occ in out.amplitudes} == {170}


class TestTwoPhotonInterference:
    """Exact expansion coefficients of the four-mode network at T=1/2."""

    def test_probe_pair_expansion(self):
        t = number_device_transform(0.5)
        out = apply(t, FockState.basis((A, B, C, D), (0, 0, 1, 1)))
        assert out.amplitude((0, 2, 0, 0)) == pytest.approx(S2 / 4, abs=1e-12)
        assert out.amplitude((2, 0, 0, 0)) == pytest.approx(-S2 / 4, abs=1e-12)
        assert out.amplitude((0, 0, 0, 2)) == pytest.approx(S2 / 4, abs=1e-12)
        assert out.amplitude((0, 0, 2, 0)) == pytest.approx(-S2 / 4, abs=1e-12)
        assert out.amplitude((1, 0, 1, 0)) == pytest.approx(-0.5, abs=1e-12)
        assert out.amplitude((0, 1, 0, 1)) == pytest.approx(0.5, abs=1e-12)
        # no coincidence amplitude across the two detector channels
        assert out.amplitude((0, 0, 1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_two_photon_input_expansion(self):
        t = number_device_transform(0.5)
        out = apply(t, FockState.basis((A, B, C, D), (2, 0, 0, 0)))
        assert out.amplitude((2, 0, 0, 0)) == pytest.approx(0.5, abs=1e-12)
        assert out.amplitude((0, 0, 2, 0)) == pytest.approx(0.5, abs=1e-12)
        assert out.amplitude((1, 0, 1, 0)) == pytest.approx(-1 / S2, abs=1e-12)


class TestProperties:
    def test_unitarity_of_constructed_transforms(self):
        transforms = [pol_device_transform()]
        for t_val in np.linspace(0.0, 1.0, 21):
            transforms.append(beam_splitter(BeamSplitterSpec(t_val), A, B))
        for t_val in np.linspace(0.05, 0.95, 10):
            transforms.append(number_device_transform(t_val))
        transforms.append(phase_shifter(0.37, A))
        transforms.append(polarization_rotator(0.7, Mode("a", polarized=True)))
        transforms.append(
            polarizing_beam_splitter(Mode("a", polarized=True), Mode("b", polarized=True))
        )
        for t in transforms:
            assert unitarity_deviation(t) < 1e-12

    def test_norm_preservation_1000_random_cases(self):
        rng = np.random.default_rng(42)
        channels = (A, B, C)
        for i in range(1000):
            u = unitary_group.rvs(3, random_state=rng)
            t = matrix_transform(channels, u)
            psi = random_state(rng, channels, 3, 3)
            assert abs(apply(t, psi).norm() - 1.0) < 1e-12

    def test_homomorphism(self):
        rng = np.random.default_rng(8)
        channels = (A, B, C)
        for _ in range(50):
            t1 = matrix_transform(channels, unitary_group.rvs(3, random_state=rng))
            t2 = matrix_transform(channels, unitary_group.rvs(3, random_state=rng))
            psi = random_state(rng, channels, 3, 3)
            once = apply(compose(t1, t2), psi)
            stepwise = apply(t2, apply(t1, psi))
            for occ in set(once.amplitudes) | set(stepwise.amplitudes):
                assert abs(once.amplitude(occ) - stepwise.amplitude(occ)) < 1e-10

    def test_photon_number_conserved(self):
        rng = np.random.default_rng(9)
        channels = (A, B, C)
        for _ in range(50):
            t = matrix_transform(channels, unitary_group.rvs(3, random_state=rng))
            psi = random_state(rng, channels, 3, 3)
            before = {sum(occ) for occ in psi.amplitudes}
            after = {sum(occ) for occ in apply(t, psi).amplitudes}
            assert after <= before


def ryser_permanent(m: np.ndarray) -> complex:
    """Perm(m) = sum over column subsets S of (-1)^(n-|S|) prod_i sum_{j in S} m[i, j]."""
    n = m.shape[0]
    subsets = np.array(list(itertools.product((0, 1), repeat=n)))
    signs = (-1.0) ** (n - subsets.sum(axis=1))
    return complex(np.sum(signs * np.prod(subsets @ m.T, axis=1)))


def compositions(total: int, parts: int):
    """Every occupation vector of `total` photons on `parts` channels."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(parts))


def transfer_amplitude(u: np.ndarray, out_occ, in_occ) -> complex:
    """<m|U|n> = Perm(U[m, n]) / sqrt(prod m! prod n!), with U[i, j] the image
    of channel j's creation operator on channel i."""
    rows = np.repeat(np.arange(len(out_occ)), out_occ)
    cols = np.repeat(np.arange(len(in_occ)), in_occ)
    norm = math.prod(math.factorial(k) for k in (*out_occ, *in_occ))
    return ryser_permanent(u[np.ix_(rows, cols)]) / math.sqrt(norm)


class TestPermanentOracle:
    """`apply` against the permanent formula for random unitaries, on every
    output occupation, including occupations above four photons per channel."""

    CASES = [
        {(3, 3): 1.0},
        {(4, 0, 1): 0.6, (0, 2, 0): 0.8j},
        {(2, 2, 1, 1): 1.0, (0, 0, 0, 1): 0.5},
        {(5, 0, 0, 0, 0): 0.5, (1, 1, 1, 1, 1): -0.5, (0, 0, 0, 0, 3): 0.7},
        {(6, 0, 0, 0, 0, 0): 1.0},
        {(1, 1, 1, 1, 1, 1): 1.0},
        {(3, 0, 2, 0, 1, 0): 0.6, (0, 4, 0, 0, 0, 2): 0.8j, (0, 0, 0, 5, 0, 0): 0.3},
        {(0, 0, 0): 0.6, (2, 0, 1): 0.8},
    ]

    @pytest.mark.parametrize("seed, kets", enumerate(CASES))
    def test_amplitudes_match_permanents(self, seed, kets):
        n_ch = len(next(iter(kets)))
        channels = tuple(Channel(f"m{i}") for i in range(n_ch))
        u = unitary_group.rvs(n_ch, random_state=seed)
        out = apply(matrix_transform(channels, u), FockState(channels, kets))
        photon_numbers = {sum(occ) for occ in kets}
        outputs = [m for n in sorted(photon_numbers) for m in compositions(n, n_ch)]
        assert set(out.amplitudes) <= set(outputs)
        for m in outputs:
            expected = sum(
                a * transfer_amplitude(u, m, occ)
                for occ, a in kets.items()
                if sum(occ) == sum(m)
            )
            assert abs(out.amplitude(m) - expected) < 1e-12, m


def tuple_kernel(t: ModeTransform, state: FockState) -> dict:
    """Reference expansion over tuple monomials and numpy matrix entries, the
    float operations `apply` must reproduce bit for bit."""
    mat = t.embedded(state.channels).matrix
    n_ch = len(state.channels)
    out = {}
    for occ, amp in state.amplitudes.items():
        poly = {(0,) * n_ch: amp / math.sqrt(math.prod(math.factorial(n) for n in occ))}
        for src in range(n_ch):
            for _ in range(occ[src]):
                new_poly = {}
                for mon, c0 in poly.items():
                    for dst in range(n_ch):
                        cij = mat[dst, src]
                        if cij == 0.0:
                            continue
                        new = mon[:dst] + (mon[dst] + 1,) + mon[dst + 1:]
                        new_poly[new] = new_poly.get(new, 0j) + c0 * cij
                poly = new_poly
        for mon, c0 in poly.items():
            ket_amp = c0 * math.sqrt(math.prod(math.factorial(n) for n in mon))
            out[mon] = out.get(mon, 0j) + ket_amp
    return FockState(state.channels, out).amplitudes


def exact_items(amps: dict) -> list:
    """Keys in order, with both float parts as exact bits."""
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in amps.items()]


X = Mode("x", polarized=True)


class TestReferenceKernel:
    @pytest.mark.parametrize("seed, make, channels, top", [
        (0, lambda rng: number_device_transform(0.5), (A, B, C, D), 4),
        (1, lambda rng: number_device_transform(0.3), (A, B, C, D), 3),
        (2, lambda rng: pol_device_transform(), pol_device_transform().channels, 3),
        (3, lambda rng: matrix_transform((A, B, C, D), unitary_group.rvs(4, random_state=rng)),
         (A, B, C, D), 4),
        (4, lambda rng: beam_splitter(BeamSplitterSpec(0.7, flip=True), C, A), (A, B, C, D), 4),
        (5, lambda rng: phase_shifter(0.9, X), (*X.channels, A), 5),
    ], ids=["number", "number-T0.3", "pol", "haar", "embedded-bs", "pol-phase"])
    def test_apply_is_bit_identical(self, seed, make, channels, top):
        rng = np.random.default_rng(seed)
        t = make(rng)
        state = random_state(rng, channels, top, top)
        assert exact_items(apply(t, state).amplitudes) == exact_items(tuple_kernel(t, state))


def sparse_state(rng, channels, kets, most):
    """Random normalized state of `kets` kets; the first holds `most` photons,
    the others at most that many."""
    amps = {}
    photons = most
    while len(amps) < kets:
        occ = tuple(int(n) for n in rng.multinomial(photons, [1 / len(channels)] * len(channels)))
        amps[occ] = complex(rng.standard_normal(), rng.standard_normal())
        photons = int(rng.integers(0, most + 1))
    return FockState(channels, amps).normalized()


class TestHeraldedApply:
    """`apply` with a floor is `apply` without one, restricted to the kets that
    meet the floor: the same keys in the same order, with the same bits."""

    # (channels, input kets, most photons in a ket, floor by channel index)
    CASES = [
        (2, 4, 6, {0: 1}),
        (2, 3, 5, {0: 2, 1: 2}),
        (3, 6, 4, {0: 1, 2: 2}),
        (4, 6, 5, {1: 1, 2: 1, 3: 1}),
        (4, 5, 6, {0: 2, 3: 2}),
        (5, 6, 5, {0: 0, 1: 1, 4: 2}),
        (6, 4, 6, {2: 1, 3: 1, 4: 1, 5: 1}),
        (6, 3, 6, {1: 2, 5: 2, 0: 0}),
    ]

    @pytest.mark.parametrize("seed, case", enumerate(CASES),
                             ids=[f"{n}ch-{most}ph" for n, _, most, _ in CASES])
    def test_floor_restricts_the_output_bit_for_bit(self, seed, case):
        n_ch, kets, most, floor_at = case
        rng = np.random.default_rng(seed)
        channels = tuple(Channel(f"m{i}") for i in range(n_ch))
        t = matrix_transform(channels, unitary_group.rvs(n_ch, random_state=seed))
        state = sparse_state(rng, channels, kets, most)
        floor = {channels[i]: k for i, k in floor_at.items()}
        full = apply(t, state).amplitudes
        kept = {occ: a for occ, a in full.items()
                if all(occ[i] >= k for i, k in floor_at.items())}
        assert 0 < len(kept) < len(full)
        assert exact_items(apply(t, state, floor).amplitudes) == exact_items(kept)

    def test_floor_above_the_photon_number_gives_an_empty_state(self):
        t = matrix_transform((A, B, C), unitary_group.rvs(3, random_state=9))
        state = FockState((A, B, C), {(1, 1, 1): 0.6, (2, 0, 0): 0.8})
        # kets of at most 3 photons code monomials in base 4, so {A: 4} and
        # {A: 9} are floors whose lack would not fit in one digit
        for floor in ({A: 2, C: 2}, {A: 4}, {A: 9}):
            out = apply(t, state, floor)
            assert out.channels == (A, B, C)
            assert out.amplitudes == {}

    def test_floor_of_zeros_changes_nothing(self):
        t = number_device_transform(0.3)
        state = random_state(np.random.default_rng(4), (A, B, C, D), 2, 4)
        assert exact_items(apply(t, state, {A: 0, D: 0}).amplitudes) == exact_items(
            apply(t, state).amplitudes)

    def test_floor_channel_not_in_state_rejected(self):
        state = FockState.basis((A, B), (1, 1))
        with pytest.raises(ModeMismatchError):
            apply(beam_splitter(BeamSplitterSpec(0.5), A, B), state, {C: 1})

    def test_negative_floor_rejected(self):
        state = FockState.basis((A, B), (1, 1))
        with pytest.raises(ValueError, match="negative floor"):
            apply(beam_splitter(BeamSplitterSpec(0.5), A, B), state, {A: -1})

    @pytest.mark.parametrize("k", [math.nan, 1.5, math.inf, "1"], ids=["nan", "1.5", "inf", "str"])
    def test_non_integer_floor_rejected(self, k):
        state = FockState.basis((A, B), (1, 1))
        with pytest.raises(ValueError, match="is not an integer"):
            apply(beam_splitter(BeamSplitterSpec(0.5), A, B), state, {A: k})

    # (transform, floor by channel index, a ket none of whose photons can reach
    # a floored channel): the zeros of these matrices let the floor's
    # per-channel limits bind before the total one does
    POL, NUMBER = pol_device_transform(), number_device_transform(0.3)
    SPLITTER = beam_splitter(BeamSplitterSpec(0.7), B, D).embedded((A, B, C, D))
    ZERO_BLOCK = matrix_transform((A, B, C, D), np.block(
        [[unitary_group.rvs(2, random_state=3), np.zeros((2, 2))],
         [np.zeros((2, 2)), unitary_group.rvs(2, random_state=4)]]))
    SPARSE = {
        "pol-1": (POL, {2: 1, 3: 1, 4: 1, 5: 1}, (0, 0, 0, 0, 2, 1)),
        "pol-2": (POL, {2: 2, 5: 1}, (0, 0, 0, 0, 1, 2)),
        "number-1": (NUMBER, {2: 1, 3: 1}, (2, 0, 0, 0)),
        "number-2": (NUMBER, {0: 1, 3: 2}, (3, 0, 0, 0)),
        "splitter-1": (SPLITTER, {1: 1}, (2, 0, 1, 0)),
        "splitter-2": (SPLITTER, {1: 2, 3: 1}, (1, 0, 2, 0)),
        # b and d each reachable from the one b photon, but not both at once
        "splitter-3": (SPLITTER, {1: 1, 3: 1}, (0, 1, 2, 0)),
        "zero-block-1": (ZERO_BLOCK, {0: 1, 2: 1}, (0, 0, 2, 1)),
        "zero-block-2": (ZERO_BLOCK, {0: 2}, (0, 0, 1, 3)),
    }

    @pytest.mark.parametrize("seed, name", enumerate(SPARSE), ids=list(SPARSE))
    def test_sparse_floor_restricts_the_output_bit_for_bit(self, seed, name):
        t, floor_at, unreachable = self.SPARSE[name]
        channels = t.channels
        floor = {channels[i]: k for i, k in floor_at.items()}
        assert apply(t, FockState.basis(channels, unreachable), floor).amplitudes == {}
        amps = dict(sparse_state(np.random.default_rng(seed), channels, 6, 6).amplitudes)
        amps[unreachable] = 0.3 - 0.2j
        state = FockState(channels, amps)
        full = apply(t, state).amplitudes
        kept = {occ: a for occ, a in full.items()
                if all(occ[i] >= k for i, k in floor_at.items())}
        assert 0 < len(kept) < len(full)
        assert exact_items(apply(t, state, floor).amplitudes) == exact_items(kept)


# The numpy builders `ModeTransform` once stored an ndarray from, copied here
# as references: each returns (channels, U) with U[i, j] the image of channel j.

def numpy_padded(mat: np.ndarray, at: list[int], n: int) -> np.ndarray:
    out = np.eye(n, dtype=complex)
    for i, row in zip(at, mat.tolist()):
        for j, z in zip(at, row):
            out[i, j] = z
    return out


def numpy_beam_splitter(spec, in1, in2):
    c1 = in1.channels if isinstance(in1, Mode) else (in1,)
    c2 = in2.channels if isinstance(in2, Mode) else (in2,)
    t = math.sqrt(spec.transmission)
    r = math.sqrt(1.0 - spec.transmission)
    tr = (r, -r) if spec.flip else (-r, r)
    n = len(c1)
    mat = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        j = i + n
        mat[i, i] = mat[j, j] = t
        mat[i, j], mat[j, i] = tr
    return c1 + c2, mat


def numpy_phase_shifter(phi, mode):
    chans = mode.channels if isinstance(mode, Mode) else (mode,)
    return chans, np.exp(1j * phi) * np.eye(len(chans))


def numpy_polarization_rotator(angle, mode):
    c, s = math.cos(angle), math.sin(angle)
    return mode.channels, np.array([[c, -s], [s, c]], dtype=complex)


def numpy_polarizing_beam_splitter(in1, in2):
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[2, 2] = mat[3, 1] = mat[1, 3] = 1.0
    return in1.channels + in2.channels, mat


def column_bits(t: ModeTransform) -> list:
    """Every stored entry's two float parts as exact bits, column by column."""
    return [[(z.real.hex(), z.imag.hex()) for z in col] for col in t.columns]


def array_bits(mat: np.ndarray) -> list:
    return [[(z.real.hex(), z.imag.hex()) for z in col] for col in mat.T.tolist()]


def quadrant_angles(seed: int) -> list[float]:
    """Seeded angles with cos and sin of each sign pair, and the edge values."""
    rng = np.random.default_rng(seed)
    edges = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi]
    return edges + [float(rng.uniform(lo, lo + math.pi / 2)) + k * 2 * math.pi
                    for lo in (0, math.pi / 2, -math.pi, -math.pi / 2)
                    for k in (-2, 0, 3) for _ in range(5)]


class TestBuilderBits:
    """The builders emit the columns the numpy builders held, bit for bit,
    signs of zero included: `compose` multiplies them, and the goldens print
    the product's zero signs."""

    P, Q = Mode("p", polarized=True), Mode("q", polarized=True)

    @pytest.mark.parametrize("mode", [A, Mode("p", polarized=True)], ids=["one", "pol"])
    def test_phase_shifter(self, mode):
        for phi in quadrant_angles(1):
            chans, mat = numpy_phase_shifter(phi, mode)
            t = phase_shifter(phi, mode)
            assert t.channels == chans
            assert column_bits(t) == array_bits(mat), phi

    def test_phase_shifter_off_diagonal_keeps_negative_zero(self):
        t = phase_shifter(2.0, self.P)  # cos < 0, sin > 0: z * 0j is (-0, 0)
        assert column_bits(t)[0][1] == ((-0.0).hex(), (0.0).hex())

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("ports", ["channels", "pol"])
    def test_beam_splitter(self, flip, ports):
        in1, in2 = (A, B) if ports == "channels" else (self.P, self.Q)
        rng = np.random.default_rng(2)
        for transmission in [0.0, 1.0, 0.5, *rng.uniform(0, 1, 8).tolist()]:
            spec = BeamSplitterSpec(transmission, flip=flip)
            chans, mat = numpy_beam_splitter(spec, in1, in2)
            t = beam_splitter(spec, in1, in2)
            assert t.channels == chans
            assert column_bits(t) == array_bits(mat), transmission

    def test_polarization_rotator(self):
        for angle in quadrant_angles(3):
            chans, mat = numpy_polarization_rotator(angle, self.P)
            t = polarization_rotator(angle, self.P)
            assert t.channels == chans
            assert column_bits(t) == array_bits(mat), angle

    def test_polarizing_beam_splitter(self):
        chans, mat = numpy_polarizing_beam_splitter(self.P, self.Q)
        t = polarizing_beam_splitter(self.P, self.Q)
        assert t.channels == chans
        assert column_bits(t) == array_bits(mat)

    @pytest.mark.parametrize("n", [0, 1, 4, 6])
    def test_identity_transform(self, n):
        chans = tuple(Channel(f"m{i}") for i in range(n))
        t = identity_transform(chans)
        assert t.channels == chans
        assert column_bits(t) == array_bits(np.eye(n, dtype=complex))

    def test_embedded(self):
        rng = np.random.default_rng(4)
        target = (A, *self.P.channels, B, C, *self.Q.channels, D)
        for t in [beam_splitter(BeamSplitterSpec(0.3, flip=True), self.Q, self.P),
                  phase_shifter(-2.5, self.P), polarization_rotator(4.0, self.Q),
                  polarizing_beam_splitter(self.Q, self.P),
                  matrix_transform((D, B, A), unitary_group.rvs(3, random_state=rng))]:
            at = [target.index(c) for c in t.channels]
            padded = t.embedded(target)
            assert padded.channels == target
            assert column_bits(padded) == array_bits(numpy_padded(t.matrix, at, len(target)))


class TestModeTransformInput:
    """The constructor reads U row by row from any nested numbers, as
    `np.asarray(matrix, dtype=complex)` once did, bit for bit."""

    U = unitary_group.rvs(3, random_state=5)

    @pytest.mark.parametrize("matrix", [
        U,
        U.tolist(),
        [tuple(row) for row in U.tolist()],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[-0.0, 1, 0], [0, 0, 1j], [-1, -0.0, 0]],
        np.eye(3, dtype=int),
    ], ids=["ndarray", "lists", "tuples", "ints", "signed-zeros", "int-array"])
    def test_entries_bit_for_bit(self, matrix):
        t = ModeTransform((A, B, C), matrix)
        assert column_bits(t) == array_bits(np.asarray(matrix, dtype=complex))
        assert all(type(z) is complex for col in t.columns for z in col)

    @pytest.mark.parametrize("empty", [[], (), np.zeros((0, 0))])
    def test_zero_by_zero(self, empty):
        t = ModeTransform((), empty)
        assert t.columns == () and t.matrix.shape == (0, 0)

    def test_matrix_property_is_a_fresh_read_only_copy(self):
        t = ModeTransform((A, B, C), self.U)
        first = t.matrix
        assert first is not t.matrix and first.flags.c_contiguous
        assert np.array_equal(first, self.U)
        with pytest.raises(ValueError):
            first[0, 0] = 0

    @pytest.mark.parametrize("matrix, message", [
        ([[1, 0], [0]], "matrix rows of lengths 2, 1 for 2 channels"),
        ([[1], [0, 1]], "matrix rows of lengths 1, 2 for 2 channels"),
        ([[1, 0, 0], [0, 1, 0]], r"matrix shape \(2, 3\) for 2 channels"),
        ([], r"matrix shape \(0,\) for 2 channels"),
        ([1, 0], "matrix for 2 channels is not rows of numbers"),
        ([[None, 0], [0, 1]], "matrix for 2 channels is not rows of numbers"),
    ], ids=["ragged-short", "ragged-long", "wide", "empty", "flat", "none"])
    def test_malformed_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            ModeTransform((A, B), matrix)

    @pytest.mark.parametrize("entry, peak", [
        (complex(1.5e308, 1.5e308), "inf"),  # finite parts, |z| past the largest float
        (complex(1e308, 1e308), "1.414e+308"),
        (complex(math.inf, math.nan), "inf"),  # |z| is inf when either part is
        (complex(math.nan, 0), "nan"),
        (2.5, "2.500e+00"),
    ])
    def test_entry_magnitude_named(self, entry, peak):
        """The messages numpy's abs and max gave, NaN winning over inf."""
        with pytest.raises(NonUnitaryError, match=re.escape(f"(entry of magnitude {peak})")):
            ModeTransform((A, B), [[1, 0], [entry, 1]])

    def test_nan_named_before_a_larger_entry(self):
        with pytest.raises(NonUnitaryError, match=r"\(entry of magnitude nan\)"):
            ModeTransform((A, B), [[math.inf, 0], [math.nan, 1]])

    def test_deviation_named(self):
        with pytest.raises(NonUnitaryError, match=r"\(deviation 1\.000e-06\)"):
            ModeTransform((A,), [[1 + 1e-6 / 2]])

    def test_dagger_is_the_conjugate_transpose(self):
        t = ModeTransform((A, B, C), self.U)
        assert np.array_equal(t.dagger().matrix, self.U.conj().T)
