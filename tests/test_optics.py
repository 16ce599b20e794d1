import itertools
import math

import numpy as np
import pytest
from scipy.stats import unitary_group

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

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            matrix_transform((A, B), np.array([[1, 0], [1, 1]]))

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
