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
        out = apply(t, state, {A: 2, C: 2})
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
