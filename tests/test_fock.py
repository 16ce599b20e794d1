import cmath
import math

import numpy as np
import pytest

from qndsim.detection import condition, pattern_table
from qndsim.fock import (
    Channel,
    FockState,
    MixedState,
    Mode,
    ModeMismatchError,
    TruncationError,
    apply_creation,
    inner_product,
    tensor,
)
from qndsim.optics import apply, identity_transform, matrix_transform

A, B, C = Channel("a"), Channel("b"), Channel("c")


def random_state(rng, channels, n_max, total_max):
    """Random normalized state with bounded total photon number."""
    occs = []

    def rec(prefix, remaining):
        if len(prefix) == len(channels):
            occs.append(tuple(prefix))
            return
        for n in range(min(n_max, remaining) + 1):
            rec(prefix + [n], remaining - n)

    rec([], total_max)
    amps = {occ: complex(rng.standard_normal(), rng.standard_normal()) for occ in occs}
    return FockState(channels, amps, n_max).normalized()


class TestFockState:
    def test_basis_and_vacuum(self):
        st = FockState.basis((A, B), (1, 0))
        assert st.amplitude((1, 0)) == 1
        assert st.amplitude((0, 1)) == 0
        assert FockState.vacuum((A,)).amplitude((0,)) == 1

    def test_zero_amplitudes_pruned(self):
        st = FockState((A,), {(0,): 1.0, (1,): 0.0})
        assert (1,) not in st.amplitudes

    def test_tiny_amplitudes_kept(self):
        # only exact zeros are dropped; residues are pruned where they arise
        st = FockState((A,), {(0,): 1.0, (1,): 1e-20, (2,): -1e-150j})
        assert st.amplitudes == {(0,): 1.0, (1,): 1e-20, (2,): -1e-150j}

    def test_duplicate_channels_rejected(self):
        with pytest.raises(ModeMismatchError):
            FockState((A, A), {(0, 0): 1.0})

    def test_overflow_is_hard_error(self):
        with pytest.raises(TruncationError):
            FockState((A,), {(5,): 1.0}, n_max=4)

    @pytest.mark.parametrize(
        "occ, error",
        [
            ((1,), ModeMismatchError),
            ((1, 0, 0), ModeMismatchError),
            ((0, -1), ValueError),
            ((1.5, 0), ValueError),
            (("1", 0), ValueError),
            ((math.inf, 0), ValueError),
            ((-math.inf, 0), ValueError),
            ((math.nan, 0), ValueError),
        ],
    )
    def test_malformed_occupation_rejected(self, occ, error):
        with pytest.raises(error):
            FockState((A, B), {occ: 1.0})
        # not truncated into, and merged with, a valid key
        with pytest.raises(error):
            FockState((A, B), {occ: 0.6, (1, 0): 0.8})

    def test_occupations_become_int_tuples(self):
        st = FockState((A, B), {(np.int64(1), np.int64(0)): 1.0, (np.int64(0), True): 1.0})
        assert list(st.amplitudes) == [(1, 0), (0, 1)]
        assert all(type(n) is int for occ in st.amplitudes for n in occ)
        assert FockState((A, B), {(1.0, 0): 1.0}).amplitudes == {(1, 0): 1.0}
        assert FockState((), {(): 2.0}).amplitudes == {(): 2.0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), 1e155])
    def test_non_finite_amplitude_rejected(self, bad):
        # a finite amplitude is refused for its |a|^2, not as non-finite
        message = r"\|a\|\^2 overflows a float" if cmath.isfinite(bad) else "non-finite"
        with pytest.raises(ValueError, match=message):
            FockState((A, B), {(1, 0): bad, (0, 1): 1.0})

    def test_polarized_mode_exposes_pair(self):
        m = Mode("a", polarized=True)
        assert m.channels == (Channel("a", "H"), Channel("a", "V"))
        assert Mode("a").channels == (Channel("a"),)

    def test_channel_polarization_is_h_v_or_none(self):
        with pytest.raises(ValueError, match="polarization must be None, 'H' or 'V', got 'X'"):
            Channel("a", "X")

    def test_mode_builds_its_channels_once(self):
        m = Mode("a", polarized=True)
        assert m.channels is m.channels
        # the cached tuple stays out of equality, hashing and repr
        assert m == Mode("a", polarized=True)
        assert hash(m) == hash(Mode("a", polarized=True))
        assert repr(m) == "Mode(spatial='a', polarized=True)"

    def test_normalized(self):
        st = FockState((A,), {(0,): 3.0, (1,): 4.0}).normalized()
        assert st.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert st.amplitude((0,)) == pytest.approx(0.6)

    @pytest.mark.parametrize("amps", [{(1, 0): 1e-160}, {(1, 0): 1e-160j, (0, 1): -3e-161},
                                      {(1, 0): 2e-162, (0, 1): 1e-155}],
                             ids=["one-ket", "two-kets", "wide-range"])
    def test_subnormal_norm_squared_normalizes_to_one(self, amps):
        st = FockState((A, B), amps)
        assert 0.0 < st.norm_squared() < 2.2250738585072014e-308
        assert st.normalized().norm_squared() == pytest.approx(1.0, abs=1e-15)
        if len(amps) == 1:
            assert st.normalized().amplitudes == {(1, 0): 1.0}

    def test_overflowing_norm_squared_is_infinite(self):
        st = FockState((A, B), {(1, 0): 1e154, (0, 1): 1e154})
        assert (st.norm_squared(), st.norm()) == (math.inf, math.inf)
        assert st.normalized().amplitudes == {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)}

    def test_normal_norm_squared_keeps_its_arithmetic(self):
        rng = np.random.default_rng(29)
        for scale in (1e-150, 1e-100, 1.0, 1e100, 1e150):
            c = (rng.normal(size=3) + 1j * rng.normal(size=3)) * scale
            st = FockState((A,), dict(zip([(0,), (1,), (2,)], c.tolist())))
            n = math.sqrt(math.fsum(abs(a) ** 2 for a in st.amplitudes.values()))
            assert st.normalized().amplitudes == {occ: (1.0 / n) * a
                                                  for occ, a in st.amplitudes.items()}


class TestTensor:
    def test_basis_product(self):
        st = tensor(FockState.basis((A,), (1,)), FockState.basis((B,), (0,)))
        assert st.amplitude((1, 0)) == 1

    def test_superposition_times_probes(self):
        c0, c1 = 0.6, 0.8
        psi = FockState((A,), {(0,): c0, (1,): c1})
        probes = FockState.basis((Channel("c"), Channel("d")), (1, 1))
        st = tensor(psi, probes)
        assert st.amplitude((0, 1, 1)) == pytest.approx(c0)
        assert st.amplitude((1, 1, 1)) == pytest.approx(c1)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = random_state(rng, (A,), 3, 3)
            phi = random_state(rng, (B,), 3, 3)
            assert tensor(psi, phi).norm() == pytest.approx(psi.norm() * phi.norm())

    def test_overlapping_channels_rejected(self):
        with pytest.raises(ModeMismatchError):
            tensor(FockState.vacuum((A,)), FockState.vacuum((A, B)))


class TestLadder:
    def test_creation_on_vacuum(self):
        st = apply_creation(FockState.vacuum((A,)), A)
        assert st.amplitude((1,)) == pytest.approx(1.0)

    def test_double_creation(self):
        st = apply_creation(FockState.vacuum((A,)), A, power=2)
        assert st.amplitude((2,)) == pytest.approx(math.sqrt(2))

    def test_linearity(self):
        st = FockState((A,), {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
        out = apply_creation(st, A)
        assert out.amplitude((1,)) == pytest.approx(1 / math.sqrt(2))
        assert out.amplitude((2,)) == pytest.approx(1.0)  # sqrt2/sqrt2

    def test_ladder_scaling_identity(self):
        # <n| a a† |n> = n+1 on every level
        for n in range(4):
            ket = FockState.basis((A,), (n,))
            up = apply_creation(ket, A)
            assert up.norm_squared() == pytest.approx(n + 1)

    def test_creation_above_four_photons(self):
        st = apply_creation(FockState.basis((A,), (4,)), A)
        assert st.amplitudes == {(5,): pytest.approx(math.sqrt(5))}

    def test_creation_on_missing_channel_rejected(self):
        with pytest.raises(ModeMismatchError, match="channel b not in state"):
            apply_creation(FockState.vacuum((A,)), B)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="power must be non-negative"):
            apply_creation(FockState.vacuum((A,)), A, power=-1)


class TestInnerProduct:
    def test_orthonormal_basis(self):
        v0 = FockState.basis((A,), (0,))
        v1 = FockState.basis((A,), (1,))
        assert inner_product(v0, v0) == 1
        assert inner_product(v1, v0) == 0

    def test_conjugate_linear_first_argument(self):
        u = FockState((A,), {(0,): 1j})
        v = FockState((A,), {(0,): 1.0})
        assert inner_product(u, v) == pytest.approx(-1j)
        assert inner_product(v, u) == pytest.approx(1j)

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            inner_product(FockState.vacuum((A,)), FockState.vacuum((B,)))

    def test_random_normalization(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            psi = random_state(rng, (A, B), 3, 3)
            assert inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-12)


class TestPartialTrace:
    """Tracing out detected channels, as `detection.pattern_table` does: one
    branch per detected pattern, weighted by the pattern's mass."""

    def test_product_state(self):
        table = pattern_table(FockState.basis((A, B), (1, 0)), (B,))
        assert [m for m, _ in table.patterns.values()] == pytest.approx([1.0])
        assert table.branch((0,)).amplitude((1,)) == pytest.approx(1.0)

    def test_bell_like_state(self):
        s = 1 / math.sqrt(2)
        psi = FockState((A, B), {(1, 0): s, (0, 1): s})
        weights = sorted(m for m, _ in pattern_table(psi, (B,)).patterns.values())
        assert weights == pytest.approx([0.5, 0.5])

    def test_weight_preserved_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            psi = random_state(rng, (A, B), 2, 3)
            table = pattern_table(psi, (A,))
            assert abs(math.fsum(m for m, _ in table.patterns.values()) - 1.0) < 1e-12

    def test_tensor_then_trace_recovers_factor(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            psi = random_state(rng, (A,), 3, 3)
            phi = random_state(rng, (B,), 3, 3)
            table = pattern_table(tensor(psi, phi), (B,))
            # product input: every branch equals psi up to phase
            assert math.fsum(m for m, _ in table.patterns.values()) == pytest.approx(1.0)
            total = sum(
                m * abs(inner_product(psi, table.branch(p))) ** 2
                for p, (m, _) in table.patterns.items()
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_pattern_mass_is_infinite(self):
        table = pattern_table(FockState((A, B), {(0, 1): 1e154, (0, 2): 1e154}), (A,))
        ((pattern, (mass, _)),) = table.patterns.items()
        assert mass == math.inf
        assert table.branch(pattern).amplitudes == {(1,): 1 / math.sqrt(2),
                                                    (2,): 1 / math.sqrt(2)}

    def test_keep_all_one_or_two_of_three_channels(self):
        psi = FockState((A, B, C), {(1, 0, 2): 0.6, (0, 1, 2): 0.8})
        ((pattern, (mass, amps)),) = pattern_table(psi, ()).patterns.items()
        assert pattern == ()
        assert mass == pytest.approx(1.0)
        assert amps == psi.amplitudes
        table = pattern_table(psi, (A, B))
        assert [m for m, _ in table.patterns.values()] == pytest.approx([0.36, 0.64])
        assert [table.branch(p).amplitudes for p in table.patterns] == [{(2,): 1.0}] * 2
        ((pattern, (_, amps)),) = pattern_table(psi, (C,)).patterns.items()
        assert pattern == (2,)
        assert amps == {(1, 0): 0.6, (0, 1): 0.8}


class TestMixedState:
    def test_weight_validation(self):
        st = FockState.vacuum((A,))
        with pytest.raises(ValueError):
            MixedState(((-0.5, st),))

    def test_channel_consistency(self):
        with pytest.raises(ModeMismatchError):
            MixedState(((0.5, FockState.vacuum((A,))), (0.5, FockState.vacuum((B,)))))

    def test_overflowing_total_weight_is_infinite(self):
        st = FockState.vacuum((A,))
        assert MixedState(((1e308, st), (1e308, st))).total_weight() == math.inf

    def test_empty_ensemble_has_no_channels(self):
        with pytest.raises(ValueError, match="empty ensemble has no channels"):
            MixedState(()).channels


_ON_AB = FockState.vacuum((A, B))
# each entry point, called with a channel list (as mapping keys where it takes
# a mapping); a dict cannot repeat a key, so the two mappings get no repeat case
CHANNEL_LISTS = {
    "FockState": lambda chans: FockState(chans, {}),
    "matrix_transform": lambda chans: matrix_transform(chans, np.eye(len(chans))),
    "identity_transform": identity_transform,
    "pattern_table": lambda chans: pattern_table(_ON_AB, chans),
    "condition": lambda chans: condition(_ON_AB, dict.fromkeys(chans, 0)),
    "apply-floor": lambda chans: apply(identity_transform((A, B)), _ON_AB,
                                       dict.fromkeys(chans, 1)),
}


class TestChannelLists:
    """A channel list is a tuple of distinct `Channel`s wherever one is taken."""

    @pytest.mark.parametrize("entry", list(CHANNEL_LISTS))
    @pytest.mark.parametrize("item", ["a", Mode("a", polarized=True)], ids=["str", "mode"])
    def test_only_channels(self, entry, item):
        with pytest.raises(TypeError, match="not a channel"):
            CHANNEL_LISTS[entry]((A, item))

    @pytest.mark.parametrize("entry", ["FockState", "matrix_transform", "identity_transform",
                                       "pattern_table"])
    def test_no_repeats(self, entry):
        with pytest.raises(ModeMismatchError, match=r"duplicate channels in \[Channel\('a'\), "
                                                    r"Channel\('b'\), Channel\('a'\)\]"):
            CHANNEL_LISTS[entry]((A, B, A))
