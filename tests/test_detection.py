import itertools
import math

import numpy as np
import pytest

from qndsim import detection, optics, protocols
from qndsim.detection import (
    IDEAL,
    DetectorModel,
    PatternTable,
    TargetOverlaps,
    closed_form_fidelity,
    condition,
    fidelity,
    pattern_table,
    povm_element,
    reweight,
)
from qndsim.fock import (
    Channel,
    FockState,
    MixedState,
    ModeMismatchError,
    partial_trace_keep,
    tensor,
)
from qndsim.optics import BeamSplitterSpec, apply, beam_splitter
from qndsim.protocols import (
    NumberInputSpec,
    PdcSourceSpec,
    PolarizationAngle,
    kerr_qnd,
    number_device_transform,
    number_qnd,
    pol_qnd,
    teleport_pol_qnd,
)

from test_fock import random_state
from test_optics import exact_items

A, B, C, D = Channel("a"), Channel("b"), Channel("c"), Channel("d")


class TestPovmElement:
    @pytest.mark.parametrize("k, n_max", [(k, n) for n in range(7) for k in range(n + 1)])
    def test_ideal_is_projector(self, k, n_max):
        # exactly 1.0 at n = k: the teleport analyzer weighs a pattern by its mass
        el = povm_element(k, IDEAL, n_max=n_max)
        assert [c.hex() for c in el] == [
            (1.0 if n == k else 0.0).hex() for n in range(n_max + 1)]

    def test_single_photon_reading_coefficients(self):
        e = 0.7
        loss = 1 - e
        el = povm_element(1, DetectorModel(e), n_max=3)
        assert el[1] == pytest.approx(e)
        assert el[2] == pytest.approx(2 * e * loss)
        assert el[3] == pytest.approx(3 * e * loss**2)
        assert el[0] == 0.0

    def test_vacuum_reading_coefficients(self):
        e = 0.64
        loss = 1 - e
        el = povm_element(0, DetectorModel(e), n_max=2)
        assert el == pytest.approx((1.0, loss, loss**2))

    def test_two_photon_reading(self):
        e = 0.5
        el = povm_element(2, DetectorModel(e), n_max=3)
        assert el[2] == pytest.approx(e**2)
        assert el[3] == pytest.approx(3 * e**2 * (1 - e))

    def test_reading_beyond_truncation(self):
        with pytest.raises(ValueError):
            povm_element(5, IDEAL, n_max=4)

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(1.2)

    def test_completeness_random_efficiencies(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e = rng.uniform()
            det = DetectorModel(e)
            for n in range(7):
                total = math.fsum(
                    povm_element(k, det, n_max=6)[n] for k in range(7)
                )
                assert abs(total - 1.0) < 1e-12

    def test_threshold_detector(self):
        det = DetectorModel(0.8, resolves_photon_number=False)
        no_click = povm_element(0, det, n_max=3)
        click = povm_element(1, det, n_max=3)
        for n in range(4):
            assert no_click[n] == pytest.approx(0.2**n)
            assert no_click[n] + click[n] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            povm_element(2, det, n_max=3)


def heralded_state(transmission=0.5, c=(0.0, 1.0, 0.0)):
    """Pre-detection output of the four-mode device for input amplitudes c."""
    amps = {(k, 0, 1, 1): ck for k, ck in enumerate(c)}
    st = FockState((A, B, C, D), amps)
    return apply(number_device_transform(transmission), st)


class TestCondition:
    def test_single_photon_coincidence(self):
        st = heralded_state()
        prob, out = condition(st, {A: 0, C: 1, D: 1})
        assert prob == pytest.approx(1 / 8, abs=1e-12)
        out = out.renormalized()
        assert out.channels == (B,)
        total = sum(
            w * abs(branch.amplitude((1,))) ** 2 for w, branch in out.branches
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_probe_only_input_never_coincides(self):
        st = heralded_state(c=(1.0, 0.0, 0.0))
        prob, _ = condition(st, {A: 0, C: 1, D: 1})
        assert prob == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_all_zero(self):
        st = FockState.vacuum((A, B))
        prob, _ = condition(st, {A: 0, B: 0})
        assert prob == pytest.approx(1.0)

    def test_unknown_channel(self):
        with pytest.raises(ModeMismatchError):
            condition(FockState.vacuum((A,)), {B: 0})

    def test_weights_sum_to_probability(self):
        rng = np.random.default_rng(4)
        det = DetectorModel(0.6)
        for _ in range(50):
            psi = random_state(rng, (A, B, C), 2, 3)
            prob, out = condition(psi, {A: 1, B: 0}, det)
            assert out.total_weight() == pytest.approx(prob, abs=1e-12)

    def test_exhaustive_readings_sum_to_one(self):
        rng = np.random.default_rng(6)
        det = DetectorModel(0.73)
        for _ in range(20):
            psi = random_state(rng, (A, B, C), 3, 3)
            total = 0.0
            for ka, kb in itertools.product(range(4), repeat=2):
                prob, _ = condition(psi, {A: ka, B: kb}, det)
                total += prob
            assert abs(total - 1.0) < 1e-10

    def test_probability_bounded_by_consistent_mass(self):
        rng = np.random.default_rng(13)
        det = DetectorModel(0.81)
        for _ in range(50):
            psi = random_state(rng, (A, B), 3, 3)
            prob, _ = condition(psi, {A: 1}, det)
            mass = sum(
                abs(a) ** 2 for occ, a in psi.amplitudes.items() if occ[0] >= 1
            )
            assert prob <= mass + 1e-12


class TestPatternTable:
    def test_one_table_serves_every_efficiency(self):
        st = heralded_state(c=(0.3, 0.8, math.sqrt(1 - 0.09 - 0.64)))
        table = pattern_table(st, (A, C, D))
        for e in (0.0, 0.35, 0.88, 1.0):
            det = DetectorModel(e)
            p1, out1 = reweight(table, (0, 1, 1), det)
            p2, out2 = condition(st, {A: 0, C: 1, D: 1}, det)
            assert p1 == p2
            assert [w for w, _ in out1.branches] == [w for w, _ in out2.branches]
            for (_, s1), (_, s2) in zip(out1.branches, out2.branches):
                assert s1.amplitudes == s2.amplitudes

    def test_signature_on_other_channels_rejected(self):
        table = pattern_table(heralded_state(), (A, C, D))
        with pytest.raises(ModeMismatchError):
            reweight(table, (0, 1))
        with pytest.raises(ModeMismatchError):
            reweight(table, (0, 1, 1, 0))
        with pytest.raises(ModeMismatchError):
            pattern_table(FockState.vacuum((A,)), (B,))

    def test_branches_built_lazily_and_reused(self):
        st = heralded_state(c=(0.0, 0.6, 0.8))
        table = pattern_table(st, (A, C, D))
        readings = (0, 1, 1)
        _, first = reweight(table, readings)
        # ideal detectors give a non-zero factor to the (0, 1, 1) pattern only
        assert len(first.branches) == 1
        assert set(table._branches) == {(0, 1, 1)}
        _, again = reweight(table, readings)
        assert again.branches[0][1] is first.branches[0][1]

    def test_reading_above_every_occupation_has_zero_probability(self):
        table = pattern_table(heralded_state(), (A, C, D))
        assert table.top < 5
        for det in (IDEAL, DetectorModel(0.7)):
            prob, out = reweight(table, (0, 5, 1), det)
            assert prob == 0.0
            assert out.branches == ()

    def test_partial_trace_is_unit_povm_conditioning(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            psi = random_state(rng, (A, B, C), 2, 3)
            table = pattern_table(psi, (A, C))
            rho = partial_trace_keep(psi, (B,))
            assert [w for w, _ in rho.branches] == [m for m, _ in table.patterns.values()]
            for (_, st), pattern in zip(rho.branches, table.patterns):
                assert st.amplitudes == table.branch(pattern).amplitudes


def full_scan_reweight(table, readings, det=IDEAL):
    """Reference: every pattern's POVM product, pattern by pattern, the float
    operations `reweight` must reproduce bit for bit."""
    top = max((table.top, *readings))
    coeffs = [povm_element(k, det, top) for k in readings]
    weights, branches = [], []
    for pattern, (mass, _) in table.patterns.items():
        povm_factor = math.prod(map(tuple.__getitem__, coeffs, pattern))
        if povm_factor == 0.0:
            continue
        w = povm_factor * mass
        weights.append(w)
        branches.append((w, table.branch(pattern)))
    return math.fsum(weights), MixedState(tuple(branches))


def exact_outcome(prob, out):
    """Probability, then each branch's weight and amplitudes, as exact bits."""
    return prob.hex(), [(w.hex(), exact_items(st.amplitudes)) for w, st in out.branches]


def conditioned_state(run):
    """(state, detected channels) of the last pattern table `run()` builds.

    Devices are evolved without their floor, so the state holds every
    pattern, and readings other than the success readings meet them all.
    """
    seen = []

    def recording(state, detected):
        seen.append((state, detected))
        return pattern_table(state, detected)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "pattern_table", recording)
        mp.setattr(protocols, "pattern_table", recording)
        mp.setattr(protocols, "apply", lambda t, state, floor=None: optics.apply(t, state))
        run()
    return seen[-1]


SPEC = NumberInputSpec(0.3, 0.8, math.sqrt(1 - 0.09 - 0.64))
ANGLE = PolarizationAngle.from_bloch(1.1, 2.3)
# device -> (the call that conditions, readings in its detected order)
DEVICES = {
    "number": (lambda: number_qnd(SPEC, 0.37), [(0, 1, 1), (0, 0, 0), (1, 1, 0)]),
    "pol": (lambda: pol_qnd(SPEC, ANGLE), [(1, 1, 1, 1), (0, 1, 0, 1)]),
    "kerr": (lambda: kerr_qnd(SPEC, 2.1), [(1, 0), (0, 1)]),
    "teleport": (lambda: teleport_pol_qnd(SPEC, ANGLE, PdcSourceSpec(0.2)),
                 [pattern for pattern, _ in protocols._BELL_PATTERNS]),
}
# 0 and 1 zero whole rows of coefficients.  Below about 1e-16, 1 - e rounds
# to 1 and every threshold click coefficient is 0.0.  At 5e-324, 1e-200 and
# 1e-160 products of non-zero coefficients underflow to 0.0; at 1e-160 only
# pol's product of four readings does.
EFFICIENCIES = (0.0, 5e-324, 1e-200, 1e-160, 0.3, 0.88, 1 - 1e-16, 1.0)


class TestReferenceReweight:
    @pytest.mark.parametrize("resolves", [True, False], ids=["counting", "threshold"])
    @pytest.mark.parametrize("device", list(DEVICES))
    def test_reweight_is_bit_identical(self, device, resolves):
        run, readings_list = DEVICES[device]
        state, detected = conditioned_state(run)
        table, reference = pattern_table(state, detected), pattern_table(state, detected)
        for e in EFFICIENCIES:
            det = DetectorModel(e, resolves)
            for readings in readings_list:
                assert exact_outcome(*reweight(table, readings, det)) == exact_outcome(
                    *full_scan_reweight(reference, readings, det)), (e, readings)

    # the second order starts where fewer patterns get non-zero coefficients,
    # so a pattern list kept from an earlier row would drop patterns
    @pytest.mark.parametrize("order", [(0.5, 1.0, 0.5, 0.0, 0.5), (1.0, 0.5, 0.0, 0.5)],
                             ids=["from-0.5", "from-1"])
    @pytest.mark.parametrize("device", ["number", "pol"])
    def test_reused_table_follows_the_zero_layout(self, device, order):
        run, (readings, *_) = DEVICES[device]
        state, detected = conditioned_state(run)
        table = pattern_table(state, detected)
        for e in order:
            det = DetectorModel(e)
            reference = pattern_table(state, detected)
            assert exact_outcome(*reweight(table, readings, det)) == exact_outcome(
                *full_scan_reweight(reference, readings, det)), e

    def test_underflowed_product_is_skipped(self):
        state, detected = conditioned_state(DEVICES["pol"][0])
        table = pattern_table(state, detected)
        det = DetectorModel(1e-160)
        # every coefficient at n >= 1 is non-zero, and some pattern has no
        # empty channel ...
        assert all(povm_element(1, det, table.top)[1:])
        assert any(all(pattern) for pattern in table.patterns)
        # ... but each product of four is below the smallest denormal
        prob, out = reweight(table, (1, 1, 1, 1), det)
        assert (prob, out.branches) == (0.0, ())


def heralded_and_full_tables(make):
    """The device `make()` builds, and the pattern table of the same evolution
    without its floor."""
    seen = []

    def recording(t, state, floor):
        seen.append((t, state, floor))
        return optics.apply(t, state, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocols, "apply", recording)
        device = make()
    ((t, state, floor),) = seen
    return device, pattern_table(optics.apply(t, state), floor)


def kets(table):
    return sum(len(amps) for _, amps in table.patterns.values())


class TestHeraldedTable:
    @pytest.mark.parametrize("resolves", [True, False], ids=["counting", "threshold"])
    @pytest.mark.parametrize("make", [
        lambda: protocols.number_device(SPEC, 0.5),
        lambda: protocols.number_device(SPEC, 0.37),
        lambda: protocols.number_device(SPEC, 0.8),
        lambda: protocols.pol_device(SPEC, PolarizationAngle.diagonal()),
        lambda: protocols.pol_device(SPEC, ANGLE),
        lambda: protocols.pol_device(SPEC, PolarizationAngle.bloch_average()),
    ], ids=["number-T0.5", "number-T0.37", "number-T0.8", "pol-diagonal", "pol-1.1,2.3",
            "pol-average"])
    def test_reweights_like_the_full_table(self, make, resolves):
        device, full = heralded_and_full_tables(make)
        assert kets(device.table) < kets(full)
        for e in EFFICIENCIES:
            det = DetectorModel(e, resolves)
            assert exact_outcome(*reweight(device.table, device.readings, det)) == (
                exact_outcome(*reweight(full, device.readings, det))), e

    def test_pol_table_work_count(self):
        spec, angle = NumberInputSpec.from_gamma(1.0), PolarizationAngle.from_bloch(1.1, 2.3)
        device, full = heralded_and_full_tables(lambda: protocols.pol_device(spec, angle))
        assert (len(full.patterns), kets(full)) == (175, 558)
        assert (len(device.table.patterns), kets(device.table)) == (11, 18)


class TestLossAncillaOracle:
    """Cross-check: an inefficient counter equals a transmission-eta2 beam
    splitter into an unobserved ancilla followed by an ideal counter."""

    def lossy_via_ancilla(self, psi, channel, reading, efficiency):
        anc = Channel(f"{channel.spatial}_loss")
        ext = tensor(psi, FockState.vacuum((anc,)))
        bs = beam_splitter(BeamSplitterSpec(efficiency), channel, anc)
        ext = apply(bs, ext)
        total = 0.0
        branches = []
        # no more photons can be lost than the state holds
        for lost in range(max(sum(occ) for occ in psi.amplitudes) + 1):
            prob, out = condition(ext, {channel: reading, anc: lost})
            total += prob
            branches.extend(out.branches)
        return total, MixedState(tuple(branches))

    def test_probabilities_match(self):
        rng = np.random.default_rng(21)
        det = DetectorModel(0.66)
        for _ in range(25):
            psi = random_state(rng, (A, B), 3, 3)
            for reading in range(3):
                direct, _ = condition(psi, {A: reading}, det)
                via_ancilla, _ = self.lossy_via_ancilla(psi, A, reading, 0.66)
                assert direct == pytest.approx(via_ancilla, abs=1e-12)

    def test_conditional_states_match(self):
        rng = np.random.default_rng(22)
        det = DetectorModel(0.52)
        for _ in range(10):
            psi = random_state(rng, (A, B), 3, 3)
            probe = random_state(rng, (B,), 3, 3)
            p1, out1 = condition(psi, {A: 1}, det)
            p2, out2 = self.lossy_via_ancilla(psi, A, 1, 0.52)
            if p1 == 0.0:
                continue
            f1 = fidelity(out1.renormalized(), probe)
            f2 = fidelity(out2.renormalized(), probe)
            assert f1 == pytest.approx(f2, abs=1e-12)


class TestFidelity:
    def test_pure_match(self):
        one = FockState.basis((A,), (1,))
        assert fidelity(MixedState.from_pure(one), one) == pytest.approx(1.0)

    def test_classical_mixture(self):
        f = 0.37
        zero, one = FockState.basis((A,), (0,)), FockState.basis((A,), (1,))
        rho = MixedState(((1 - f, zero), (f, one)))
        assert fidelity(rho, one) == pytest.approx(f)

    def test_depolarized_polarization(self):
        h = Channel("a", "H")
        v = Channel("a", "V")
        sh = FockState.basis((h, v), (1, 0))
        sv = FockState.basis((h, v), (0, 1))
        diag = FockState((h, v), {(1, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
        rho = MixedState(((0.5, sh), (0.5, sv)))
        assert fidelity(rho, diag) == pytest.approx(0.5)

    def test_requires_unit_weight(self):
        one = FockState.basis((A,), (1,))
        with pytest.raises(ValueError):
            fidelity(MixedState(((0.5, one),)), one)

    def test_zero_weight_rejected(self):
        one = FockState.basis((A,), (1,))
        with pytest.raises(ValueError):
            fidelity(MixedState(()), one)

    def test_nan_weight_rejected(self):
        table = PatternTable((A,), (B,), {(1,): (math.nan, {(1,): 1.0})})
        prob, out = reweight(table, (1,))
        assert math.isnan(prob)
        with pytest.raises(ValueError, match="ensemble weight nan"):
            fidelity(out, FockState.basis((B,), (1,)))

    def test_given_total_renormalizes_bit_for_bit(self):
        st = heralded_state(c=(0.3, 0.8, math.sqrt(1 - 0.09 - 0.64)))
        probe = FockState((B,), {(0,): 0.6, (1,): 0.8j})
        for e in (0.35, 0.88):
            prob, out = condition(st, {A: 0, C: 1, D: 0}, DetectorModel(e))
            assert len(out.branches) > 1
            assert TargetOverlaps(probe).fidelity(out, prob) == fidelity(out.renormalized(), probe)

    def test_wrong_total_rejected(self):
        one = FockState.basis((A,), (1,))
        rho = MixedState(((0.5, one),))
        with pytest.raises(ValueError, match="ensemble weight"):
            TargetOverlaps(one).fidelity(rho, 0.4)
        for total in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="zero-weight"):
                TargetOverlaps(one).fidelity(rho, total)


class TestClosedFormFidelity:
    def test_reference_points(self):
        eta = math.sqrt(0.88)
        assert closed_form_fidelity(0.0, eta) == pytest.approx(0.8929, abs=5e-5)
        assert closed_form_fidelity(10.0, eta) == pytest.approx(0.8026, abs=5e-5)

    def test_perfect_detectors(self):
        for gamma in (0.0, 0.3, 7.0):
            assert closed_form_fidelity(gamma, 1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_fidelity(-1.0, 0.5)
        with pytest.raises(ValueError):
            closed_form_fidelity(1.0, 1.5)

    @pytest.mark.parametrize("gamma, eta2", [(3e307, 0.5), (3e307, 1.0), (1e308, 0.75)])
    def test_overflowing_term_raises(self, gamma, eta2):
        with pytest.raises(ValueError, match="overflows"):
            closed_form_fidelity(gamma, math.sqrt(eta2))

    def test_large_finite_terms_still_evaluate(self):
        assert closed_form_fidelity(1e300, math.sqrt(0.5)) == pytest.approx(5 / 11)
