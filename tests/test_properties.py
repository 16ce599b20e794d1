"""Property tests of `optics.apply`, `optics.compose`, the element builders
and `detection.condition` over generated states, transforms, parameters and
detectors.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qndsim.detection import DetectorModel, condition
from qndsim.fock import Channel, FockState, Mode
from qndsim.optics import (
    BeamSplitterSpec,
    ModeTransform,
    apply,
    beam_splitter,
    compose,
    matrix_transform,
    phase_shifter,
    polarization_rotator,
    polarizing_beam_splitter,
)

from test_optics import exact_items

REPRODUCIBLE = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def kets(n_ch: int):
    """Up to six amplitudes on `n_ch` channels, at most two photons per channel."""
    part = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n_ch),
        st.builds(complex, part, part), min_size=1, max_size=6)


@st.composite
def transform_and_state(draw):
    """A random unitary on some of 2-4 channels (a phase on one of them) and a
    state of up to six kets with at most two photons per channel."""
    n_ch = draw(st.integers(2, 4))
    channels = tuple(Channel(f"m{i}") for i in range(n_ch))
    acted = draw(st.lists(st.sampled_from(channels), min_size=1, max_size=n_ch, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    u = unitary_group.rvs(len(acted), random_state=seed) if len(acted) > 1 else [[1j]]
    return matrix_transform(acted, u), FockState(channels, draw(kets(n_ch)))


@st.composite
def transform_state_and_floor(draw):
    """As `transform_and_state`, with a floor of 0-2 photons on some channels."""
    t, state = draw(transform_and_state())
    floor = draw(st.dictionaries(st.sampled_from(state.channels), st.integers(0, 2)))
    return t, state, floor


@st.composite
def state_and_detector(draw):
    """A normalized state of up to six kets on 2-4 channels, some of them
    detected, and a detector model of either kind."""
    n_ch = draw(st.integers(2, 4))
    channels = tuple(Channel(f"m{i}") for i in range(n_ch))
    state = FockState(channels, draw(kets(n_ch)))
    assume(state.norm_squared() > 0.0)
    detected = draw(st.lists(st.sampled_from(channels), min_size=1, max_size=n_ch, unique=True))
    det = DetectorModel(draw(st.floats(0.0, 1.0)), draw(st.booleans()))
    return state.normalized(), detected, det


def sector(state: FockState, channels, photons: int) -> dict:
    """The kets of `state` with `photons` photons on `channels`."""
    idx = [state.channels.index(c) for c in channels]
    return {occ: a for occ, a in state.amplitudes.items()
            if sum(occ[i] for i in idx) == photons}


def sector_norms(state: FockState, channels) -> dict:
    """Squared norm of each sector of `state`, by photon number on `channels`."""
    idx = [state.channels.index(c) for c in channels]
    norms: dict[int, list[float]] = {}
    for occ, a in state.amplitudes.items():
        norms.setdefault(sum(occ[i] for i in idx), []).append(abs(a) ** 2)
    return {k: math.fsum(v) for k, v in norms.items()}


@REPRODUCIBLE
@given(transform_and_state())
def test_restricting_a_sector_commutes_with_apply(case):
    """A transform keeps the photon number on its channels, so each sector
    evolves on its own: restrict then apply equals apply then restrict, bit
    for bit and key order included."""
    t, state = case
    full = apply(t, state)
    for photons in sector_norms(state, t.channels):
        alone = apply(t, FockState(state.channels, sector(state, t.channels, photons)))
        assert exact_items(alone.amplitudes) == exact_items(sector(full, t.channels, photons))


@REPRODUCIBLE
@given(transform_and_state())
def test_apply_preserves_norm_and_photon_number(case):
    """The norm of each photon-number sector is kept: of all channels, of the
    transform's channels and of the channels it leaves alone."""
    t, state = case
    out = apply(t, state)
    untouched = [c for c in state.channels if c not in t.channels]
    for channels in (t.channels, state.channels, untouched):
        before, after = sector_norms(state, channels), sector_norms(out, channels)
        assert after.keys() <= before.keys()
        for photons, norm in before.items():
            assert math.isclose(after.get(photons, 0.0), norm, rel_tol=1e-12, abs_tol=1e-12)


@REPRODUCIBLE
@given(state_and_detector())
def test_condition_probabilities_sum_to_one(case):
    """Over every tuple of readings the probabilities sum to 1: each POVM is
    complete and every detected pattern is counted once."""
    state, detected, det = case
    # at most two photons per channel; a threshold detector reads 0 or 1
    readings = range(3) if det.resolves_photon_number else range(2)
    probs = [condition(state, dict(zip(detected, r)), det)[0]
             for r in itertools.product(readings, repeat=len(detected))]
    assert abs(math.fsum(probs) - 1.0) <= 1e-12


@REPRODUCIBLE
@given(transform_state_and_floor())
def test_apply_output_meets_the_constructor_invariants(case):
    """`apply` builds its result without `FockState`'s checks; running them
    changes nothing: same kets, same key order, same bits."""
    t, state, floor = case
    out = apply(t, state, floor)
    again = FockState(out.channels, out.amplitudes)
    assert again.channels == out.channels
    assert exact_items(again.amplitudes) == exact_items(out.amplitudes)


@REPRODUCIBLE
@given(transform_and_state())
def test_apply_commutes_with_power_of_two_scaling(case):
    """Residues are pruned relative to the input amplitudes that feed them, so
    scaling the input by 2^-100 (to |a|^2 < 1e-60, far under any absolute
    cutoff) scales every output amplitude exactly and keeps the same kets."""
    t, state = case
    parts = [x for a in state.amplitudes.values() for x in (a.real, a.imag) if x]
    assume(min(map(abs, parts), default=1.0) > 1e-6)  # so that nothing underflows
    scale = 2.0**-100
    out = apply(t, state).amplitudes
    scaled = apply(t, state.scaled(scale)).amplitudes
    assert exact_items(scaled) == exact_items({occ: a * scale for occ, a in out.items()})


@REPRODUCIBLE
@given(transform_and_state(), st.data())
def test_embedded_transforms_pass_the_unitarity_check(case, data):
    """`embedded` skips the unitarity check; the padded matrix passes it."""
    t, state = case
    e = t.embedded(data.draw(st.permutations(state.channels)))
    assert ModeTransform(e.channels, e.matrix).channels == e.channels


ANGLES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@REPRODUCIBLE
@given(st.floats(0.0, 1.0), st.booleans(), ANGLES, ANGLES, st.booleans())
def test_element_builders_are_unitary_by_construction(t, flip, phi, angle, polarized):
    """The builders validate their parameters, not their matrices: over the
    whole parameter domain, every matrix they build passes the check that
    `ModeTransform(...)` runs."""
    a, b = Mode("a", polarized), Mode("b", polarized)
    pa, pb = Mode("a", True), Mode("b", True)
    built = [beam_splitter(BeamSplitterSpec(t, flip), a, b), phase_shifter(phi, a),
             polarization_rotator(angle, pa), polarizing_beam_splitter(pa, pb)]
    for e in built:
        assert ModeTransform(e.channels, e.matrix).channels == e.channels


@st.composite
def three_transforms(draw):
    """Three random unitaries, each on some of four channels."""
    channels = [Channel(f"m{i}") for i in range(4)]
    out = []
    for _ in range(3):
        acted = draw(st.lists(st.sampled_from(channels), min_size=2, max_size=4, unique=True))
        seed = draw(st.integers(0, 2**32 - 1))
        out.append(matrix_transform(acted, unitary_group.rvs(len(acted), random_state=seed)))
    return out


@REPRODUCIBLE
@given(three_transforms())
def test_compose_is_associative(case):
    """Both groupings give the same unitary on the same channel order, up to
    the roundoff of multiplying in another order."""
    t1, t2, t3 = case
    left = compose(compose(t1, t2), t3)
    right = compose(t1, compose(t2, t3)).embedded(left.channels)
    assert np.abs(left.matrix - right.matrix).max() <= 1e-12


def test_hong_ou_mandel_dip():
    """One photon into each port of a 50:50 splitter: the |1,1> amplitude
    t^2 - r^2 cancels and is cut, and the pair leaves together, |2,0> or
    |0,2> with probability 1/2 each."""
    a, b = Channel("a"), Channel("b")
    out = apply(beam_splitter(BeamSplitterSpec(0.5), a, b), FockState((a, b), {(1, 1): 1}))
    assert out.amplitudes.keys() == {(2, 0), (0, 2)}  # no |1,1>
    for amp in out.amplitudes.values():
        assert abs(abs(amp) ** 2 - 0.5) <= 1e-12
