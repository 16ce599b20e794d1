"""Property tests of `optics.apply` over generated states and transforms.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qndsim.fock import Channel, FockState
from qndsim.optics import apply, matrix_transform

from test_optics import exact_items

REPRODUCIBLE = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def transform_and_state(draw):
    """A random unitary on some of 2-4 channels (a phase on one of them) and a
    state of up to six kets with at most two photons per channel."""
    n_ch = draw(st.integers(2, 4))
    channels = tuple(Channel(f"m{i}") for i in range(n_ch))
    acted = draw(st.lists(st.sampled_from(channels), min_size=1, max_size=n_ch, unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    u = unitary_group.rvs(len(acted), random_state=seed) if len(acted) > 1 else [[1j]]
    part = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    amps = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n_ch),
        st.builds(complex, part, part), min_size=1, max_size=6))
    return matrix_transform(acted, u), FockState(channels, amps)


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
