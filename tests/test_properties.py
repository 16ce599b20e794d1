"""Property tests of `optics.apply`, `optics.compose`, the element builders
and `detection.condition` over generated states, transforms, parameters and
detectors; of `circuits.parse_complex` over generated literals; and of the
CLI over command lines drawn from each command's declared parameters.

Examples are derandomized and no example database is kept, so every run
checks the same cases.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qndsim.circuits import parse_complex
from qndsim.cli import main
from qndsim.cmdline import FILE, FLOAT, INTEGER, PATH
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

from test_cli import DATA, invoke, parse_csv, sweep_grid
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
@given(transform_state_and_floor())
def test_floored_apply_is_apply_restricted_to_the_floor(case):
    """The floor only skips work: `apply` with a floor is `apply` without one,
    restricted to the kets that meet it, with the same keys in the same order
    and the same bits.  A transform on some of the channels leaves the others'
    columns at 0 off the diagonal, so the floor's per-channel limits bind."""
    t, state, floor = case
    at = {state.channels.index(c): k for c, k in floor.items()}
    kept = {occ: a for occ, a in apply(t, state).amplitudes.items()
            if all(occ[i] >= k for i, k in at.items())}
    assert exact_items(apply(t, state, floor).amplitudes) == exact_items(kept)


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


LITERAL_PARTS = st.sampled_from(["0", "1", ".5", "e", "e-3", "+", "-", "i", "j", "J", "I",
                                 "inf", "INF", "Infinity", "infinity", "nan", "nf", "jnf",
                                 "nity", "jnjty", "(", ")", " "])


@REPRODUCIBLE
@given(st.lists(LITERAL_PARTS, max_size=6).map("".join))
def test_parse_complex_reads_old_literals_the_same(text):
    """Every literal that read when every `i` became `j` reads the same, bit
    for bit; of the rest, only spellings of infinity now read."""
    try:
        old = complex(text.strip().replace("i", "j"))
    except ValueError:
        old = None
    try:
        new = parse_complex(text)
    except ValueError:
        new = None
    if old is not None:
        assert repr(new) == repr(old)
    elif new is not None:
        assert "inf" in text.lower()


# the values a number option is drawn from: signed zeros, subnormals, halves,
# huge and non-finite values
NUMBERS = ("0.5", "1", "0", "-0", "5e-324", "1e-320", "1e-200", "1e150", "1e200", "1e308",
           "inf", "-inf", "nan")
numbers = st.sampled_from(NUMBERS)
CHANNELS = {str(DATA / "four_mode_interferometer.qc"): 4,
            str(DATA / "six_channel_pol_device.qc"): 6}


@st.composite
def amp(draw, channels):
    """An `--amp` ket of at most four photons, 171 in one channel, or a
    wrong number of channels."""
    n = draw(st.sampled_from((channels, channels, channels, channels - 1, channels + 1)))
    occ = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda o: sum(o) <= 4)
               | st.just([0] * (n - 1) + [171]))
    return f"{','.join(map(str, occ))}={draw(numbers)}{draw(st.sampled_from(('', 'i')))}"


def joined(sep, low, high, values=numbers):
    return st.lists(values, min_size=low, max_size=high).map(sep.join)


def text_values(dest, path):
    """A strategy for the text of parameter `dest`; `amps` are kets on `path`."""
    return {
        "gamma_list": joined(",", 1, 2),
        "eta2_range": st.builds("{}:{}:{}".format, numbers, numbers, st.integers(0, 5)),
        "theta": joined(",", 1, 3),
        "input_text": joined(",", 2, 4, st.builds("{}{}".format, numbers,
                                                   st.sampled_from(("", "i")))),
        "amps": amp(CHANNELS.get(path, 4)),
    }[dest]


@st.composite
def command_line(draw, prefix, out_dir):
    """argv that starts with `prefix`, a command and the values of its first
    positionals, then has every other required parameter and each other
    option in about two draws of three (so that `run kerr-tau` often has all
    four of its own), each value drawn by the parameter's type."""
    name, *fixed = prefix
    cmd = main.commands[name]
    path = None
    argv = list(prefix)
    for p in cmd.params:
        if p in cmd.positionals[:len(fixed)]:
            continue
        if p.is_option and not p.required and not draw(st.sampled_from((True, True, False))):
            continue
        if p.type is FLOAT:
            values = numbers
        elif p.type is INTEGER:
            values = st.sampled_from(("1", "3", "-1", str(2**1023), "1" + "0" * 400, *NUMBERS))
        elif p.type is PATH:
            values = st.sampled_from(sorted(CHANNELS))
        elif p.type is FILE:
            values = st.sampled_from([str(out_dir / "out.csv"), str(out_dir),
                                      str(out_dir / "missing" / "out.csv"),
                                      str(out_dir / ("x" * 300))])
        elif p.type.choices:
            values = st.sampled_from(p.type.choices)
        else:
            values = text_values(p.dest, path)
        for value in draw(st.lists(values, min_size=1, max_size=2 if p.multiple else 1)):
            if p.type is PATH:
                path = value
            argv += [p.names[0], value] if p.is_option else [value]
    return argv


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep-out")


# each `run` protocol on its own, so that each meets its own options
COMMAND_LINES = [("run", protocol) for protocol in main.commands["run"].positionals[0].type.choices]
COMMAND_LINES += [(name,) for name in sorted(main.commands) if name != "run"]


@pytest.mark.parametrize("prefix", COMMAND_LINES, ids=" ".join)
@REPRODUCIBLE
@given(data=st.data())
def test_no_command_ends_in_a_traceback(prefix, out_dir, data):
    """Every command line ends in SystemExit 0, 1 or 2, and exit 1 is a
    runtime error reported as `error: <message>`."""
    res = invoke(*data.draw(command_line(prefix, out_dir)))
    assert res.exit_code in (0, 1, 2)
    if res.exit_code == 1:
        assert res.stderr.startswith("error: ")


@st.composite
def sweep_case(draw):
    """A protocol, one or two gammas, an eta2 grid of 2-6 steps and the
    protocol's one device parameter, as the argv `sweep` and `run` share."""
    protocol = draw(st.sampled_from(("number", "pol")))
    gammas = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=2))
    start, stop = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                                       unique=True)))
    steps = draw(st.integers(2, 6))
    if protocol == "number":
        t = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        device = ("-T", repr(t))
    else:
        theta = draw(st.floats(0.0, math.pi))
        phi = draw(st.floats(0.0, 2 * math.pi))
        device = ("--theta", f"{theta!r},{phi!r}")
    return protocol, gammas, (start, stop, steps), device


@REPRODUCIBLE
@given(sweep_case())
def test_every_sweep_row_equals_the_standalone_run(case):
    """Each row's success probability and fidelity are the bytes `run` prints
    for the same gamma, eta2 and device parameter."""
    protocol, gammas, (start, stop, steps), device = case
    res = invoke("sweep", "--protocol", protocol, "--gamma", ",".join(map(repr, gammas)),
                 "--eta2", f"{start!r}:{stop!r}:{steps}", *device)
    assert res.exit_code == 0
    rows = parse_csv(res.stdout)
    grid = sweep_grid(gammas, start, stop, steps)
    assert len(rows) == len(grid)
    for row, (gamma, eta2) in zip(rows, grid):
        alone = invoke("run", protocol, "--gamma", repr(gamma), "--eta2", repr(eta2), *device)
        report = dict(line.split(" ", 1) for line in alone.stdout.splitlines()[:3])
        assert (row["success_prob"], row["fidelity_sim"]) == (
            report["success_probability"], report["fidelity"])
