"""End-to-end QND detection protocols.

Five devices are assembled here on top of the fock/optics/detection engine:

* number_qnd      — four-mode interferometric device heralding a single photon
                    by a two-detector coincidence plus vacuum post-selection.
* pol_qnd         — six-channel polarization-preserving variant heralding a
                    single photon of unknown polarization by a four-fold
                    coincidence.
* teleport_*      — teleportation-based devices using a down-conversion pair
                    source and a partial (50%) linear-optics Bell analyzer.
* kerr_qnd        — cross-phase (Kerr) Mach-Zehnder device.

Plus two small calculators: the dimensionless Kerr coupling for given material
parameters, and the noon-state phase-resolution bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .detection import (
    IDEAL,
    DetectorModel,
    PatternTable,
    TargetOverlaps,
    condition,
    pattern_table,
    reweight,
)
from .fock import Channel, FockState, MixedState, Mode
from .optics import (
    BeamSplitterSpec,
    ModeTransform,
    apply,
    beam_splitter,
    kerr_gate,
    KerrGateSpec,
    matrix_transform,
)

__all__ = [
    "EvolvedDevice",
    "NumberInputSpec",
    "PolarizationAngle",
    "PdcSourceSpec",
    "KerrStrengthParams",
    "ProtocolOutcome",
    "number_device_transform",
    "pol_device_transform",
    "number_device",
    "pol_device",
    "number_qnd",
    "pol_qnd",
    "pol_fidelity_approx",
    "teleport_number_qnd",
    "teleport_pol_qnd",
    "kerr_qnd",
    "kerr_tau",
    "noon_bound",
    "pdc_state",
]


@dataclass(frozen=True)
class NumberInputSpec:
    """Input c0|0> + c1|1> + c2|2> in normalized-ket amplitudes."""

    c0: complex
    c1: complex
    c2: complex

    def __post_init__(self):
        total = abs(self.c0) ** 2 + abs(self.c1) ** 2 + abs(self.c2) ** 2
        if not abs(total - 1.0) <= 1e-12:  # also rejects NaN
            raise ValueError(f"input coefficients not normalized: sum {total}")

    @property
    def gamma(self) -> float:
        """Two-photon fraction |c2|^2 / |c1|^2."""
        if self.c1 == 0:
            return math.inf if self.c2 != 0 else 0.0
        return abs(self.c2) ** 2 / abs(self.c1) ** 2

    @classmethod
    def from_gamma(cls, gamma: float, c0: complex = 0.0) -> "NumberInputSpec":
        """One- and two-photon amplitudes in ratio |c2|^2/|c1|^2 = gamma."""
        if not 0.0 <= gamma < math.inf:
            raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
        rest = 1.0 - abs(c0) ** 2
        c1 = math.sqrt(rest / (1.0 + gamma))
        c2 = math.sqrt(rest * gamma / (1.0 + gamma))
        return cls(c0, c1, c2)


@dataclass(frozen=True)
class PolarizationAngle:
    """Polarization qubit alpha|H> + beta|V>."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        total = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(total - 1.0) <= 1e-12:  # also rejects NaN
            raise ValueError(f"polarization not normalized: sum {total}")

    @classmethod
    def from_bloch(cls, theta: float, phi: float = 0.0) -> "PolarizationAngle":
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"Bloch angles must be finite, got theta={theta}, phi={phi}")
        return cls(math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0))

    @classmethod
    def diagonal(cls) -> "PolarizationAngle":
        """(|H> + |V>)/sqrt2."""
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)

    @classmethod
    def bloch_average(cls) -> "PolarizationAngle":
        """Angle with |alpha*beta|^2 = 1/6, the uniform Bloch-sphere average.

        The partial Bell analyzer's false-acceptance rate depends on the
        polarization only through |alpha*beta|^2, so this angle reproduces the
        sphere-averaged teleportation fidelity.
        """
        theta = math.asin(math.sqrt(2.0 / 3.0))
        return cls.from_bloch(theta)


@dataclass(frozen=True)
class PdcSourceSpec:
    """Down-conversion pair source, truncated at one pair (amplitude epsilon)."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon out of range (0, 1): {self.epsilon}")


@dataclass(frozen=True)
class KerrStrengthParams:
    """Material/pulse parameters for the Kerr coupling (SI units)."""

    omega: float  # carrier frequency, rad/s
    delta_t: float  # interaction time, s
    chi3: float  # third-order susceptibility, m^2/V^2
    volume: float  # interaction volume, m^3

    def __post_init__(self):
        for name in ("omega", "delta_t", "chi3", "volume"):
            if not 0.0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ProtocolOutcome:
    success_probability: float
    conditional_output: MixedState  # unnormalized; weights sum to success prob
    fidelity: float
    target: FockState


def _outcome(
    prob: float, out: MixedState, overlaps: TargetOverlaps, total: float | None = None
) -> ProtocolOutcome:
    """`total` is the weight of `out`; by default `prob`, the fsum of its weights."""
    if math.isnan(prob):
        raise ValueError("success probability is NaN")
    fid = overlaps.fidelity(out, prob if total is None else total) if prob > 0.0 else 0.0
    return ProtocolOutcome(prob, out, fid, overlaps.target)


@dataclass(frozen=True)
class EvolvedDevice:
    """A heralding device after evolution, before detection.

    Linear-optical evolution does not depend on the detector efficiency, so the
    evolved state is tabulated once by heralding pattern and `outcome` only
    applies a detector model: a sweep over efficiencies evolves once, and each
    branch's overlap with the target is computed once.
    """

    table: PatternTable
    readings: tuple[int, ...]  # success signature, in table.detected order
    target: FockState
    _overlaps: TargetOverlaps = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_overlaps", TargetOverlaps(self.target))

    def outcome(self, det: DetectorModel = IDEAL) -> ProtocolOutcome:
        prob, out = reweight(self.table, self.readings, det)
        return _outcome(prob, out, self._overlaps)


# ---------------------------------------------------------------------------
# Four-mode number device
# ---------------------------------------------------------------------------

_A, _B, _C, _D = Channel("a"), Channel("b"), Channel("c"), Channel("d")
# success readings per detected channel
_NUMBER_SUCCESS = {_A: 0, _C: 1, _D: 1}


def number_device_transform(transmission: float = 0.5) -> ModeTransform:
    """Four-channel network: 50:50 splitter merging the two probe modes c, d,
    followed by transmission-T splitters mixing each 50:50 output with the
    signal mode a and the auxiliary vacuum mode b respectively; its matrix
    is entered directly.  At T=1/2 the columns reduce to
        a -> (a - c)/sqrt2,        b -> (b - d)/sqrt2,
        c -> (a + b + c + d)/2,    d -> (-a + b - c + d)/2.
    """
    BeamSplitterSpec(transmission)  # validates T
    # each entry is the splitter chain's one product of t, r and h = sqrt(1/2)
    t, r, h = math.sqrt(transmission), math.sqrt(1.0 - transmission), math.sqrt(0.5)
    cols = [[t, 0.0, -r, 0.0], [0.0, t, 0.0, -r],
            [r * h, r * h, t * h, t * h], [-r * h, r * h, -t * h, t * h]]
    # + 0.0 turns the -0.0 of a zero factor at T = 0 or 1 into the chain's 0.0
    rows = [[z + 0.0 for z in row] for row in zip(*cols)]
    return matrix_transform((_A, _B, _C, _D), rows)


def number_device(input: NumberInputSpec, transmission: float = 0.5) -> EvolvedDevice:
    """The four-mode interferometer evolved on `input`, ready for any detector.

    The signal enters mode a, probes |1,1> enter c and d, b is vacuum.  Success
    signature: readings (a -> 0, c -> 1, d -> 1); the heralded output lives in
    mode b with target |1>.
    """
    if not 0.0 < transmission < 1.0:
        raise ValueError(f"transmission must be in (0, 1), got {transmission}")
    channels = (_A, _B, _C, _D)
    amps = {
        (0, 0, 1, 1): input.c0,
        (1, 0, 1, 1): input.c1,
        (2, 0, 1, 1): input.c2,
    }
    state = FockState(channels, amps)
    # a reading of k photons needs k photons: expand only kets that can herald
    state = apply(number_device_transform(transmission), state, _NUMBER_SUCCESS)
    target = FockState.basis((_B,), (1,))
    table = pattern_table(state, _NUMBER_SUCCESS)
    return EvolvedDevice(table, tuple(_NUMBER_SUCCESS.values()), target)


def number_qnd(
    input: NumberInputSpec, transmission: float = 0.5, det: DetectorModel = IDEAL
) -> ProtocolOutcome:
    """Heralded single-photon detection in the four-mode interferometer
    (see `number_device`)."""
    return number_device(input, transmission).outcome(det)


# ---------------------------------------------------------------------------
# Six-channel polarization-preserving device
# ---------------------------------------------------------------------------

_PA = Mode("a", polarized=True)
_P_AH, _P_AV = _PA.channels
_P_CV = Channel("c", "V")
_P_DH = Channel("d", "H")
_P_EV = Channel("e", "V")
_P_FH = Channel("f", "H")
_POL_CHANNELS = (_P_AH, _P_AV, _P_CV, _P_DH, _P_EV, _P_FH)
# success readings per detected channel
_POL_SUCCESS = {_P_CV: 1, _P_DH: 1, _P_EV: 1, _P_FH: 1}


def pol_device_transform() -> ModeTransform:
    """6x6 unitary of the polarization-preserving device.

    Channel order: (a.H, a.V, c.V, d.H, e.V, f.H); column j is the image of
    channel j.  The matrix is entered directly (the published element-by-element
    network ordering is ambiguous; the matrix itself is authoritative) and
    verified unitary at construction.
    """
    s2, s3, s6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)
    cols = [
        [1 / 3, 0, -s3 / 3, s3 / 3, -1 / 3, 1 / 3],
        [0, 1 / 3, -s3 / 3, -s3 / 3, -1 / 3, -1 / 3],
        [0, 2 / (3 * s2), s3 / (3 * s2), s3 / (3 * s2), -2 / (3 * s2), -2 / (3 * s2)],
        [-2 / (3 * s2), 0, -s3 / (3 * s2), s3 / (3 * s2), 2 / (3 * s2), -2 / (3 * s2)],
        [0, 2 / s6, 0, 0, 1 / s6, 1 / s6],
        [-2 / s6, 0, 0, 0, -1 / s6, 1 / s6],
    ]
    return matrix_transform(_POL_CHANNELS, list(zip(*cols)))


_POL_TRANSFORM = pol_device_transform()


def _pol_input_amplitudes(
    input: NumberInputSpec, theta: PolarizationAngle
) -> dict[tuple[int, int], complex]:
    """Amplitudes of c0|0> + c1|theta> + c2|2 theta> on the (H, V) pair."""
    al, be = theta.alpha, theta.beta
    return {
        (0, 0): input.c0,
        (1, 0): input.c1 * al,
        (0, 1): input.c1 * be,
        (2, 0): input.c2 * al**2,
        (1, 1): input.c2 * math.sqrt(2.0) * al * be,
        (0, 2): input.c2 * be**2,
    }


def pol_device(input: NumberInputSpec, theta: PolarizationAngle) -> EvolvedDevice:
    """The polarization-preserving device evolved on `input`, ready for any
    detector.

    The signal qubit enters the polarized mode a; four probe photons enter
    c.V, d.H, e.V, f.H.  Success signature: exactly one photon in each of the
    four probe output channels, no condition on the a pair.  Target: |theta>
    on (a.H, a.V).
    """
    sig_amps = _pol_input_amplitudes(input, theta)
    amps = {
        (ka_h, ka_v, 1, 1, 1, 1): amp for (ka_h, ka_v), amp in sig_amps.items()
    }
    state = FockState(_POL_CHANNELS, amps)
    # a reading of k photons needs k photons: expand only kets that can herald
    state = apply(_POL_TRANSFORM, state, _POL_SUCCESS)
    target = FockState((_P_AH, _P_AV), {(1, 0): theta.alpha, (0, 1): theta.beta})
    table = pattern_table(state, _POL_SUCCESS)
    return EvolvedDevice(table, tuple(_POL_SUCCESS.values()), target)


def pol_qnd(
    input: NumberInputSpec, theta: PolarizationAngle, det: DetectorModel = IDEAL
) -> ProtocolOutcome:
    """Polarization-preserving heralded single-photon detection (see
    `pol_device`)."""
    return pol_device(input, theta).outcome(det)


def pol_fidelity_approx(gamma: float, eta: float) -> float:
    """Reference benchmark fidelity for the polarization device (rounded
    coefficients; see the acceptance tests for its relation to exact
    simulation).  `eta` is the detection amplitude, eta^2 the probability.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta out of range [0, 1]")
    lt = 1.0 - eta**2
    den = 1.0 + (0.12 + 1.22 * gamma) * lt + 0.93 * gamma * lt**2
    # the numerator's term is below one of den's, so any overflow leaves den
    # inf or NaN, where the ratio would print 0 or nan
    if not math.isfinite(den):
        raise ValueError(f"closed-form fidelity overflows at gamma={gamma}")
    return (1.0 + 0.93 * gamma * lt) / den


# ---------------------------------------------------------------------------
# Teleportation-based devices
# ---------------------------------------------------------------------------

_TS = Mode("in", polarized=True)  # signal input
_TP1 = Mode("p1", polarized=True)  # pair arm meeting the input
_TP2 = Mode("p2", polarized=True)  # distant pair arm (the output)
_TS_H, _TS_V = _TS.channels
_TP1_H, _TP1_V = _TP1.channels
_TP2_H, _TP2_V = _TP2.channels
_TELEPORT_CHANNELS = _TS.channels + _TP1.channels + _TP2.channels
_TELEPORT_BS = beam_splitter(BeamSplitterSpec(0.5), _TS, _TP1).embedded(_TELEPORT_CHANNELS)

# Accepted partial-Bell-analyzer signatures over (in.H, in.V, p1.H, p1.V)
# after the 50:50 beam splitter, and whether a sigma_z correction is applied
# to the distant arm.  One photon per output port (any polarization) heralds
# the singlet; two photons in one port with orthogonal polarizations herald
# the triplet that a sigma_z feed-forward repairs.  Same-pol bunched events
# are rejected (they herald the unrepairable pair of Bell states).
_BELL_PATTERNS: tuple[tuple[tuple[int, int, int, int], bool], ...] = (
    ((1, 0, 1, 0), False),
    ((1, 0, 0, 1), False),
    ((0, 1, 1, 0), False),
    ((0, 1, 0, 1), False),
    ((1, 1, 0, 0), True),
    ((0, 0, 1, 1), True),
)


def pdc_state(src: PdcSourceSpec, modes: tuple[Mode, Mode]) -> FockState:
    """Truncated pair-source state on two polarized modes, renormalized:
    (1 - eps^2)|vac> + eps (|H,V> - |V,H>)/sqrt2, higher orders dropped.
    """
    m1, m2 = modes
    for m in (m1, m2):
        if not m.polarized:
            raise ValueError("pair source needs polarized modes")
    chans = m1.channels + m2.channels
    eps = src.epsilon
    amps = {
        (0, 0, 0, 0): 1.0 - eps**2,
        (1, 0, 0, 1): eps / math.sqrt(2.0),
        (0, 1, 1, 0): -eps / math.sqrt(2.0),
    }
    return FockState(chans, amps).normalized()


def _sigma_z(state: FockState, v_channel: Channel) -> FockState:
    idx = state.channels.index(v_channel)
    amps = {
        occ: (-amp if occ[idx] % 2 else amp) for occ, amp in state.amplitudes.items()
    }
    return FockState(state.channels, amps)


def _teleport(
    input_amps: dict[tuple[int, int], complex],
    src: PdcSourceSpec,
    target_amps: dict[tuple[int, int], complex],
) -> ProtocolOutcome:
    signal = FockState(_TS.channels, input_amps)
    pair = pdc_state(src, (_TP1, _TP2))
    # the splitter keeps the photon number of (in, p1) and every Bell pattern
    # holds two photons there, so only the input kets with two photons on
    # (in, p1) can herald: expand the tensor product's two-photon sector alone
    amps = {
        occ_s + occ_p: amp_s * amp_p
        for occ_s, amp_s in signal.amplitudes.items()
        for occ_p, amp_p in pair.amplitudes.items()
        if sum(occ_s) + occ_p[0] + occ_p[1] == 2
    }
    state = apply(_TELEPORT_BS, FockState(_TELEPORT_CHANNELS, amps))
    table = pattern_table(state, (_TS_H, _TS_V, _TP1_H, _TP1_V))

    # an ideal detector's coefficient is 1.0 at its reading and 0.0 elsewhere,
    # so each accepted pattern weighs exactly its mass
    total = 0.0
    branches: list[tuple[float, FockState]] = []
    for pattern, correct in _BELL_PATTERNS:
        if pattern in table.patterns:
            mass = table.patterns[pattern][0]
            total += mass
            st = table.branch(pattern)
            branches.append((mass, _sigma_z(st, _TP2_V) if correct else st))
    out = MixedState(tuple(branches))
    target = FockState(_TP2.channels, target_amps)
    # `total` adds the masses in turn; the fidelity renormalizes by their fsum
    return _outcome(total, out, TargetOverlaps(target), out.total_weight())


def teleport_number_qnd(input: NumberInputSpec, src: PdcSourceSpec) -> ProtocolOutcome:
    """Teleportation-based single-photon herald; input photons carried in a
    fixed H polarization.  A two-photon input can pass the analyzer against
    the source's vacuum term, so (unlike the interferometric devices) this
    device has a strictly positive false-acceptance rate for |2>.
    """
    amps = {(0, 0): input.c0, (1, 0): input.c1, (2, 0): input.c2}
    return _teleport(amps, src, {(1, 0): 1.0})


def teleport_pol_qnd(
    input: NumberInputSpec, theta: PolarizationAngle, src: PdcSourceSpec
) -> ProtocolOutcome:
    """Teleportation-based herald preserving a polarization qubit.

    The false-acceptance weight of the two-photon component depends on theta
    only through |alpha*beta|^2; PolarizationAngle.bloch_average() reproduces
    the sphere-averaged fidelity 3 p |c1|^2 / (4 |c2|^2 + 3 p |c1|^2) to first
    order in the pair probability p.  With the source's vacuum amplitude
    1 - eps^2 the exact value is 3 p |c1|^2 / (3 p |c1|^2 + 4 (1-p)^2 |c2|^2),
    within a relative (1-p)^-2 - 1 of that formula.
    """
    amps = _pol_input_amplitudes(input, theta)
    target = {(1, 0): theta.alpha, (0, 1): theta.beta}
    return _teleport(amps, src, target)


# ---------------------------------------------------------------------------
# Kerr cross-phase device
# ---------------------------------------------------------------------------

_K_P = Channel("probe")
_K_W = Channel("arm")
_K_S = Channel("signal")
_KERR_CHANNELS = (_K_P, _K_W, _K_S)
_KERR_BS = beam_splitter(BeamSplitterSpec(0.5), _K_P, _K_W).embedded(_KERR_CHANNELS)
# success readings per detected channel: the constructive arm (D1) is `arm`,
# the pi-shifted port (D2) is `probe`
_KERR_SUCCESS = {_K_P: 1, _K_W: 0}


def kerr_qnd(
    input: NumberInputSpec, tau: float = math.pi, det: DetectorModel = IDEAL
) -> ProtocolOutcome:
    """Mach-Zehnder probe with a cross-phase coupling to the signal mode.

    One probe photon is split 50:50; one arm picks up phase exp(-i tau n_s).
    After recombination the probe exits toward detector D1 when the relative
    phase is 0 and toward D2 when it is pi, so at tau = pi a D2 click (with no
    D1 click) heralds an odd signal photon number.  Success signature:
    D2 -> 1, D1 -> 0; the signal mode is kept, target |1>.
    """
    amps = {
        (1, 0, 0): input.c0,
        (1, 0, 1): input.c1,
        (1, 0, 2): input.c2,
    }
    state = FockState(_KERR_CHANNELS, amps)
    state = apply(_KERR_BS, state)
    state = kerr_gate(KerrGateSpec(tau), _K_W, _K_S, state)
    # a reading of k photons needs k photons: expand only kets that can herald
    state = apply(_KERR_BS, state, _KERR_SUCCESS)
    prob, out = condition(state, _KERR_SUCCESS, det)
    target = FockState.basis((_K_S,), (1,))
    return _outcome(prob, out, TargetOverlaps(target))


# ---------------------------------------------------------------------------
# Calculators
# ---------------------------------------------------------------------------


_HBAR = 1.0545718176461565e-34  # J s, h / 2 pi; exact in the 2019 SI
_EPSILON_0 = 8.8541878188e-12  # F/m, CODATA 2022


def kerr_tau(p: KerrStrengthParams) -> float:
    """Dimensionless cross-phase shift per photon pair:
    hbar omega^2 delta_t chi3 / (4 eps0 V)."""
    return _HBAR * p.omega**2 * p.delta_t * p.chi3 / (4.0 * _EPSILON_0 * p.volume)


def noon_bound(n: int) -> float:
    """Minimum resolvable cross-phase pi/(2 N) for an N-photon noon probe."""
    if n < 1:
        raise ValueError("N must be >= 1")
    return math.pi / (2.0 * n)
