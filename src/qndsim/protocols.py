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
from dataclasses import dataclass

from .detection import IDEAL, DetectorModel, pattern_table, weigh
from .fock import (
    Channel,
    FockState,
    MixedState,
    Mode,
    ModeMismatchError,
    inner_product,
    nonnegative_fsum,
)
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
    """A heralded output: success probability, fidelity with `target`, and
    the (weight, branch) pairs it was read from."""

    success_probability: float
    fidelity: float
    target: FockState
    branches: tuple[tuple[float, FockState], ...]  # (weight, branch), unnormalized

    @property
    def conditional_output(self) -> MixedState:
        """The branches as an ensemble, built on access: a sweep row reads
        none.  Its weights sum to the success probability."""
        return MixedState(self.branches)


class EvolvedDevice:
    """A heralding device after evolution, before detection: `transform`
    evolves `state` and the `detected` channels are read out.  Each entry of
    `accepted` is a set of readings, in `detected` order, that heralds
    success, and the channel whose odd photon numbers a sigma_z feed-forward
    then flips, or None.  `target` lives on the kept channels.

    A reading of k photons needs k photons that the network can route to
    that detector (U[c, j] != 0), so the per-channel minimum of the accepted
    readings is `apply`'s floor: it forms only the partial monomials that
    can still herald and returns the full output restricted to the kets that
    meet it, bit for bit.  Linear-optical evolution does not depend on the
    detector efficiency, so the evolved state is tabulated once by detected
    pattern and `outcome` only applies a detector model: a sweep over
    efficiencies evolves once.  Per accepted reading, a memo keeps each
    pattern's branch, after any sigma_z flip, and its |<target|branch>|^2,
    built the first time a detector weighs that pattern.
    """

    __slots__ = ("table", "accepted", "target", "_memos")

    def __init__(self, transform: ModeTransform, state: FockState, detected: tuple[Channel, ...],
                 accepted: tuple[tuple[tuple[int, ...], Channel | None], ...], target: FockState):
        if not accepted:
            raise ValueError("a device must accept at least one set of readings")
        readings, _ = zip(*accepted)
        if set(map(len, readings)) != {len(detected)}:
            raise ModeMismatchError(f"accepted readings {readings} for channels {detected}")
        lowest = [*map(min, zip(*readings))]
        floor = dict(zip(detected, lowest)) if any(lowest) else None
        self.table = pattern_table(apply(transform, state, floor), detected)
        if target.channels != self.table.kept:
            raise ModeMismatchError(
                f"target on {target.channels}, not on the kept channels {self.table.kept}")
        self.accepted = accepted
        self.target = target
        self._memos: list[dict[tuple[int, ...], tuple[FockState, float]]] = [
            {} for _ in accepted]

    def outcome(self, det: DetectorModel = IDEAL) -> ProtocolOutcome:
        """The accepted readings' probabilities, added in turn, and the
        fidelity of the branches renormalized by the `fsum` of their weights."""
        table, prob = self.table, 0.0
        branches: list[tuple[float, FockState]] = []
        overlaps: list[float] = []
        for (readings, flip), memo in zip(self.accepted, self._memos):
            pairs = weigh(table, readings, det)
            prob += nonnegative_fsum(w for w, _ in pairs)
            for w, pattern in pairs:
                if (entry := memo.get(pattern)) is None:
                    st = table.branch(pattern)
                    if flip is not None:
                        st = _sigma_z(st, flip)
                    entry = memo[pattern] = st, abs(inner_product(self.target, st)) ** 2
                branches.append((w, entry[0]))
                overlaps.append(entry[1])
        if math.isnan(prob):
            raise ValueError("success probability is NaN")
        fid = 0.0
        if prob > 0.0:
            total = nonnegative_fsum(w for w, _ in branches)
            if total == math.inf:
                raise ValueError("fidelity undefined: the ensemble's weight overflows a float")
            fid = math.fsum([w / total * overlap for (w, _), overlap in zip(branches, overlaps)])
        return ProtocolOutcome(prob, fid, self.target, tuple(branches))


# ---------------------------------------------------------------------------
# Four-mode number device
# ---------------------------------------------------------------------------

_A, _B, _C, _D = Channel("a"), Channel("b"), Channel("c"), Channel("d")


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
    return EvolvedDevice(number_device_transform(transmission), FockState(channels, amps),
                         (_A, _C, _D), (((0, 1, 1), None),), FockState.basis((_B,), (1,)))


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
    target = FockState((_P_AH, _P_AV), {(1, 0): theta.alpha, (0, 1): theta.beta})
    return EvolvedDevice(_POL_TRANSFORM, FockState(_POL_CHANNELS, amps),
                         (_P_CV, _P_DH, _P_EV, _P_FH), (((1, 1, 1, 1), None),), target)


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
    if not 0.0 <= gamma < math.inf:  # also rejects NaN
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
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
_TP2_V = _TP2.channels[1]
_TELEPORT_CHANNELS = _TS.channels + _TP1.channels + _TP2.channels
_TELEPORT_BS = beam_splitter(BeamSplitterSpec(0.5), _TS, _TP1).embedded(_TELEPORT_CHANNELS)

# Accepted partial-Bell-analyzer signatures over (in.H, in.V, p1.H, p1.V)
# after the 50:50 beam splitter, and the distant-arm channel a sigma_z
# correction flips, if any.  One photon per output port (any polarization)
# heralds the singlet; two photons in one port with orthogonal polarizations
# herald the triplet that a sigma_z feed-forward repairs.  Same-pol bunched
# events are rejected (they herald the unrepairable pair of Bell states).
_BELL_DETECTED = _TS.channels + _TP1.channels
_BELL_PATTERNS = (
    ((1, 0, 1, 0), None),
    ((1, 0, 0, 1), None),
    ((0, 1, 1, 0), None),
    ((0, 1, 0, 1), None),
    ((1, 1, 0, 0), _TP2_V),
    ((0, 0, 1, 1), _TP2_V),
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


def _teleport(input_amps: dict[tuple[int, int], complex], src: PdcSourceSpec,
              target_amps: dict[tuple[int, int], complex]) -> ProtocolOutcome:
    signal = FockState(_TS.channels, input_amps)
    pair = pdc_state(src, (_TP1, _TP2))
    # the splitter keeps the photon number of (in, p1) and every Bell pattern
    # holds two photons there, so at the ideal analyzer only the input kets
    # with two photons on (in, p1) can herald: expand that sector alone
    amps = {
        occ_s + occ_p: amp_s * amp_p
        for occ_s, amp_s in signal.amplitudes.items()
        for occ_p, amp_p in pair.amplitudes.items()
        if sum(occ_s) + occ_p[0] + occ_p[1] == 2
    }
    return EvolvedDevice(_TELEPORT_BS, FockState(_TELEPORT_CHANNELS, amps), _BELL_DETECTED,
                         _BELL_PATTERNS, FockState(_TP2.channels, target_amps)).outcome()


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
    target = FockState.basis((_K_S,), (1,))
    # the pi-shifted port (D2) is `probe`, the constructive arm (D1) is `arm`
    return EvolvedDevice(_KERR_BS, state, (_K_P, _K_W), (((1, 0), None),), target).outcome(det)


# ---------------------------------------------------------------------------
# Calculators
# ---------------------------------------------------------------------------


_HBAR = 1.0545718176461565e-34  # J s, h / 2 pi; exact in the 2019 SI
_EPSILON_0 = 8.8541878188e-12  # F/m, CODATA 2022


def kerr_tau(p: KerrStrengthParams) -> float:
    """Dimensionless cross-phase shift per photon pair:
    hbar omega^2 delta_t chi3 / (4 eps0 V).

    Evaluated left to right in floats, so the bits are those of that
    expression.  Raises ValueError where it overflows: in omega^2, by a
    denominator 4 eps0 V that underflows to 0, or in a later product or the
    quotient, also where the coupling itself would fit a float.  A partial
    product that underflows loses precision, down to a result of 0.
    """
    try:
        tau = _HBAR * p.omega**2 * p.delta_t * p.chi3 / (4.0 * _EPSILON_0 * p.volume)
    except (OverflowError, ZeroDivisionError):
        tau = math.inf
    if tau == math.inf:
        raise ValueError(f"Kerr coupling or one of its partial products overflows a float: {p}")
    return tau


def noon_bound(n: int) -> float:
    """Minimum resolvable cross-phase pi/(2 N) for an N-photon noon probe."""
    if n < 1:
        raise ValueError("N must be >= 1")
    try:
        return math.pi / 2.0 / n  # 2.0 * n would overflow to inf first
    except OverflowError:
        raise ValueError("N is too large for a float") from None
