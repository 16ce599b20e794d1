"""Linear-optical elements as unitary transforms on creation operators.

A ModeTransform stores the matrix U with column j holding the image of channel
j's creation operator: a_j^dagger -> sum_i U[i, j] a_i^dagger.  Applying a
transform to a state expands these substitutions ket by ket.  The Kerr cross
phase gate is not a linear mode transform and acts directly on amplitudes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .fock import (
    Channel,
    ChannelLike,
    FockState,
    Mode,
    ModeMismatchError,
    as_channels,
)

UNITARY_TOL = 1e-12


class NonUnitaryError(ValueError):
    """A constructed matrix failed the unitarity check."""


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Beam splitter with transmission T = cos^2(mu).

    The sign convention puts the minus sign on reflection off the second
    ("arrowed") input; `flip` moves the arrow to the first input.
    """

    transmission: float
    flip: bool = False

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission out of range [0, 1]: {self.transmission}")


@dataclass(frozen=True)
class KerrGateSpec:
    """Cross-phase coupling tau, in radians per photon pair."""

    tau: float

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")


class ModeTransform:
    """Unitary acting on an ordered tuple of channels."""

    __slots__ = ("channels", "matrix")

    def __init__(self, channels: Iterable[ChannelLike], matrix: np.ndarray):
        chans = as_channels(channels)
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (len(chans), len(chans)):
            raise ValueError(f"matrix shape {mat.shape} for {len(chans)} channels")
        dev = np.linalg.norm(mat.conj().T @ mat - np.eye(len(chans)))
        if not dev <= UNITARY_TOL:  # also rejects NaN
            raise NonUnitaryError(f"matrix is not unitary (deviation {dev:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ModeTransform is immutable")

    def dagger(self) -> "ModeTransform":
        return ModeTransform(self.channels, np.asarray(self.matrix).conj().T)

    def embedded(self, channels: Iterable[ChannelLike]) -> "ModeTransform":
        """Pad with identity onto a larger channel tuple."""
        chans = as_channels(channels)
        if chans == self.channels:
            return self  # immutable and validated when built
        for c in self.channels:
            if c not in chans:
                raise ModeMismatchError(f"cannot embed: {c} missing from target")
        mat = np.eye(len(chans), dtype=complex)
        idx = [chans.index(c) for c in self.channels]
        mat[np.ix_(idx, idx)] = self.matrix
        return ModeTransform(chans, mat)

    def __repr__(self) -> str:
        labels = ",".join(str(c) for c in self.channels)
        return f"ModeTransform([{labels}])"


def identity_transform(channels: Iterable[ChannelLike]) -> ModeTransform:
    chans = as_channels(channels)
    return ModeTransform(chans, np.eye(len(chans)))


def matrix_transform(channels: Iterable[ChannelLike], matrix) -> ModeTransform:
    """Raw unitary block over the given channels (validated at construction)."""
    return ModeTransform(channels, np.asarray(matrix, dtype=complex))


def _mode_channels(m: ChannelLike) -> tuple[Channel, ...]:
    if isinstance(m, Mode):
        return m.channels
    return as_channels([m])


def beam_splitter(spec: BeamSplitterSpec, in1: ChannelLike, in2: ChannelLike) -> ModeTransform:
    """Two-port beam splitter; polarized inputs get the same block per polarization.

    With t = sqrt(T), r = sqrt(1-T):  in1 -> t in1 + r in2,  in2 -> t in2 - r in1.
    At T=1/2 this is the symmetric (p+q)/sqrt2, (q-p)/sqrt2 convention.
    """
    c1, c2 = _mode_channels(in1), _mode_channels(in2)
    if len(c1) != len(c2):
        raise ModeMismatchError("beam splitter inputs must both be polarized or both not")
    if set(c1) & set(c2):
        raise ModeMismatchError("beam splitter inputs must be distinct")
    t = math.sqrt(spec.transmission)
    r = math.sqrt(1.0 - spec.transmission)
    if spec.flip:
        block = np.array([[t, r], [-r, t]])
    else:
        block = np.array([[t, -r], [r, t]])
    chans = c1 + c2
    mat = np.zeros((len(chans), len(chans)), dtype=complex)
    for k in range(len(c1)):
        i, j = k, k + len(c1)
        mat[np.ix_([i, j], [i, j])] = block
    return ModeTransform(chans, mat)


def phase_shifter(phi: float, mode: ChannelLike) -> ModeTransform:
    chans = _mode_channels(mode)
    return ModeTransform(chans, np.exp(1j * phi) * np.eye(len(chans)))


def polarization_rotator(angle: float, mode: Mode) -> ModeTransform:
    """SU(2) rotation mixing the H and V channels of one polarized mode."""
    if not (isinstance(mode, Mode) and mode.polarized):
        raise ModeMismatchError("polarization rotator needs a polarized mode")
    c, s = math.cos(angle), math.sin(angle)
    # columns: images of H and V
    mat = np.array([[c, -s], [s, c]], dtype=complex)
    return ModeTransform(mode.channels, mat)


def polarizing_beam_splitter(in1: Mode, in2: Mode) -> ModeTransform:
    """H transmitted, V swapped between the two spatial modes."""
    for m in (in1, in2):
        if not (isinstance(m, Mode) and m.polarized):
            raise ModeMismatchError("polarizing beam splitter needs polarized modes")
    if in1.spatial == in2.spatial:
        raise ModeMismatchError("polarizing beam splitter inputs must be distinct")
    h1, v1 = in1.channels
    h2, v2 = in2.channels
    chans = (h1, v1, h2, v2)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0  # H stays
    mat[2, 2] = 1.0
    mat[3, 1] = 1.0  # V crosses
    mat[1, 3] = 1.0
    return ModeTransform(chans, mat)


def compose(t1: ModeTransform, t2: ModeTransform) -> ModeTransform:
    """Transform equal to t1 followed by t2 (identity-padded on the union)."""
    chans = list(t1.channels)
    for c in t2.channels:
        if c not in chans:
            chans.append(c)
    u1 = t1.embedded(chans).matrix
    u2 = t2.embedded(chans).matrix
    return ModeTransform(chans, u2 @ u1)


def apply(
    t: ModeTransform, state: FockState, floor: Mapping[ChannelLike, int] | None = None
) -> FockState:
    """Apply the transform to a state by creation-operator substitution.

    A monomial prod_i (a_i^dagger)^m_i is coded as the integer sum_i m_i B^i,
    with B one more than the largest photon number among the input kets.
    Photon number is conserved, so no digit reaches B and a_i^dagger adds B^i,
    and output codes are decoded to occupation tuples only at the end.

    `floor`, if given, maps channels to the fewest photons an output ket must
    hold there; the result is the full output restricted to the kets that
    meet it (heralded evolution).  A partial monomial whose shortfall
    sum_c max(0, k_c - m_c) exceeds the photons still to place is not formed:
    no descendant of it can reach the floor, and every parent of a kept
    monomial is kept, so the kept amplitudes are the same sums, in the same
    order, bit for bit.
    """
    for c in t.channels:
        if c not in state.channels:
            raise ModeMismatchError(f"transform channel {c} not in state")
    full = t.embedded(state.channels)
    base = max((sum(occ) for occ in state.amplitudes), default=0) + 1
    strides = [base**i for i in range(len(state.channels))]
    # column j of the matrix, as (stride of channel i, U[i, j]) for U[i, j] != 0
    columns = [
        [(s, cij) for s, cij in zip(strides, col) if cij != 0]
        for col in full.matrix.T.tolist()
    ]
    # (stride, fewest photons) per channel with a positive floor
    need = []
    if floor:
        chans = as_channels(floor)
        if len(chans) != len(floor):
            raise ModeMismatchError("a floor needs one channel per entry")
        for c, k in zip(chans, floor.values()):
            if c not in state.channels:
                raise ModeMismatchError(f"floor channel {c} not in state")
            if k < 0:
                raise ValueError(f"negative floor {k} on {c}")
            if k:
                need.append((strides[state.channels.index(c)], k))
    total = sum(k for _, k in need)
    shortfalls: dict[int, int] = {}  # code -> shortfall, once per code

    factorial = [math.factorial(n) for n in range(base)]
    acc: dict[int, complex] = {}  # output code -> amplitude
    scales: dict[int, float] = {}  # output code -> sqrt(prod m!), once per code
    for occ, amp in state.amplitudes.items():
        left = sum(occ)  # photons still to place
        if left < total:
            continue  # no ket of this photon number meets the floor
        # start from amp / sqrt(prod occ!) and multiply one linear form per photon
        poly = {0: amp / math.sqrt(math.prod(map(factorial.__getitem__, occ)))}
        for n, column in zip(occ, columns):
            for _ in range(n):
                new_poly: dict[int, complex] = {}
                get = new_poly.get
                left -= 1
                if left < total:  # only now can a shortfall exceed `left`
                    for mon, c0 in poly.items():
                        for stride, cij in column:
                            new = mon + stride
                            short = shortfalls.get(new)
                            if short is None:
                                short = 0
                                for at, k in need:
                                    m = new // at % base
                                    if m < k:
                                        short += k - m
                                shortfalls[new] = short
                            if short <= left:
                                new_poly[new] = get(new, 0j) + c0 * cij
                else:
                    for mon, c0 in poly.items():
                        for stride, cij in column:
                            new = mon + stride
                            new_poly[new] = get(new, 0j) + c0 * cij
                poly = new_poly
        get = acc.get
        for mon, c0 in poly.items():
            scale = scales.get(mon)
            if scale is None:
                code, prod = mon, 1
                for _ in strides:
                    code, m = divmod(code, base)
                    prod *= factorial[m]
                scale = scales[mon] = math.sqrt(prod)
            acc[mon] = get(mon, 0j) + c0 * scale
    out: dict[tuple[int, ...], complex] = {}
    for mon, amp in acc.items():
        digits = []
        for _ in strides:
            mon, m = divmod(mon, base)
            digits.append(m)
        out[tuple(digits)] = amp
    return FockState(state.channels, out)


def kerr_gate(
    spec: KerrGateSpec, a: ChannelLike, b: ChannelLike, state: FockState
) -> FockState:
    """Cross-phase gate: ket |n_a, n_b> acquires phase exp(-i tau n_a n_b)."""
    (ca,) = as_channels([a])
    (cb,) = as_channels([b])
    for c in (ca, cb):
        if c not in state.channels:
            raise ModeMismatchError(f"channel {c} not in state")
    ia, ib = state.channels.index(ca), state.channels.index(cb)
    amps = {}
    for occ, amp in state.amplitudes.items():
        phase = -1j * spec.tau * occ[ia] * occ[ib]
        if not cmath.isfinite(phase):
            raise ValueError(f"cross phase tau*n_a*n_b overflows at {occ}, tau={spec.tau}")
        amps[occ] = amp * cmath.exp(phase)
    return FockState(state.channels, amps)
