"""Linear-optical elements as unitary transforms on creation operators.

A ModeTransform stores the unitary U as its columns: column j, a tuple of
Python complex, is the image of channel j's creation operator,
a_j^dagger -> sum_i U[i, j] a_i^dagger.  Applying a transform to a state
expands these substitutions ket by ket.  The Kerr cross phase gate is not a
linear mode transform and acts directly on amplitudes.

The builders, the constructor's unitarity check and `apply` are plain
Python.  numpy is imported inside two functions only: `compose`, which
multiplies its padded factors with numpy's matrix product and measures the
product's deviation from unitarity there, and the `matrix` property, which
builds an ndarray for callers that want one.  So evolving a state and
detecting it never import numpy.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

from .fock import (
    Channel,
    FockState,
    Mode,
    ModeMismatchError,
    amplitude_error,
    as_channels,
)

UNITARY_TOL = 1e-12

# `apply` drops an output amplitude a with |a|^2 <= _RESIDUE * p^2, p the
# largest |amplitude| of the input kets that feed it, kept per output ket:
# cancelling terms leave roundoff of about that size.  An exact amplitude that
# small goes too; one above this cut, which scales with the input, is kept.
_RESIDUE = 1e-30

Columns = tuple[tuple[complex, ...], ...]  # column j holds U[i, j] for each i


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
    """Unitary acting on an ordered tuple of channels, held as its `columns`."""

    __slots__ = ("channels", "columns")

    def __init__(self, channels: Iterable[Channel], matrix):
        """`matrix` is U row by row: nested sequences or a 2-D array, of numbers."""
        chans = as_channels(channels)
        columns = tuple(zip(*_rows(matrix, len(chans))))
        _check_unitary(columns)
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "columns", columns)

    @classmethod
    def _trusted(cls, channels: tuple[Channel, ...], columns: Columns) -> "ModeTransform":
        """Wrap complex columns already known to be unitary on `channels`."""
        self = object.__new__(cls)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "columns", columns)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ModeTransform is immutable")

    @property
    def matrix(self):
        """U as a read-only complex ndarray, U[i, j] = columns[j][i], built on each read."""
        import numpy as np

        n = len(self.channels)
        mat = np.array(self.columns, dtype=complex).reshape(n, n).T.copy()
        mat.setflags(write=False)
        return mat

    def dagger(self) -> "ModeTransform":
        # row j of U^dagger is column j of U, conjugated
        return ModeTransform(self.channels, [[z.conjugate() for z in col] for col in self.columns])

    def embedded(self, channels: Iterable[Channel]) -> "ModeTransform":
        """Pad with identity onto a larger channel tuple.

        The padded matrix is unitary because this one was checked when built,
        so it is not checked again.
        """
        chans = as_channels(channels)
        if chans == self.channels:
            return self  # immutable and validated when built
        index = {c: i for i, c in enumerate(chans)}
        for c in self.channels:
            if c not in index:
                raise ModeMismatchError(f"cannot embed: {c} missing from target")
        at = [index[c] for c in self.channels]
        return ModeTransform._trusted(chans, _padded(self.columns, at, len(chans)))

    def __repr__(self) -> str:
        labels = ",".join(str(c) for c in self.channels)
        return f"ModeTransform([{labels}])"


def _rows(matrix, n: int) -> list[tuple[complex, ...]]:
    """`matrix`'s rows with complex entries; ValueError unless it is n x n."""
    try:
        rows = [tuple(map(complex, row)) for row in matrix]
    except TypeError:
        raise ValueError(f"matrix for {n} channels is not rows of numbers") from None
    if len(rows) != n or any(len(row) != n for row in rows):
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            lengths = ", ".join(str(len(row)) for row in rows)
            raise ValueError(f"matrix rows of lengths {lengths} for {n} channels")
        raise ValueError(f"matrix shape {(len(rows), *widths)} for {n} channels")
    return rows


def _check_unitary(columns: Columns, dev: float | None = None) -> None:
    """Raise NonUnitaryError unless U^dagger U is within UNITARY_TOL of the
    identity in the Frobenius norm; `dev`, if given, is that distance as
    measured elsewhere.  An entry past 2 in magnitude, or NaN, is named
    instead of the deviation it causes."""
    if dev is None:
        conj = [tuple(map(complex.conjugate, col)) for col in columns]
        mul = operator.mul
        # U^dagger U is Hermitian: its diagonal and upper triangle give the norm
        diagonal = off = 0.0
        for j, col in enumerate(columns):
            d = sum(map(mul, conj[j], col)).real - 1.0
            diagonal += d * d
            for left in conj[:j]:
                g = sum(map(mul, left, col))
                off += g.real * g.real + g.imag * g.imag
        dev = math.sqrt(diagonal + 2.0 * off)
    if dev <= UNITARY_TOL:
        return  # then every column's norm is within 1 + tol: no entry past 1, nor NaN
    peak = 0.0
    for z in chain.from_iterable(columns):
        try:
            size = abs(z)
        except OverflowError:  # finite parts whose magnitude passes the largest float
            size = math.inf
        if size != size:  # NaN
            peak = size
            break
        peak = max(peak, size)
    if not peak <= 2.0:
        raise NonUnitaryError(f"matrix is not unitary (entry of magnitude {peak:.3e})")
    raise NonUnitaryError(f"matrix is not unitary (deviation {dev:.3e})")


def _padded(columns: Columns, at: list[int], n: int) -> Columns:
    """The n x n identity's columns with `columns` set, entry by entry, at the
    rows and columns `at`."""
    zeros = (0j,) * n
    out = [zeros[:j] + (1 + 0j,) + zeros[j + 1:] for j in range(n)]
    for j, col in zip(at, columns):
        full = [0j] * n
        for i, z in zip(at, col):
            full[i] = z
        out[j] = tuple(full)
    return tuple(out)


def identity_transform(channels: Iterable[Channel]) -> ModeTransform:
    chans = as_channels(channels)
    return ModeTransform._trusted(chans, _padded((), [], len(chans)))


def matrix_transform(channels: Iterable[Channel], matrix) -> ModeTransform:
    """Raw unitary block (array or nested rows) over the given channels."""
    return ModeTransform(channels, matrix)


def _mode_channels(port: Mode | Channel) -> tuple[Channel, ...]:
    """A two-port builder's port as channels: a mode's one or two, or the channel."""
    return port.channels if isinstance(port, Mode) else as_channels([port])


def beam_splitter(
    spec: BeamSplitterSpec, in1: Mode | Channel, in2: Mode | Channel
) -> ModeTransform:
    """Two-port beam splitter; polarized inputs get the same block per polarization.

    With t = sqrt(T), r = sqrt(1-T):  in1 -> t in1 + r in2,  in2 -> t in2 - r in1.
    At T=1/2 this is the symmetric (p+q)/sqrt2, (q-p)/sqrt2 convention.
    """
    c1, c2 = _mode_channels(in1), _mode_channels(in2)
    if len(c1) != len(c2):
        raise ModeMismatchError("beam splitter inputs must both be polarized or both not")
    if set(c1) & set(c2):
        raise ModeMismatchError("beam splitter inputs must be distinct")
    t = complex(math.sqrt(spec.transmission))
    r = math.sqrt(1.0 - spec.transmission)
    # the reflected entries U[in1, in2] and U[in2, in1]
    back, across = (complex(r), complex(-r)) if spec.flip else (complex(-r), complex(r))
    n = len(c1)
    cols = []
    for j in range(2 * n):
        col = [0j] * (2 * n)
        col[j] = t
        col[(j + n) % (2 * n)] = across if j < n else back
        cols.append(tuple(col))
    return ModeTransform._trusted(c1 + c2, tuple(cols))


def phase_shifter(phi: float, mode: Mode | Channel) -> ModeTransform:
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    chans = _mode_channels(mode)
    z = cmath.exp(1j * phi)
    # the entries of z times the identity as complex products, as numpy forms
    # them: z * 0j can be -0 in either part, and compose's zero signs keep it
    one, zero = z * (1 + 0j), z * 0j
    n = len(chans)
    return ModeTransform._trusted(
        chans, tuple(tuple(one if i == j else zero for i in range(n)) for j in range(n)))


def polarization_rotator(angle: float, mode: Mode) -> ModeTransform:
    """SU(2) rotation mixing the H and V channels of one polarized mode."""
    if not (isinstance(mode, Mode) and mode.polarized):
        raise ModeMismatchError("polarization rotator needs a polarized mode")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    c, s = complex(math.cos(angle)), math.sin(angle)
    # columns: images of H and V
    return ModeTransform._trusted(mode.channels, ((c, complex(s)), (complex(-s), c)))


def polarizing_beam_splitter(in1: Mode, in2: Mode) -> ModeTransform:
    """H transmitted, V swapped between the two spatial modes."""
    for m in (in1, in2):
        if not (isinstance(m, Mode) and m.polarized):
            raise ModeMismatchError("polarizing beam splitter needs polarized modes")
    if in1.spatial == in2.spatial:
        raise ModeMismatchError("polarizing beam splitter inputs must be distinct")
    h1, v1 = in1.channels
    h2, v2 = in2.channels
    one, zero = 1 + 0j, 0j
    # columns: images of h1, v1, h2, v2; H stays, V crosses
    return ModeTransform._trusted((h1, v1, h2, v2), (
        (one, zero, zero, zero), (zero, zero, zero, one),
        (zero, zero, one, zero), (zero, one, zero, zero)))


def compose(first: ModeTransform, *rest: ModeTransform) -> ModeTransform:
    """`first` followed by each of `rest`: padded(t_k) @ ... @ padded(first), each
    factor identity-padded onto the union of the channels in order of first
    appearance.  The product is numpy's, so its bits are those of the BLAS
    kernel numpy picks; the factors are unitary, so only the product is checked."""
    import numpy as np

    index: dict[Channel, int] = {}  # union channel -> position, in one pass
    placed = [(t, [index.setdefault(c, len(index)) for c in t.channels])
              for t in (first, *rest)]
    n = len(index)
    whole = list(range(n))
    total = None
    for t, at in placed:
        if at == whole:  # already on these channels, in this order
            factor = np.array(t.columns, dtype=complex).reshape(n, n).T.copy()
        else:
            factor = np.eye(n, dtype=complex)
            for j, col in zip(at, t.columns):
                for i, z in zip(at, col):
                    factor[i, j] = z
        total = factor if total is None else factor @ total
    columns = tuple(map(tuple, total.T.tolist()))
    _check_unitary(columns, np.linalg.norm(total.conj().T @ total - np.eye(n)))
    return ModeTransform._trusted(tuple(index), columns)


def _root_factorials(prod: int, occ: tuple[int, ...]) -> float:
    """sqrt(prod), `prod` being prod n! over ket `occ`; ValueError where it overflows."""
    try:
        return math.sqrt(prod)
    except OverflowError:
        raise ValueError(f"ket {occ}: its normalization sqrt(prod n!) overflows a float") from None


def apply(
    t: ModeTransform, state: FockState, floor: Mapping[Channel, int] | None = None
) -> FockState:
    """Apply the transform to a state by creation-operator substitution.

    A monomial prod_i (a_i^dagger)^m_i is coded as the integer sum_i m_i B^i,
    with B one more than the largest photon number among the input kets.
    Photon number is conserved, so no digit reaches B and a_i^dagger adds B^i.
    Each output code gets one record, by one decode where it first appears:
    amplitude, sqrt(prod m!), occupation tuple and peak, the largest |amp|^2
    among the input kets that feed it.

    `floor`, if given, maps channels to the fewest photons (a non-negative
    int) an output ket must hold there; the result is the full output
    restricted to the kets that meet it (heralded evolution).  A partial
    monomial lacks sum_c max(0, k_c - m_c) B^c of the floor.  The photon of
    input channel j lands on a channel c with U[c, j] != 0, and lowers the
    lack there by one or lands where nothing is lacking.  So, from the last
    photon of a ket back, the lacks the photons still to place can fill form
    a set, and a monomial is kept only if its lack is in the set of the
    photons after it (a ket whose empty monomial's is not, is skipped).
    Exactly the monomials with no descendant that meets the floor are
    dropped, and every parent of a kept monomial is kept, so the kept
    amplitudes are the same sums, in the same order, bit for bit.

    Cancellation residues are dropped by each record's peak (see `_RESIDUE`),
    and a NaN or infinite output amplitude raises `ValueError`, so the result
    meets `FockState`'s invariants and is built without a second check.  So
    does an input or output ket whose sqrt(prod n!) overflows a float: 171 or
    more photons in one channel, or fewer spread over several.
    """
    full = t
    if t.channels != state.channels:  # equal tuples need neither check nor padding
        for c in t.channels:
            if c not in state.channels:
                raise ModeMismatchError(f"transform channel {c} not in state")
        full = t.embedded(state.channels)
    base = max((sum(occ) for occ in state.amplitudes), default=0) + 1
    strides = [base**i for i in range(len(state.channels))]
    cols = full.columns
    # column j of the matrix, as (stride of channel i, U[i, j]) for U[i, j] != 0
    columns = [[(s, cij) for s, cij in zip(strides, col) if cij != 0] for col in cols]
    need = []  # (stride, fewest photons) per channel with a positive floor
    hits = [()] * len(cols)  # per column, those of `need` whose channel it reaches
    if floor:
        for c, k in zip(as_channels(floor), floor.values()):
            try:
                i = state.channels.index(c)
            except ValueError:
                raise ModeMismatchError(f"floor channel {c} not in state") from None
            try:
                k = operator.index(k)  # an int, or an integer type such as numpy's
            except TypeError:
                raise ValueError(f"floor {k!r} on {c} is not an integer") from None
            if k < 0:
                raise ValueError(f"negative floor {k} on {c}")
            if k:
                need.append((strides[i], k))
                for j, col in enumerate(cols):
                    if col[i]:
                        hits[j] += ((strides[i], k),)
    if need:
        floored, box = 0, 1  # the empty monomial's lack; the number of possible lacks
        for s, k in need:
            if k >= base:  # no ket holds k photons; a lack digit stays below B
                return FockState._trusted(state.channels, {})
            floored += s * k
            box *= k + 1
        nothing = frozenset((0,))  # the lacks that no photon fills
        memo: dict[tuple, tuple] = {}  # (column, lacks after) -> (lacks before, lack -> entries)
        lacks: dict[int, int] = {}  # code -> its lack, once per code
    checks: dict[int, tuple] = {}  # photons left -> (lacks they fill, lack -> entries)

    factorial = [math.factorial(n) for n in range(base)]
    records: dict[int, list] = {}  # output code -> its record, in order of first appearance
    find = records.get
    for occ, amp in state.amplitudes.items():
        if need:
            # from the last photon back, `fill` holds the lacks the photons
            # after this one can fill; a step whose children may leave the
            # floor out of reach keeps only those whose lack is in it
            checks = {}
            fill, left = nothing, 0
            for j in range(len(occ) - 1, -1, -1):
                column, reach = columns[j], hits[j]
                if not reach:
                    left += occ[j]
                    continue
                for _ in range(occ[j]):
                    if len(fill) < box:
                        step = memo.get((j, fill))
                        if step is None:
                            # before the photon: the lacks after it, and those
                            # with one more on a channel it reaches
                            step = memo[j, fill] = (fill.union(
                                lack + s for lack in fill for s, k in reach
                                if lack // s % base < k), {})
                        if len(column) > 1:
                            checks[left] = (fill, step[1])
                        fill = step[0]
                    left += 1
            if floored not in fill:
                continue  # its photons cannot meet the floor
        # start from amp / sqrt(prod occ!) and multiply one linear form per photon
        poly = {0: amp / _root_factorials(math.prod(map(factorial.__getitem__, occ)), occ)}
        left = sum(occ)  # photons still to place
        for n, column in zip(occ, columns):
            for _ in range(n):
                new_poly: dict[int, complex] = {}
                get = new_poly.get
                left -= 1
                if left in checks:
                    fill, open_ = checks[left]
                    for mon, c0 in poly.items():
                        lack = lacks.get(mon)
                        if lack is None:
                            lack = 0
                            for s, k in need:
                                m = mon // s % base
                                if m < k:
                                    lack += (k - m) * s
                            lacks[mon] = lack
                        entries = open_.get(lack)
                        if entries is None:
                            # the children whose lack the later photons can fill
                            entries = open_[lack] = [
                                e for e in column
                                if (lack - e[0] if lack // e[0] % base else lack) in fill]
                        for stride, cij in entries:
                            new = mon + stride
                            new_poly[new] = get(new, 0j) + c0 * cij
                else:
                    for mon, c0 in poly.items():
                        for stride, cij in column:
                            new = mon + stride
                            new_poly[new] = get(new, 0j) + c0 * cij
                poly = new_poly
        weight = abs(amp) ** 2
        for mon, c0 in poly.items():
            record = find(mon)
            if record is None:
                code, digits, prod = mon, [], 1
                for _ in strides:
                    code, m = divmod(code, base)
                    digits.append(m)
                    prod *= factorial[m]
                digits = tuple(digits)
                record = records[mon] = [0j, _root_factorials(prod, digits), digits, weight]
            elif record[3] < weight:
                record[3] = weight
            record[0] += c0 * record[1]
    out: dict[tuple[int, ...], complex] = {}
    for amp, _, occ, peak in records.values():
        size = abs(amp)
        mag = size * size  # overflows to inf where ** 2 would raise
        if mag <= _RESIDUE * peak:
            continue
        if not mag < math.inf:  # NaN or infinite
            raise amplitude_error(amp, occ, mag)
        out[occ] = amp
    return FockState._trusted(state.channels, out)


def kerr_gate(
    spec: KerrGateSpec, a: Channel, b: Channel, state: FockState
) -> FockState:
    """Cross-phase gate: ket |n_a, n_b> acquires phase exp(-i tau n_a n_b)."""
    if a == b:
        raise ModeMismatchError("Kerr gate channels must be distinct")
    for c in (a, b):
        if c not in state.channels:
            raise ModeMismatchError(f"channel {c} not in state")
    ia, ib = state.channels.index(a), state.channels.index(b)
    amps = {}
    for occ, amp in state.amplitudes.items():
        phase = -1j * spec.tau * occ[ia] * occ[ib]
        if not cmath.isfinite(phase):
            raise ValueError(f"cross phase tau*n_a*n_b overflows at {occ}, tau={spec.tau}")
        amps[occ] = amp * cmath.exp(phase)
    return FockState(state.channels, amps)
