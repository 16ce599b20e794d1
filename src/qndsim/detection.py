"""Photon-counting detectors as Fock-diagonal POVMs, plus conditioning.

A detector with efficiency e registers each arriving photon independently with
probability e (so e plays the role of eta^2; the loss amplitude is
eta_tilde = sqrt(1-e)).  The POVM element for reading k photons out of n is
diagonal: C(n,k) e^k (1-e)^(n-k).  No dark counts are modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .fock import (
    Channel,
    ChannelLike,
    FockState,
    MixedState,
    ModeMismatchError,
    as_channels,
    inner_product,
)


@dataclass(frozen=True)
class DetectorModel:
    """efficiency = probability a single arriving photon is registered (eta^2)."""

    efficiency: float
    resolves_photon_number: bool = True

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency out of range [0, 1]: {self.efficiency}")


IDEAL = DetectorModel(1.0)


def povm_element(k: int, det: DetectorModel, n_max: int) -> tuple[float, ...]:
    """Coefficients of the POVM element for reading k photons, indexed by the
    photon number n = 0..n_max."""
    if k < 0:
        raise ValueError("reading must be non-negative")
    if k > n_max:
        raise ValueError(f"reading {k} exceeds n_max={n_max}")
    e = det.efficiency
    loss = 1.0 - e
    if det.resolves_photon_number:
        return tuple(
            math.comb(n, k) * e**k * loss ** (n - k) if n >= k else 0.0
            for n in range(n_max + 1)
        )
    # threshold detector: reading 0 = no click, 1 = click
    if k == 0:
        return tuple(loss**n for n in range(n_max + 1))
    if k == 1:
        # 1 - loss**n cancels at small e; expm1 and log1p do not
        if e == 1.0:  # log1p(-1) raises
            return tuple(float(n > 0) for n in range(n_max + 1))
        log_loss = math.log1p(-e)
        return tuple(-math.expm1(n * log_loss) for n in range(n_max + 1))
    raise ValueError("threshold detectors only support readings 0 and 1")


class PatternTable:
    """An evolved state's support bucketed by detected-channel pattern.

    Holds each pattern's mass and its amplitudes on the kept channels, and no
    detector model: `reweight` applies one.  A pattern's normalized branch
    state is built the first time a detector gives it a non-zero POVM factor
    and is then reused, because most patterns never get one.
    """

    __slots__ = ("detected", "kept", "patterns", "top", "_branches")

    def __init__(
        self,
        detected: tuple[Channel, ...],
        kept: tuple[Channel, ...],
        patterns: dict[tuple[int, ...], tuple[float, dict[tuple[int, ...], complex]]],
    ):
        self.detected = detected
        self.kept = kept
        self.patterns = patterns  # pattern -> (mass, kept-channel amplitudes)
        # highest detected occupation, so POVM tables cover every pattern
        self.top = max((n for pattern in patterns for n in pattern), default=0)
        self._branches: dict[tuple[int, ...], FockState] = {}

    def branch(self, pattern: tuple[int, ...]) -> FockState:
        """Normalized kept-channel state of one pattern."""
        st = self._branches.get(pattern)
        if st is None:
            _, amps = self.patterns[pattern]
            st = self._branches[pattern] = FockState(self.kept, amps).normalized()
        return st


def _picker(idx: Sequence[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Function taking an occupation tuple to its entries at `idx`, as a tuple."""
    if len(idx) == 1:
        (i,) = idx
        return lambda occ: (occ[i],)
    return itemgetter(*idx) if idx else lambda occ: ()


def pattern_table(
    state: FockState, detected_channels: Iterable[ChannelLike]
) -> PatternTable:
    """Bucket `state` by its occupations of `detected_channels`; evolves nothing.

    Patterns keep the order of their first appearance in the support.  The
    detected and kept channels partition the state's, so each ket fills one
    (pattern, kept occupation) slot, and every pattern's mass is above the
    cutoff `FockState` applies to each ket.
    """
    chans = state.channels
    detected = as_channels(detected_channels)
    for c in detected:
        if c not in chans:
            raise ModeMismatchError(f"detected channel {c} not in state")
    kept = tuple(c for c in chans if c not in detected)
    pattern_of = _picker([chans.index(c) for c in detected])
    kept_of = _picker([chans.index(c) for c in kept])
    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for occ, a in state.amplitudes.items():
        groups.setdefault(pattern_of(occ), {})[kept_of(occ)] = a
    patterns = {
        pattern: (math.fsum(abs(a) ** 2 for a in amps.values()), amps)
        for pattern, amps in groups.items()
    }
    return PatternTable(detected, kept, patterns)


def reweight(
    table: PatternTable, readings: tuple[int, ...], det: DetectorModel = IDEAL
) -> tuple[float, MixedState]:
    """Apply the POVM factors of one set of readings to a pattern table.

    `readings` lists one reading per detected channel, in `table.detected`
    order, and `det` models every detector.  Returns (probability,
    unnormalized conditional ensemble on the kept channels); the branch
    weights sum to the probability.  Each pattern is weighted by the product
    of its POVM coefficients.
    """
    if len(readings) != len(table.detected):
        raise ModeMismatchError(
            f"{len(readings)} readings for detected channels {table.detected}"
        )
    # tabulated up to every occupation and every reading, once per distinct
    # reading; a reading above all occupations gets zero coefficients
    top = max((table.top, *readings))
    rows = {k: povm_element(k, det, top) for k in dict.fromkeys(readings)}
    coeffs = [rows[k] for k in readings]
    weights: list[float] = []
    branches: list[tuple[float, FockState]] = []
    for pattern, (mass, _) in table.patterns.items():
        # a zero coefficient or an underflowed product drops the pattern
        povm_factor = math.prod(map(tuple.__getitem__, coeffs, pattern))
        if povm_factor == 0.0:
            continue
        w = povm_factor * mass
        weights.append(w)
        branches.append((w, table.branch(pattern)))
    return math.fsum(weights), MixedState(tuple(branches))


def condition(
    state: FockState, readings: Mapping[ChannelLike, int], det: DetectorModel = IDEAL
) -> tuple[float, MixedState]:
    """Condition a pure state on one reading per detected channel.

    `det` models every detector.  Returns (probability, unnormalized
    conditional ensemble on the kept channels), exactly
    `reweight(pattern_table(state, readings), tuple(readings.values()), det)`.
    Exact for Fock-diagonal POVMs; the detected channels are traced out.
    """
    return reweight(pattern_table(state, readings), tuple(readings.values()), det)


class TargetOverlaps:
    """A target state with its overlaps |<target|branch>|^2, each computed once
    per branch state.

    `PatternTable` memoizes its branch states, so an evolved device reweighted
    at many efficiencies meets the same few branches on every row.
    """

    __slots__ = ("target", "_overlaps")

    def __init__(self, target: FockState):
        self.target = target
        self._overlaps: dict[FockState, float] = {}  # keyed by identity

    def fidelity(self, rho: MixedState, total: float = 1.0) -> float:
        """Tr[rho |target><target|] / total, where `total` is rho's weight.

        The default suits a unit-weight ensemble.  A caller that has already
        summed the weights passes that sum, and each weight is divided by it
        here; the divided weights must still sum to 1.
        """
        if not total > 0.0:  # also rejects NaN
            raise ValueError("fidelity of a zero-weight ensemble is undefined")
        weights = [w / total for w, _ in rho.branches]
        norm = math.fsum(weights)
        if norm <= 0.0:
            raise ValueError("fidelity of a zero-weight ensemble is undefined")
        if not abs(norm - 1.0) <= 1e-9:  # also rejects NaN
            raise ValueError(
                f"ensemble weight {norm} != 1; renormalize before computing fidelity"
            )
        target = self.target
        if rho.channels != target.channels:
            raise ModeMismatchError("ensemble and target live on different channels")
        overlaps = self._overlaps
        terms = []
        for w, (_, st) in zip(weights, rho.branches):
            overlap = overlaps.get(st)
            if overlap is None:
                overlap = overlaps[st] = abs(inner_product(target, st)) ** 2
            terms.append(w * overlap)
        return math.fsum(terms)


def fidelity(rho: MixedState, target: FockState) -> float:
    """Tr[rho |target><target|] for a unit-weight ensemble."""
    return TargetOverlaps(target).fidelity(rho)


def closed_form_fidelity(gamma: float, eta: float) -> float:
    """Reference closed-form benchmark fidelity for the four-mode device.

    `eta` is the detection amplitude (the detection probability is eta**2);
    gamma is the two-photon fraction of the input.  Note: this benchmark's
    loss terms for two-photon inputs are inconsistent with exact simulation
    (see the acceptance tests); exact conditioning yields 1/(1 + eta_tilde^2)
    independent of gamma.  The two agree only at gamma = 0 and at eta = 1.
    Raises ValueError if a term overflows.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta out of range [0, 1]")
    lt = 1.0 - eta**2  # eta_tilde squared
    den = 2.0 + lt * (2.0 + 5.0 * gamma + 12.0 * gamma * lt)
    # the numerator's term is at most den's lt * 5 gamma, so any overflow
    # leaves den inf or NaN, where the ratio would print 0 or nan
    if not math.isfinite(den):
        raise ValueError(f"closed-form fidelity overflows at gamma={gamma}")
    return (2.0 + 5.0 * lt * gamma) / den
