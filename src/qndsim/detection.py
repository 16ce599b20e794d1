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
    FockState,
    MixedState,
    ModeMismatchError,
    as_channels,
    inner_product,
    nonnegative_fsum,
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
    detector model: `weigh` applies one.  `branch` builds a pattern's
    normalized state on each call; a device keeps the branches it reads out.
    """

    __slots__ = ("detected", "kept", "patterns", "top")

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

    def branch(self, pattern: tuple[int, ...]) -> FockState:
        """Normalized kept-channel state of one pattern."""
        return FockState(self.kept, self.patterns[pattern][1]).normalized()


def _picker(idx: Sequence[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Function taking an occupation tuple to its entries at `idx`, as a tuple."""
    if len(idx) == 1:
        (i,) = idx
        return lambda occ: (occ[i],)
    return itemgetter(*idx) if idx else lambda occ: ()


def pattern_table(
    state: FockState, detected_channels: Iterable[Channel]
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
        pattern: (nonnegative_fsum(abs(a) ** 2 for a in amps.values()), amps)
        for pattern, amps in groups.items()
    }
    return PatternTable(detected, kept, patterns)


def weigh(table: PatternTable, readings: tuple[int, ...],
          det: DetectorModel = IDEAL) -> list[tuple[float, tuple[int, ...]]]:
    """(weight, pattern) pairs of one set of readings on a pattern table.

    `readings` lists one reading per detected channel, in `table.detected`
    order, and `det` models every detector.  Each pattern is weighted by the
    product of its POVM coefficients times its mass, in table order; a zero
    coefficient or an underflowed product drops the pattern.  No state is
    built.
    """
    if len(readings) != len(table.detected):
        raise ModeMismatchError(f"{len(readings)} readings for detected channels {table.detected}")
    if det.efficiency == 1.0 and det.resolves_photon_number:
        # an ideal counter's only non-zero coefficient is exactly 1.0, at the
        # pattern equal to the readings, so look that pattern up
        pattern = tuple(readings)  # a list of readings cannot key a dict
        if (entry := table.patterns.get(pattern)) is not None:
            return [(entry[0], pattern)]
        if min(readings, default=0) < 0:  # no pattern holds a negative count
            raise ValueError("reading must be non-negative")
        return []
    # tabulated up to every occupation and every reading, once per distinct
    # reading; a reading above all occupations gets zero coefficients
    top = max((table.top, *readings))
    rows = {k: povm_element(k, det, top) for k in dict.fromkeys(readings)}
    coeffs = [rows[k] for k in readings]
    pairs: list[tuple[float, tuple[int, ...]]] = []
    for pattern, (mass, _) in table.patterns.items():
        povm_factor = math.prod(map(tuple.__getitem__, coeffs, pattern))
        if povm_factor != 0.0:
            pairs.append((povm_factor * mass, pattern))
    return pairs


def reweight(table: PatternTable, readings: tuple[int, ...],
             det: DetectorModel = IDEAL) -> tuple[float, MixedState]:
    """(probability, unnormalized conditional ensemble on the kept channels)
    of `weigh`'s pairs; the branch weights sum to the probability."""
    pairs = weigh(table, readings, det)
    return (nonnegative_fsum(w for w, _ in pairs),
            MixedState(tuple((w, table.branch(p)) for w, p in pairs)))


def condition(
    state: FockState, readings: Mapping[Channel, int], det: DetectorModel = IDEAL
) -> tuple[float, MixedState]:
    """Condition a pure state on one reading per detected channel.

    `det` models every detector.  Returns (probability, unnormalized
    conditional ensemble on the kept channels), exactly
    `reweight(pattern_table(state, readings), tuple(readings.values()), det)`.
    Exact for Fock-diagonal POVMs; the detected channels are traced out.
    """
    return reweight(pattern_table(state, readings), tuple(readings.values()), det)


def fidelity(rho: MixedState, target: FockState) -> float:
    """Tr[rho |target><target|] for a unit-weight ensemble, each weight
    divided by the ensemble's `fsum` of weights."""
    total = rho.total_weight()
    if not abs(total - 1.0) <= 1e-9:  # also rejects NaN
        raise ValueError(f"ensemble weight {total} != 1; renormalize before computing fidelity")
    if rho.channels != target.channels:
        raise ModeMismatchError("ensemble and target live on different channels")
    return math.fsum([w / total * abs(inner_product(target, st)) ** 2 for w, st in rho.branches])


def closed_form_fidelity(gamma: float, eta: float) -> float:
    """Reference closed-form benchmark fidelity for the four-mode device.

    `eta` is the detection amplitude (the detection probability is eta**2);
    gamma is the two-photon fraction of the input.  Note: this benchmark's
    loss terms for two-photon inputs are inconsistent with exact simulation
    (see the acceptance tests); exact conditioning yields 1/(1 + eta_tilde^2)
    independent of gamma.  The two agree only at gamma = 0 and at eta = 1.
    Raises ValueError if a term overflows.
    """
    if not 0.0 <= gamma < math.inf:  # also rejects NaN
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta out of range [0, 1]")
    lt = 1.0 - eta**2  # eta_tilde squared
    den = 2.0 + lt * (2.0 + 5.0 * gamma + 12.0 * gamma * lt)
    # the numerator's term is at most den's lt * 5 gamma, so any overflow
    # leaves den inf or NaN, where the ratio would print 0 or nan
    if not math.isfinite(den):
        raise ValueError(f"closed-form fidelity overflows at gamma={gamma}")
    return (2.0 + 5.0 * lt * gamma) / den
