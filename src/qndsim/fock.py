"""Sparse multimode Fock states.

States live on an ordered tuple of channels (an unpolarized mode contributes one
channel, a polarized mode the pair H/V) and are stored as a sparse map from
occupation vectors to complex amplitudes.  Everything here is immutable; all
operations return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

NORM_TOL = 1e-12


class ModeMismatchError(ValueError):
    """Channel/mode sets of two objects do not line up."""


class TruncationError(ValueError):
    """An occupation exceeded the bound given when a state was constructed.

    Linear optics conserves photon number, so evolved states need no bound;
    one given explicitly is a hard error rather than silent truncation.
    """


@dataclass(frozen=True, order=True)
class Channel:
    """One bosonic channel: a spatial label plus optional polarization."""

    spatial: str
    pol: str | None = None

    def __post_init__(self):
        if self.pol not in (None, "H", "V"):
            raise ValueError(f"polarization must be None, 'H' or 'V', got {self.pol!r}")

    def __str__(self) -> str:
        return self.spatial if self.pol is None else f"{self.spatial}.{self.pol}"

    def __repr__(self) -> str:
        return f"Channel({str(self)!r})"


@dataclass(frozen=True)
class Mode:
    """A spatial mode; polarized modes expose exactly the (H, V) channel pair."""

    spatial: str
    polarized: bool = False

    @cached_property  # kept in the instance's __dict__, outside eq, hash and repr
    def channels(self) -> tuple[Channel, ...]:
        if self.polarized:
            return (Channel(self.spatial, "H"), Channel(self.spatial, "V"))
        return (Channel(self.spatial),)


ChannelLike = Union[Channel, Mode, str]


def as_channels(items: Iterable[ChannelLike]) -> tuple[Channel, ...]:
    """Flatten modes/channels/labels into a unique ordered channel tuple."""
    out: list[Channel] = []
    for item in items:
        if isinstance(item, Mode):
            out.extend(item.channels)
        elif isinstance(item, Channel):
            out.append(item)
        elif isinstance(item, str):
            out.append(Channel(item))
        else:
            raise TypeError(f"not a mode or channel: {item!r}")
    if len(set(out)) != len(out):
        raise ModeMismatchError(f"duplicate channels in {out}")
    return tuple(out)


class FockState:
    """Pure multimode state as a sparse occupation-vector -> amplitude map."""

    __slots__ = ("channels", "amplitudes")

    def __init__(
        self,
        channels: Iterable[ChannelLike],
        amplitudes: Mapping[Sequence[int], complex],
        n_max: int | None = None,
    ):
        """`n_max`, if given, bounds every occupation, checked here only.

        The one validating constructor: amplitudes whose |a|^2 is 0 are
        dropped, and NaN or infinite ones, or ones whose |a|^2 overflows,
        rejected.  Kernels whose output meets these invariants by construction
        build it with `_trusted` instead.
        """
        chans = as_channels(channels)
        width = len(chans)
        amps: dict[tuple[int, ...], complex] = {}
        for key, a in amplitudes.items():
            try:
                occ = tuple(map(int, key))
            except (OverflowError, ValueError):  # inf, NaN, a non-numeric string
                occ = None
            if occ != tuple(key):
                raise ValueError(f"occupation {key!r} is not a tuple of integers")
            if len(occ) != width:
                raise ModeMismatchError(
                    f"occupation {occ} has {len(occ)} entries for {width} channels"
                )
            if width and min(occ) < 0:
                raise ValueError(f"negative occupation in {occ}")
            if n_max is not None and width and max(occ) > n_max:
                raise TruncationError(f"occupation {occ} exceeds n_max={n_max}")
            a = complex(a)
            size = abs(a)
            mag = size * size  # overflows to inf where ** 2 would raise
            if 0.0 < mag < math.inf:
                amps[occ] = amps.get(occ, 0.0 + 0.0j) + a
            elif not mag <= 0.0:  # NaN or infinite
                raise ValueError(f"non-finite amplitude {a} at {occ}: |a|^2 = {mag}")
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FockState is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(
        cls, channels: tuple[Channel, ...], amplitudes: dict[tuple[int, ...], complex]
    ) -> "FockState":
        """Wrap, without copying or checking, a channel tuple and an amplitude
        dict that already meet `__init__`'s invariants: int-tuple keys of the
        right width, no negative occupation, 0 < |a|^2 < inf, no -0.0 parts."""
        self = object.__new__(cls)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "amplitudes", amplitudes)
        return self

    @classmethod
    def vacuum(cls, channels: Iterable[ChannelLike]) -> "FockState":
        chans = as_channels(channels)
        return cls(chans, {(0,) * len(chans): 1.0})

    @classmethod
    def basis(
        cls, channels: Iterable[ChannelLike], occupation: Sequence[int]
    ) -> "FockState":
        return cls(channels, {tuple(occupation): 1.0})

    # -- basic queries -----------------------------------------------------

    def norm_squared(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def amplitude(self, occupation: Sequence[int]) -> complex:
        return self.amplitudes.get(tuple(occupation), 0.0 + 0.0j)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __repr__(self) -> str:
        labels = ",".join(str(c) for c in self.channels)
        return f"FockState([{labels}], {len(self.amplitudes)} kets)"

    # -- arithmetic --------------------------------------------------------

    def scaled(self, factor: complex) -> "FockState":
        return FockState(
            self.channels, {occ: factor * a for occ, a in self.amplitudes.items()}
        )

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self.scaled(1.0 / n)


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product; channel lists concatenate, amplitudes multiply."""
    if set(a.channels) & set(b.channels):
        raise ModeMismatchError("tensor factors share channels")
    amps = {
        occ_a + occ_b: amp_a * amp_b
        for occ_a, amp_a in a.amplitudes.items()
        for occ_b, amp_b in b.amplitudes.items()
    }
    return FockState(a.channels + b.channels, amps)


def apply_creation(state: FockState, channel: ChannelLike, power: int = 1) -> FockState:
    """Apply (a_channel^dagger)^power; result is generally unnormalized."""
    (chan,) = as_channels([channel])
    if chan not in state.channels:
        raise ModeMismatchError(f"channel {chan} not in state")
    if power < 0:
        raise ValueError("power must be non-negative")
    idx = state.channels.index(chan)
    amps: dict[tuple[int, ...], complex] = {}
    for occ, a in state.amplitudes.items():
        n = occ[idx]
        # a†|n> = sqrt(n+1)|n+1>, iterated `power` times
        factor = math.sqrt(math.prod(range(n + 1, n + power + 1)))
        new = occ[:idx] + (n + power,) + occ[idx + 1 :]
        amps[new] = amps.get(new, 0.0 + 0.0j) + factor * a
    return FockState(state.channels, amps)


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.channels != b.channels:
        raise ModeMismatchError(f"channel mismatch: {a.channels} vs {b.channels}")
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = 0.0 + 0.0j
    for occ, amp in small.amplitudes.items():
        other = large.amplitudes.get(occ)
        if other is not None:
            if small is a:
                total += amp.conjugate() * other
            else:
                total += other.conjugate() * amp
    return total


@dataclass(frozen=True)
class MixedState:
    """Probability-weighted ensemble of pure states (all on the same channels).

    Weights are unnormalized conditional probabilities; each branch state is
    individually normalized.
    """

    branches: tuple[tuple[float, FockState], ...]

    def __post_init__(self):
        chans = None
        for w, st in self.branches:
            if w < -NORM_TOL:
                raise ValueError(f"negative branch weight {w}")
            if chans is None:
                chans = st.channels
            elif st.channels != chans:
                raise ModeMismatchError("branches live on different channels")

    @property
    def channels(self) -> tuple[Channel, ...]:
        if not self.branches:
            raise ValueError("empty ensemble has no channels")
        return self.branches[0][1].channels

    def total_weight(self) -> float:
        return math.fsum(w for w, _ in self.branches)

