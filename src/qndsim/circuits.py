"""Line-oriented circuit description files.

Grammar (one element per line, '#' starts a comment, angles in radians):

    mode <name> [pol]            declare a mode (order fixes channel order)
    bs <m1> <m2> T=<float> [flip]   beam splitter
    ps <m> phi=<float>           phase shifter
    rot <m> angle=<float>        polarization rotator (polarized modes only)
    pbs <m1> <m2>                polarizing beam splitter
    matrix <k> <k*k complex entries row-major>   raw unitary block applied to
                                 the first k declared channels

Complex literals are written `re+imi` (e.g. 0.5-0.5i, 1, -2i).
"""

from __future__ import annotations

from .fock import Mode
from .optics import (
    BeamSplitterSpec,
    ModeTransform,
    beam_splitter,
    compose,
    identity_transform,
    matrix_transform,
    phase_shifter,
    polarization_rotator,
    polarizing_beam_splitter,
)

import numpy as np


class CircuitSyntaxError(ValueError):
    """Malformed circuit text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_complex(tok: str) -> complex:
    """Read a complex literal such as `0.5-0.5i`; raises ValueError if malformed."""
    try:
        return complex(tok.strip().replace("i", "j"))
    except ValueError:
        raise ValueError(f"bad complex literal {tok!r}") from None


def _kwarg(tok: str, key: str, line_no: int) -> float:
    if not tok.startswith(key + "="):
        raise CircuitSyntaxError(line_no, f"expected {key}=<float>, got {tok!r}")
    try:
        return float(tok[len(key) + 1 :])
    except ValueError:
        raise CircuitSyntaxError(line_no, f"bad number in {tok!r}") from None


def parse_circuit(text: str) -> ModeTransform:
    """Parse a circuit description into the composed ModeTransform."""
    modes: dict[str, Mode] = {}

    def get_mode(name: str, line_no: int) -> Mode:
        if name not in modes:
            raise CircuitSyntaxError(line_no, f"unknown mode {name!r}")
        return modes[name]

    transforms: list[ModeTransform] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        op, args = toks[0], toks[1:]
        try:
            if op == "mode":
                if not args or len(args) > 2 or (len(args) == 2 and args[1] != "pol"):
                    raise CircuitSyntaxError(line_no, "usage: mode <name> [pol]")
                name = args[0]
                if name in modes:
                    raise CircuitSyntaxError(line_no, f"mode {name!r} already declared")
                modes[name] = Mode(name, polarized=len(args) == 2)
            elif op == "bs":
                flip = False
                if args and args[-1] == "flip":
                    flip = True
                    args = args[:-1]
                if len(args) != 3:
                    raise CircuitSyntaxError(line_no, "usage: bs <m1> <m2> T=<float> [flip]")
                t_val = _kwarg(args[2], "T", line_no)
                if not 0.0 <= t_val <= 1.0:
                    raise CircuitSyntaxError(line_no, "transmission out of range [0, 1]")
                spec = BeamSplitterSpec(t_val, flip=flip)
                transforms.append(
                    beam_splitter(spec, get_mode(args[0], line_no), get_mode(args[1], line_no))
                )
            elif op == "ps":
                if len(args) != 2:
                    raise CircuitSyntaxError(line_no, "usage: ps <m> phi=<float>")
                phi = _kwarg(args[1], "phi", line_no)
                transforms.append(phase_shifter(phi, get_mode(args[0], line_no)))
            elif op == "rot":
                if len(args) != 2:
                    raise CircuitSyntaxError(line_no, "usage: rot <m> angle=<float>")
                angle = _kwarg(args[1], "angle", line_no)
                transforms.append(polarization_rotator(angle, get_mode(args[0], line_no)))
            elif op == "pbs":
                if len(args) != 2:
                    raise CircuitSyntaxError(line_no, "usage: pbs <m1> <m2>")
                transforms.append(
                    polarizing_beam_splitter(
                        get_mode(args[0], line_no), get_mode(args[1], line_no)
                    )
                )
            elif op == "matrix":
                if not args:
                    raise CircuitSyntaxError(line_no, "usage: matrix <k> <k*k entries>")
                try:
                    k = int(args[0])
                except ValueError:
                    k = -1
                if k < 0:
                    raise CircuitSyntaxError(line_no, f"bad size {args[0]!r}")
                entries = args[1:]
                if len(entries) != k * k:
                    raise CircuitSyntaxError(
                        line_no, f"matrix needs {k * k} entries, got {len(entries)}"
                    )
                declared = [c for m in modes.values() for c in m.channels]
                if len(declared) < k:
                    raise CircuitSyntaxError(
                        line_no, f"matrix size {k} exceeds {len(declared)} declared channels"
                    )
                mat = np.array(
                    [parse_complex(tok) for tok in entries], dtype=complex
                ).reshape(k, k)
                transforms.append(matrix_transform(declared[:k], mat))
            else:
                raise CircuitSyntaxError(line_no, f"unknown element {op!r}")
        except (ValueError, TypeError) as exc:
            if isinstance(exc, CircuitSyntaxError):
                raise
            raise CircuitSyntaxError(line_no, str(exc)) from exc

    if not modes:
        raise CircuitSyntaxError(1, "no modes declared")
    all_channels = [c for m in modes.values() for c in m.channels]
    total = identity_transform(all_channels)
    for t in transforms:
        total = compose(total, t)
    # starting from the identity on every declared channel keeps their order
    return total
