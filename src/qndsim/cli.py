"""Command-line front end.

Subcommands: sweep (CSV fidelity/efficiency grids), run (single protocol
evaluation), circuit (parse and dump a circuit file), kerr-tau and noon-bound
(calculators).  Exit codes: 0 success, 1 runtime error, 2 usage/parse error.
All output is deterministic; floats are printed with 12 significant digits.
Each command declares its parameters once; `cmdline` parses argv from them.
"""

from __future__ import annotations

import math
import sys

from . import protocols
from .circuits import CircuitSyntaxError, parse_circuit, parse_complex
from .cmdline import FILE, FLOAT, INTEGER, PATH, Param, Program, UsageError, choice
from .detection import DetectorModel, closed_form_fidelity
from .fock import FockState
from .optics import KerrGateSpec, apply as apply_transform
from .protocols import (
    KerrStrengthParams,
    NumberInputSpec,
    PdcSourceSpec,
    PolarizationAngle,
)

main = Program("qndsim", "Simulator of linear-optical single-photon QND detection schemes.")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _spec(make, *args):
    """Build an input spec; a value it rejects is a usage error (exit 2)."""
    try:
        return make(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_theta(text: str | None) -> PolarizationAngle:
    if text is None:
        return PolarizationAngle.diagonal()
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise UsageError("theta must be '<theta>' or '<theta>,<phi>' (radians)")
    try:
        theta = float(parts[0])
        phi = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise UsageError(f"bad theta {text!r}") from None
    return _spec(PolarizationAngle.from_bloch, theta, phi)


def _parse_input(text: str | None, gamma: float | None) -> NumberInputSpec:
    if text is not None and gamma is not None:
        raise UsageError("give either --input or --gamma, not both")
    if text is not None:
        parts = text.split(",")
        if len(parts) != 3:
            raise UsageError("--input needs three comma-separated amplitudes")
        c0, c1, c2 = (_spec(parse_complex, p) for p in parts)
        if not (c0 or c1 or c2):
            raise UsageError("--input amplitudes are all zero")
        try:
            total = abs(c0) ** 2 + abs(c1) ** 2 + abs(c2) ** 2
        except OverflowError:
            total = math.inf
        # a sum of squares below the normal floats has lost the norm's precision
        if total == math.inf or total < sys.float_info.min:
            size = "large" if total == math.inf else "small"
            raise UsageError(f"--input amplitudes too {size} to normalize: {text}")
        norm = math.sqrt(total)
        return _spec(NumberInputSpec, c0 / norm, c1 / norm, c2 / norm)
    return _spec(NumberInputSpec.from_gamma, 0.0 if gamma is None else gamma)


@main.command(
    "sweep",
    Param(("--protocol",), "protocol", choice("number", "pol"), required=True),
    Param(("--gamma",), "gamma_list", default="0,0.1,1,10",
          help="Comma-separated two-photon fractions."),
    Param(("--eta2",), "eta2_range", default="0.5:1.0:51",
          help="Detector efficiency range start:stop:steps."),
    Param(("--theta",), "theta", help="Bloch angles 'theta[,phi]' (pol only)."),
    Param(("--transmission", "-T"), "transmission", FLOAT, 0.5,
          help="Beam-splitter transmission (number only)."),
    Param(("--out",), "out", FILE,
          help="Write CSV to a file instead of stdout."),
)
def sweep(protocol, gamma_list, eta2_range, theta, transmission, out):
    """Sweep detector efficiency and two-photon fraction; emit CSV."""
    try:
        gammas = [float(g) for g in gamma_list.split(",") if g.strip() != ""]
    except ValueError:
        raise UsageError(f"bad gamma list {gamma_list!r}") from None
    if not gammas:
        raise UsageError("gamma list is empty")
    specs = [_spec(NumberInputSpec.from_gamma, g) for g in gammas]
    parts = eta2_range.split(":")
    if len(parts) != 3:
        raise UsageError("eta2 range must be start:stop:steps")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad eta2 range {eta2_range!r}") from None
    if not (0.0 <= start < stop <= 1.0) or steps < 2:
        raise UsageError("need 0 <= start < stop <= 1 and steps >= 2")
    if protocol == "number" and not 0.0 < transmission < 1.0:
        raise UsageError(f"transmission must be in (0, 1), got {transmission}")
    angle = _parse_theta(theta)
    # semicolon keeps the angle pair inside a single CSV field
    theta_field = "" if protocol == "number" else (
        theta.replace(",", ";") if theta is not None else "pi/2;0"
    )

    lines = ["protocol,eta2,gamma,theta,success_prob,fidelity_sim,fidelity_closed,abs_diff"]
    for gamma, spec in zip(gammas, specs):
        # evolution does not depend on eta2: evolve once, reweight per row
        if protocol == "number":
            device = protocols.number_device(spec, transmission)
        else:
            device = protocols.pol_device(spec, angle)
        for i in range(steps):
            # the last point is `stop` itself, which the formula can miss by an ulp
            eta2 = stop if i == steps - 1 else start + (stop - start) * i / (steps - 1)
            outc = device.outcome(DetectorModel(eta2))
            eta = math.sqrt(eta2)
            # an overflowing closed form is a usage error, before any output
            if protocol == "number":
                closed = _spec(closed_form_fidelity, gamma, eta)
            else:
                closed = _spec(protocols.pol_fidelity_approx, gamma, eta)
            lines.append(
                ",".join(
                    [
                        protocol,
                        _fmt(eta2),
                        _fmt(gamma),
                        theta_field,
                        _fmt(outc.success_probability),
                        _fmt(outc.fidelity),
                        _fmt(closed),
                        _fmt(abs(outc.fidelity - closed)),
                    ]
                )
            )
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_PROTOCOLS = ("number", "pol", "teleport-number", "teleport-pol", "kerr", "kerr-tau")


@main.command(
    "run",
    Param(("{" + "|".join(_PROTOCOLS) + "}",), "protocol", choice(*_PROTOCOLS)),
    Param(("--input",), "input_text", help="Amplitudes c0,c1,c2."),
    Param(("--gamma",), "gamma", FLOAT, help="Two-photon fraction (c0=0)."),
    Param(("--eta2",), "eta2", FLOAT, 1.0),
    Param(("--transmission", "-T", "--t"), "transmission", FLOAT, 0.5,
          help="Beam-splitter transmission (number)."),
    Param(("--theta",), "theta", help="Bloch angles 'theta[,phi]'."),
    Param(("--tau",), "tau", FLOAT, math.pi,
          help="Cross-phase per photon pair (kerr)."),
    Param(("--epsilon",), "epsilon", FLOAT, 0.01,
          help="Pair-source amplitude (teleport protocols)."),
    Param(("--omega",), "omega", FLOAT, help="Carrier frequency rad/s (kerr-tau)."),
    Param(("--dt",), "dt", FLOAT, help="Interaction time s (kerr-tau)."),
    Param(("--chi3",), "chi3", FLOAT, help="chi(3) in m^2/V^2 (kerr-tau)."),
    Param(("--volume",), "volume", FLOAT, help="Interaction volume m^3 (kerr-tau)."),
)
def run(protocol, input_text, gamma, eta2, transmission, theta, tau, epsilon,
        omega, dt, chi3, volume):
    """Evaluate one protocol and print a report."""
    if protocol == "kerr-tau":
        missing = [n for n, v in
                   [("--omega", omega), ("--dt", dt), ("--chi3", chi3), ("--volume", volume)]
                   if v is None]
        if missing:
            raise UsageError(f"kerr-tau needs {', '.join(missing)}")
        params = KerrStrengthParams(omega, dt, chi3, volume)
        sys.stdout.write(f"tau {_fmt(protocols.kerr_tau(params))}\n")
        return

    if not 0.0 <= eta2 <= 1.0:
        raise UsageError("eta2 must be in [0, 1]")
    if protocol == "number" and not 0.0 < transmission < 1.0:
        raise UsageError(f"transmission must be in (0, 1), got {transmission}")
    if protocol == "kerr":
        _spec(KerrGateSpec, tau)
    src = _spec(PdcSourceSpec, epsilon) if protocol.startswith("teleport") else None
    spec = _parse_input(input_text, gamma)
    det = DetectorModel(eta2)
    angle = _parse_theta(theta)
    if protocol == "number":
        outc = protocols.number_qnd(spec, transmission, det)
    elif protocol == "pol":
        outc = protocols.pol_qnd(spec, angle, det)
    elif protocol == "teleport-number":
        outc = protocols.teleport_number_qnd(spec, src)
    elif protocol == "teleport-pol":
        outc = protocols.teleport_pol_qnd(spec, angle, src)
    else:  # kerr
        outc = protocols.kerr_qnd(spec, tau, det)

    branches = outc.conditional_output.branches
    lines = [
        f"protocol {protocol}",
        f"success_probability {_fmt(outc.success_probability)}",
        f"fidelity {_fmt(outc.fidelity)}",
        f"branches {len(branches)}",
    ]
    for i, (w, st) in enumerate(branches):
        kets = " ".join(
            f"|{','.join(map(str, occ))}>:{_fmt_complex(a)}"
            for occ, a in sorted(st.amplitudes.items())
        )
        lines.append(f"branch {i} weight {_fmt(w)} {kets}")
    sys.stdout.write("\n".join(lines) + "\n")


@main.command(
    "circuit",
    Param(("PATH",), "path", PATH),
    Param(("--amp",), "amps", multiple=True,
          help="Input ket 'n1,n2,...=c'; repeat to build a superposition."),
)
def circuit(path, amps):
    """Parse a circuit file, dump its unitary, optionally evolve a state."""
    try:
        with open(path, encoding="utf-8") as fh:
            transform = parse_circuit(fh.read())
    except (UnicodeDecodeError, CircuitSyntaxError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(2)
    # the input state is built first, so a malformed --amp prints nothing
    state = None
    if amps:
        state_amps: dict[tuple[int, ...], complex] = {}
        for item in amps:
            if "=" not in item:
                raise UsageError(f"bad --amp {item!r}, expected 'n1,n2,...=c'")
            occ_text, amp_text = item.rsplit("=", 1)
            try:
                occ = tuple(int(n) for n in occ_text.split(","))
            except ValueError:
                raise UsageError(f"bad occupation in {item!r}") from None
            state_amps[occ] = state_amps.get(occ, 0j) + _spec(parse_complex, amp_text)
        state = _spec(FockState, transform.channels, state_amps)
        # as for --input: a sum of squares below the normal floats has lost the
        # norm's precision, and one that overflows has none
        total = state.norm_squared()
        if any(state_amps.values()) and not sys.float_info.min <= total < math.inf:
            size = "large" if total == math.inf else "small"
            raise UsageError(f"--amp amplitudes too {size} to normalize: {' '.join(amps)}")
        state = _spec(state.normalized)
    lines = ["channels " + " ".join(str(c) for c in transform.channels)]
    lines += [" ".join(_fmt_complex(z) for z in row) for row in zip(*transform.columns)]
    sys.stdout.write("\n".join(lines) + "\n")
    if state is not None:
        result = apply_transform(transform, state)
        lines = ["output"]
        lines += [f"|{','.join(map(str, occ))}> {_fmt_complex(a)}"
                  for occ, a in sorted(result.amplitudes.items())]
        sys.stdout.write("\n".join(lines) + "\n")


@main.command(
    "kerr-tau",
    Param(("--omega",), "omega", FLOAT, required=True, help="Carrier frequency, rad/s."),
    Param(("--dt",), "dt", FLOAT, required=True, help="Interaction time, s."),
    Param(("--chi3",), "chi3", FLOAT, required=True, help="chi(3), m^2/V^2."),
    Param(("--volume",), "volume", FLOAT, required=True, help="Interaction volume, m^3."),
)
def kerr_tau_cmd(omega, dt, chi3, volume):
    """Dimensionless Kerr coupling for the given material parameters."""
    params = KerrStrengthParams(omega, dt, chi3, volume)
    sys.stdout.write(_fmt(protocols.kerr_tau(params)) + "\n")


@main.command("noon-bound", Param(("N",), "n", INTEGER))
def noon_bound_cmd(n):
    """Minimum resolvable cross-phase pi/(2 N) for an N-photon noon probe."""
    sys.stdout.write(_fmt(protocols.noon_bound(n)) + "\n")


if __name__ == "__main__":  # pragma: no cover
    main()
