"""Command-line front end.

Subcommands: sweep (CSV fidelity/efficiency grids), run (single protocol
evaluation), circuit (parse and dump a circuit file), kerr-tau and noon-bound
(calculators).  Exit codes: 0 success, 1 runtime error, 2 usage/parse error.
All output is deterministic; floats are printed with 12 significant digits.
"""

from __future__ import annotations

import math
import sys

import click

from . import protocols
from .circuits import CircuitSyntaxError, parse_circuit, parse_complex
from .detection import DetectorModel, closed_form_fidelity
from .fock import FockState
from .optics import KerrGateSpec, apply as apply_transform
from .protocols import (
    KerrStrengthParams,
    NumberInputSpec,
    PdcSourceSpec,
    PolarizationAngle,
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    re, im = _fmt(z.real), _fmt(z.imag)
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{_fmt(abs(z.imag))}i"


def _echo(text: str, err: bool = False, nl: bool = True) -> None:
    """click.echo to the current sys.stdout, or sys.stderr with `err`.

    Given no `file`, click caches the stream it picks in a WeakKeyDictionary
    whose value is the stream itself, so every stream that an in-process
    caller redirects output to would stay alive for the life of the process.
    """
    click.echo(text, file=sys.stderr if err else sys.stdout, nl=nl)


def _spec(make, *args):
    """Build an input spec; a value it rejects is a usage error (exit 2)."""
    try:
        return make(*args)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _kerr_tau(omega: float, dt: float, chi3: float, volume: float) -> float:
    """Kerr coupling shared by `run kerr-tau` and `kerr-tau`; bad values exit 1."""
    try:
        return protocols.kerr_tau(KerrStrengthParams(omega, dt, chi3, volume))
    except ValueError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(1)


def _parse_theta(text: str | None) -> PolarizationAngle:
    if text is None:
        return PolarizationAngle.diagonal()
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise click.UsageError("theta must be '<theta>' or '<theta>,<phi>' (radians)")
    try:
        theta = float(parts[0])
        phi = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise click.UsageError(f"bad theta {text!r}") from None
    return _spec(PolarizationAngle.from_bloch, theta, phi)


def _parse_input(text: str | None, gamma: float | None) -> NumberInputSpec:
    if text is not None and gamma is not None:
        raise click.UsageError("give either --input or --gamma, not both")
    if text is not None:
        parts = text.split(",")
        if len(parts) != 3:
            raise click.UsageError("--input needs three comma-separated amplitudes")
        c0, c1, c2 = (_spec(parse_complex, p) for p in parts)
        norm = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2 + abs(c2) ** 2)
        if norm == 0.0:
            raise click.UsageError("--input amplitudes are all zero")
        return _spec(NumberInputSpec, c0 / norm, c1 / norm, c2 / norm)
    return _spec(NumberInputSpec.from_gamma, 0.0 if gamma is None else gamma)


@click.group()
def main() -> None:
    """Simulator of linear-optical single-photon QND detection schemes."""


@main.command()
@click.option("--protocol", type=click.Choice(["number", "pol"]), required=True)
@click.option("--gamma", "gamma_list", default="0,0.1,1,10", show_default=True,
              help="Comma-separated two-photon fractions.")
@click.option("--eta2", "eta2_range", default="0.5:1.0:51", show_default=True,
              help="Detector efficiency range start:stop:steps.")
@click.option("--theta", default=None, help="Bloch angles 'theta[,phi]' (pol only).")
@click.option("--transmission", "-T", default=0.5, show_default=True,
              help="Beam-splitter transmission (number only).")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write CSV to a file instead of stdout.")
def sweep(protocol, gamma_list, eta2_range, theta, transmission, out):
    """Sweep detector efficiency and two-photon fraction; emit CSV."""
    try:
        gammas = [float(g) for g in gamma_list.split(",") if g.strip() != ""]
    except ValueError:
        raise click.UsageError(f"bad gamma list {gamma_list!r}") from None
    if not gammas:
        raise click.UsageError("gamma list is empty")
    specs = [_spec(NumberInputSpec.from_gamma, g) for g in gammas]
    parts = eta2_range.split(":")
    if len(parts) != 3:
        raise click.UsageError("eta2 range must be start:stop:steps")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise click.UsageError(f"bad eta2 range {eta2_range!r}") from None
    if not (0.0 <= start < stop <= 1.0) or steps < 2:
        raise click.UsageError("need 0 <= start < stop <= 1 and steps >= 2")
    if protocol == "number" and not 0.0 < transmission < 1.0:
        raise click.UsageError(f"transmission must be in (0, 1), got {transmission}")
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
        _echo(text, nl=False)


@main.command()
@click.argument(
    "protocol",
    type=click.Choice(
        ["number", "pol", "teleport-number", "teleport-pol", "kerr", "kerr-tau"]
    ),
)
@click.option("--input", "input_text", default=None, help="Amplitudes c0,c1,c2.")
@click.option("--gamma", type=float, default=None, help="Two-photon fraction (c0=0).")
@click.option("--eta2", type=float, default=1.0, show_default=True)
@click.option("--transmission", "-T", "--t", "transmission", type=float, default=0.5,
              show_default=True, help="Beam-splitter transmission (number).")
@click.option("--theta", default=None, help="Bloch angles 'theta[,phi]'.")
@click.option("--tau", type=float, default=math.pi, show_default=True,
              help="Cross-phase per photon pair (kerr).")
@click.option("--epsilon", type=float, default=0.01, show_default=True,
              help="Pair-source amplitude (teleport protocols).")
@click.option("--omega", type=float, default=None, help="Carrier frequency rad/s (kerr-tau).")
@click.option("--dt", type=float, default=None, help="Interaction time s (kerr-tau).")
@click.option("--chi3", type=float, default=None, help="chi(3) in m^2/V^2 (kerr-tau).")
@click.option("--volume", type=float, default=None, help="Interaction volume m^3 (kerr-tau).")
def run(protocol, input_text, gamma, eta2, transmission, theta, tau, epsilon,
        omega, dt, chi3, volume):
    """Evaluate one protocol and print a report."""
    if protocol == "kerr-tau":
        missing = [n for n, v in
                   [("--omega", omega), ("--dt", dt), ("--chi3", chi3), ("--volume", volume)]
                   if v is None]
        if missing:
            raise click.UsageError(f"kerr-tau needs {', '.join(missing)}")
        _echo(f"tau {_fmt(_kerr_tau(omega, dt, chi3, volume))}")
        return

    if not 0.0 <= eta2 <= 1.0:
        raise click.UsageError("eta2 must be in [0, 1]")
    if protocol == "number" and not 0.0 < transmission < 1.0:
        raise click.UsageError(f"transmission must be in (0, 1), got {transmission}")
    if protocol == "kerr":
        _spec(KerrGateSpec, tau)
    src = _spec(PdcSourceSpec, epsilon) if protocol.startswith("teleport") else None
    spec = _parse_input(input_text, gamma)
    det = DetectorModel(eta2)
    angle = _parse_theta(theta)
    try:
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
    except ValueError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(1)

    _echo(f"protocol {protocol}")
    _echo(f"success_probability {_fmt(outc.success_probability)}")
    _echo(f"fidelity {_fmt(outc.fidelity)}")
    _echo(f"branches {len(outc.conditional_output.branches)}")
    for i, (w, st) in enumerate(outc.conditional_output.branches):
        kets = " ".join(
            f"|{','.join(map(str, occ))}>:{_fmt_complex(a)}"
            for occ, a in sorted(st.amplitudes.items())
        )
        _echo(f"branch {i} weight {_fmt(w)} {kets}")


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--amp", "amps", multiple=True,
              help="Input ket 'n1,n2,...=c'; repeat to build a superposition.")
def circuit(path, amps):
    """Parse a circuit file, dump its unitary, optionally evolve a state."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        transform = parse_circuit(text)
    except CircuitSyntaxError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(2)
    # the input state is built first, so a malformed --amp prints nothing
    state = None
    if amps:
        state_amps: dict[tuple[int, ...], complex] = {}
        for item in amps:
            if "=" not in item:
                raise click.UsageError(f"bad --amp {item!r}, expected 'n1,n2,...=c'")
            occ_text, amp_text = item.rsplit("=", 1)
            try:
                occ = tuple(int(n) for n in occ_text.split(","))
            except ValueError:
                raise click.UsageError(f"bad occupation in {item!r}") from None
            state_amps[occ] = state_amps.get(occ, 0j) + _spec(parse_complex, amp_text)
        state = _spec(FockState, transform.channels, state_amps)
        state = _spec(state.normalized)
    _echo("channels " + " ".join(str(c) for c in transform.channels))
    for row in transform.matrix:
        _echo(" ".join(_fmt_complex(z) for z in row))
    if state is not None:
        try:
            result = apply_transform(transform, state)
        except ValueError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(1)
        _echo("output")
        for occ, a in sorted(result.amplitudes.items()):
            _echo(f"|{','.join(map(str, occ))}> {_fmt_complex(a)}")


@main.command("kerr-tau")
@click.option("--omega", type=float, required=True, help="Carrier frequency, rad/s.")
@click.option("--dt", type=float, required=True, help="Interaction time, s.")
@click.option("--chi3", type=float, required=True, help="chi(3), m^2/V^2.")
@click.option("--volume", type=float, required=True, help="Interaction volume, m^3.")
def kerr_tau_cmd(omega, dt, chi3, volume):
    """Dimensionless Kerr coupling for the given material parameters."""
    _echo(_fmt(_kerr_tau(omega, dt, chi3, volume)))


@main.command("noon-bound")
@click.argument("n", type=int)
def noon_bound_cmd(n):
    """Minimum resolvable cross-phase pi/(2 N) for an N-photon noon probe."""
    try:
        value = protocols.noon_bound(n)
    except ValueError as exc:
        _echo(f"error: {exc}", err=True)
        sys.exit(1)
    _echo(_fmt(value))


if __name__ == "__main__":  # pragma: no cover
    main()
