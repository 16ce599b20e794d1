"""Seeded op decks for the three workloads, how each op is run, and its oracle.

Every workload is a sequence of *decks*.  A deck has a fixed composition (how
many ops of each shape) and the seed only draws the parameters and the order.
Runs therefore measure whole decks, so the work mix behind every figure is the
same for every seed.  Ops are run through qndsim's public entry points, always
looked up as module attributes at call time so a trace can wrap them.

Each oracle is independent of the seed and of the code under test: closed-form
device formulas, the CODATA constants and a Ryser permanent.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from qndsim import circuits, cli, fock, optics

TOL = 1e-9  # relative; CLI floats carry 12 significant digits


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def fmt(x: float) -> str:
    return f"{x:.12g}"


def fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt(z.real)}{sign}{fmt(abs(z.imag))}i"


def parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j"))


@dataclass(frozen=True)
class Op:
    """One request: what to run and what the oracle needs to check it."""

    kind: str
    argv: tuple[str, ...] = ()
    expect: tuple = ()


def deck_rng(seed: int, deck: int) -> random.Random:
    return random.Random(f"{seed}:{deck}")


# ---------------------------------------------------------------------------
# CLI ops (sweep, run-mix)
# ---------------------------------------------------------------------------


def invoke_cli(argv: tuple[str, ...]) -> tuple[int | None, str]:
    """Run one `qndsim` command in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=list(argv), prog_name="qndsim")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def render_cli_op(op: Op, result) -> str:
    code, stdout = result
    return f"$ qndsim {' '.join(op.argv)}\nexit {code}\n{stdout}"


# -- sweep ------------------------------------------------------------------

# (protocol, gamma count, eta2 steps).  Three quarters pol, the rest number.
# Rows per command run from 11 to 204.  Costs fall in three groups of four, a
# factor of two apart: cheap ops, pol sweeps of 33-34 rows and pol sweeps of
# 66-68 rows.  The median op is then always a 33-34-row pol sweep and the
# p75 and p90 ops 66-68-row ones, whatever the seed.
SWEEP_DECK = (
    ("number", 1, 51), ("number", 2, 31), ("number", 4, 51), ("pol", 1, 11),
    ("pol", 3, 11), ("pol", 1, 33), ("pol", 2, 17), ("pol", 1, 34),
    ("pol", 2, 33), ("pol", 3, 22), ("pol", 4, 17), ("pol", 2, 34),
)

SWEEP_HEADER = "protocol,eta2,gamma,theta,success_prob,fidelity_sim,fidelity_closed,abs_diff"
POL_IDEAL_SUCCESS = (4.0 / 27.0) ** 2


def sweep_deck(seed: int, deck: int) -> list[Op]:
    rng = deck_rng(seed, deck)
    ops = []
    for protocol, n_gamma, steps in SWEEP_DECK:
        gammas = [f"{rng.uniform(0.0, 10.0):.4g}" for _ in range(n_gamma)]
        # Grids start where the CLI's default does or above; grids from lower
        # starts can overshoot 1.0, a defect the run-mix edge requests keep in view.
        start = f"{rng.uniform(0.5, 0.95):.4f}"
        argv = ["sweep", "--protocol", protocol, "--gamma", ",".join(gammas),
                "--eta2", f"{start}:1.0:{steps}"]
        if protocol == "pol":
            argv += ["--theta", _theta(rng)]
            transmission = None
        else:
            transmission = f"{rng.uniform(0.05, 0.95):.4f}"
            argv += ["-T", transmission]
        ops.append(Op("sweep", tuple(argv), (protocol, gammas, steps, transmission)))
    rng.shuffle(ops)
    return ops


def check_sweep(op: Op, code, stdout: str) -> str:
    """Empty string when the CSV passes, else the reason it fails."""
    protocol, gammas, steps, transmission = op.expect
    if code != 0:
        return f"exit {code}"
    lines = stdout.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return "bad header"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(gammas) * steps:
        return f"{len(rows)} rows, expected {len(gammas) * steps}"
    for i, row in enumerate(rows):
        if len(row) != 8 or row[0] != protocol:
            return f"row {i}: malformed"
        gamma, success, fid = float(gammas[i // steps]), float(row[4]), float(row[5])
        if not close(float(row[2]), gamma):
            return f"row {i}: gamma {row[2]} != {gamma}"
        for name, x in (("success", success), ("fidelity", fid)):
            if not -TOL <= x <= 1.0 + TOL:
                return f"row {i}: {name} {x} outside [0, 1]"
        if i % steps == steps - 1:  # the eta2 = 1 row: ideal detectors
            p1 = 1.0 / (1.0 + gamma)
            if protocol == "number":
                t = float(transmission)
                expected = p1 * t * (1.0 - t) ** 2
            else:
                expected = p1 * POL_IDEAL_SUCCESS
                if not close(fid, 1.0):
                    return f"row {i}: ideal pol fidelity {fid} != 1"
            if not close(success, expected):
                return f"row {i}: ideal success {success} != {expected}"
    return ""


# -- run-mix ----------------------------------------------------------------

# Per 98-op deck: number 30, kerr 25, teleport-number 20, teleport-pol 15,
# pol 3, kerr-tau 5.  The number ops are split three ways so that each
# closed-form oracle sees ten inputs per deck.
RUN_DECK = (
    ("number-fid", 10), ("number-ideal", 10), ("number", 10),
    ("kerr", 25), ("teleport-number", 20), ("teleport-pol", 15),
    ("pol-ideal", 2), ("pol", 1), ("kerr-tau", 5),
)

# Requests at the edge of the input domain.  They are not part of any deck:
# each run sends all five once, untimed, and reports how many the program
# mishandles beside its figures.  The first four are invalid and must be
# refused as usage errors (exit code 2).  The last is a valid sweep whose
# computed grid ends a rounding step above eta2 = 1; it must print the full CSV.
EDGE_OPS = (
    Op("malformed", ("run", "number", "--input", "0,nan,0")),
    Op("malformed", ("run", "number", "--gamma", "nan")),
    Op("malformed", ("run", "kerr", "--tau", "nan")),
    Op("malformed", ("run", "number", "--eta2", "1.5")),
    Op("sweep", ("sweep", "--protocol", "number", "--gamma", "1", "--eta2", "0.2:1.0:4",
                 "-T", "0.5"), ("number", ["1"], 4, "0.5")),
)

HBAR = 1.0545718176461565e-34  # h / 2 pi, exact in the SI
EPSILON_0 = 8.8541878188e-12  # CODATA 2022; revisions differ below 1e-8


def _amplitudes(rng: random.Random) -> tuple[str, tuple[float, float, float]]:
    """Random `--input` text (c0 != 0) and the populations it encodes."""
    parts = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
    text = ",".join(f"{z.real:.6g}{z.imag:+.6g}i" for z in parts)
    cs = [parse_complex(p) for p in text.split(",")]
    total = sum(abs(c) ** 2 for c in cs)
    return text, tuple(abs(c) ** 2 / total for c in cs)


def _input_args(rng: random.Random):
    """`--gamma` (c0 = 0) for about a third of ops, else random `--input`."""
    if rng.random() < 0.3:
        gamma = f"{rng.uniform(0.0, 10.0):.4g}"
        g = float(gamma)
        return ["--gamma", gamma], (0.0, 1.0 / (1.0 + g), g / (1.0 + g))
    text, pops = _amplitudes(rng)
    return ["--input", text], pops


def _theta(rng: random.Random) -> str:
    return f"{rng.uniform(0.05, 3.09):.6f},{rng.uniform(0.0, 6.28):.6f}"


def _eta2(rng: random.Random) -> str:
    return f"{rng.uniform(0.3, 1.0):.6f}"


def _run_op(kind: str, rng: random.Random) -> Op:
    if kind == "kerr-tau":
        params = [f"{10 ** rng.uniform(lo, hi):.6g}"
                  for lo, hi in ((14, 16), (-12, -9), (-24, -20), (-12, -6))]
        omega, dt, chi3, volume = map(float, params)
        expected = HBAR * omega**2 * dt * chi3 / (4.0 * EPSILON_0 * volume)
        argv = ["run", "kerr-tau", "--omega", params[0], "--dt", params[1],
                "--chi3", params[2], "--volume", params[3]]
        return Op(kind, tuple(argv), (expected,))
    if kind == "number-fid":  # T = 1/2 and c0 = 0
        eta2 = _eta2(rng)
        argv = ["run", "number", "--gamma", f"{rng.uniform(0.0, 10.0):.4g}", "--eta2", eta2]
        return Op(kind, tuple(argv), (float(eta2),))
    if kind in ("number-ideal", "number"):
        text, pops = _amplitudes(rng)
        t = f"{rng.uniform(0.05, 0.95):.4f}"
        eta2 = "1" if kind == "number-ideal" else _eta2(rng)
        argv = ["run", "number", "--input", text, "-T", t, "--eta2", eta2]
        return Op(kind, tuple(argv), (pops, float(t)))
    if kind in ("pol-ideal", "pol"):
        text, pops = _amplitudes(rng)
        eta2 = "1" if kind == "pol-ideal" else _eta2(rng)
        argv = ["run", "pol", "--input", text, "--theta", _theta(rng), "--eta2", eta2]
        return Op(kind, tuple(argv), (pops,))
    inp, pops = _input_args(rng)
    if kind == "kerr":
        tau, eta2 = f"{rng.uniform(0.0, 2 * math.pi):.6f}", _eta2(rng)
        argv = ["run", "kerr", *inp, "--tau", tau, "--eta2", eta2]
        return Op(kind, tuple(argv), (pops, float(tau), float(eta2)))
    epsilon = f"{rng.uniform(0.005, 0.3):.4f}"
    argv = ["run", kind, *inp, "--epsilon", epsilon]
    if kind == "teleport-pol":
        argv += ["--theta", _theta(rng)]
    return Op(kind, tuple(argv))


def run_deck(seed: int, deck: int) -> list[Op]:
    rng = deck_rng(seed, deck)
    ops = [_run_op(kind, rng) for kind, count in RUN_DECK for _ in range(count)]
    rng.shuffle(ops)
    return ops


def _parse_report(stdout: str):
    """(protocol, success, fidelity, [(weight, squared norm)]) of a `run` report."""
    lines = stdout.splitlines()
    fields = dict(line.split(" ", 1) for line in lines[:4])
    branches = []
    for line in lines[4:]:
        toks = line.split()
        if toks[0] != "branch" or toks[2] != "weight":
            raise ValueError(f"bad branch line {line!r}")
        norm2 = sum(abs(parse_complex(k.split(":", 1)[1])) ** 2 for k in toks[4:])
        branches.append((float(toks[3]), norm2))
    if int(fields["branches"]) != len(branches):
        raise ValueError("branch count mismatch")
    return fields["protocol"], float(fields["success_probability"]), float(fields["fidelity"]), branches


def check_run(op: Op, code, stdout: str) -> str:
    if op.kind == "malformed":
        return "" if code == 2 and stdout == "" else f"exit {code}, expected usage error 2"
    if code != 0:
        return f"exit {code}"
    if op.kind == "kerr-tau":
        (expected,) = op.expect
        value = float(stdout.split()[1])
        return "" if close(value, expected) else f"tau {value} != {expected}"
    try:
        protocol, success, fid, branches = _parse_report(stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable report: {exc}"
    if protocol != op.argv[1]:
        return f"protocol {protocol}"
    for name, x in (("success", success), ("fidelity", fid)):
        if not -TOL <= x <= 1.0 + TOL:
            return f"{name} {x} outside [0, 1]"
    if not close(math.fsum(w for w, _ in branches), success):
        return "branch weights do not sum to the success probability"
    if any(not close(n2, 1.0) for _, n2 in branches):
        return "a branch state is not normalized"
    if op.kind == "number-fid":
        expected = 1.0 / (2.0 - op.expect[0])
        return "" if close(fid, expected) else f"fidelity {fid} != 1/(2-eta2) = {expected}"
    if op.kind == "number-ideal":
        pops, t = op.expect
        expected = pops[1] * t * (1.0 - t) ** 2
        return "" if close(success, expected) else f"success {success} != {expected}"
    if op.kind == "pol-ideal":
        expected = op.expect[0][1] * POL_IDEAL_SUCCESS
        if not close(fid, 1.0):
            return f"ideal pol fidelity {fid} != 1"
        return "" if close(success, expected) else f"success {success} != {expected}"
    if op.kind == "kerr":
        pops, tau, eta2 = op.expect
        expected = eta2 * sum(p * math.sin(n * tau / 2.0) ** 2 for n, p in enumerate(pops))
        return "" if close(success, expected) else f"success {success} != {expected}"
    return ""


def run_cli_op(op: Op):
    return invoke_cli(op.argv)


def check_cli_op(op: Op, result) -> str:
    code, stdout = result
    return check_sweep(op, code, stdout) if op.kind == "sweep" else check_run(op, code, stdout)


# ---------------------------------------------------------------------------
# circuit-evolve
# ---------------------------------------------------------------------------

# Mode layouts per channel count; True marks a polarized mode (two channels).
LAYOUTS = {
    4: ((True, True), (True, False, False), (False,) * 4),
    5: ((True, False, False, False), (True, True, False)),
    6: ((True, True, True), (True, True, False, False), (False,) * 6),
}
PHOTONS = range(2, 9)
KETS = range(1, 5)
FORMS = ("elements", "matrix")


def _identity(n: int) -> list[list[complex]]:
    return [[complex(i == j) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def random_unitary(rng: random.Random, n: int) -> list[list[complex]]:
    """Haar-like unitary: Gram-Schmidt on complex Gaussian columns."""
    cols: list[list[complex]] = []
    while len(cols) < n:
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        for _ in range(2):  # re-orthogonalize for full working precision
            for c in cols:
                dot = sum(x.conjugate() * y for x, y in zip(c, v))
                v = [y - dot * x for x, y in zip(c, v)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        cols.append([x / norm for x in v])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _element(rng: random.Random, names, pol, index):
    """One random circuit line and its full-size matrix (column j = image of j)."""
    n = sum(2 if p else 1 for p in pol)
    pols = [i for i, p in enumerate(pol) if p]
    pairs = [(a, b) for a in range(len(pol)) for b in range(len(pol))
             if a != b and pol[a] == pol[b]]
    kinds = ["ps"] + (["bs"] if pairs else []) + (["rot"] if pols else []) \
        + (["pbs"] if len(pols) > 1 else [])
    kind = rng.choice(kinds)
    e = _identity(n)
    if kind == "bs":
        a, b = rng.choice(pairs)
        t_val = rng.uniform(0.0, 1.0)
        flip = rng.random() < 0.5
        t, r = math.sqrt(t_val), math.sqrt(1.0 - t_val)
        for i, j in zip(index[a], index[b]):
            e[i][i], e[j][j] = t, t
            e[i][j], e[j][i] = (r, -r) if flip else (-r, r)
        return f"bs {names[a]} {names[b]} T={t_val!r}" + (" flip" if flip else ""), e
    if kind == "ps":
        m = rng.randrange(len(pol))
        phi = rng.uniform(0.0, 2 * math.pi)
        for i in index[m]:
            e[i][i] = cmath.exp(1j * phi)
        return f"ps {names[m]} phi={phi!r}", e
    if kind == "rot":
        m = rng.choice(pols)
        angle = rng.uniform(0.0, 2 * math.pi)
        h, v = index[m]
        c, s = math.cos(angle), math.sin(angle)
        e[h][h], e[h][v], e[v][h], e[v][v] = c, -s, s, c
        return f"rot {names[m]} angle={angle!r}", e
    a, b = rng.sample(pols, 2)  # pbs: H passes, V crosses
    (_, v1), (_, v2) = index[a], index[b]
    e[v1][v1], e[v2][v2], e[v1][v2], e[v2][v1] = 0, 0, 1, 1
    return f"pbs {names[a]} {names[b]}", e


def _composition(rng: random.Random, photons: int, channels: int) -> tuple[int, ...]:
    bars = sorted(rng.sample(range(photons + channels - 1), channels - 1))
    edges = [-1, *bars, photons + channels - 1]
    return tuple(edges[i + 1] - edges[i] - 1 for i in range(channels))


def circuit_op(rng: random.Random, channels: int, photons: int, n_kets: int, form: str) -> Op:
    pol = rng.choice(LAYOUTS[channels])
    names = [f"m{i}" for i in range(len(pol))]
    index, k = [], 0
    for p in pol:
        index.append((k, k + 1) if p else (k,))
        k += len(index[-1])
    lines = [f"mode {name}" + (" pol" if p else "") for name, p in zip(names, pol)]
    if form == "matrix":
        u = random_unitary(rng, channels)
        entries = " ".join(f"{z.real:.17g}{z.imag:+.17g}i" for row in u for z in row)
        lines.append(f"matrix {channels} {entries}")
    else:
        u = _identity(channels)
        for _ in range(3 * channels):
            line, e = _element(rng, names, pol, index)
            lines.append(line)
            u = _matmul(e, u)
    occs: set[tuple[int, ...]] = set()
    while len(occs) < n_kets:
        occs.add(_composition(rng, photons, channels))
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in occs]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    kets = {occ: a / norm for occ, a in zip(sorted(occs), amps)}
    samples = (_composition(rng, photons, channels), rng.random())
    return Op("circuit", ("\n".join(lines) + "\n",), (photons, kets, u, samples))


def circuit_deck(seed: int, deck: int) -> list[Op]:
    rng = deck_rng(seed, deck)
    ops = [circuit_op(rng, c, n, k, form)
           for c in LAYOUTS for n in PHOTONS for k in KETS for form in FORMS]
    rng.shuffle(ops)
    return ops


def run_circuit_op(op: Op):
    photons, kets, *_ = op.expect
    transform = circuits.parse_circuit(op.argv[0])
    state = fock.FockState(transform.channels, kets, photons)
    return transform, optics.apply(transform, state)


def permanent(m: list[list[complex]]) -> complex:
    """Ryser's formula over Gray-code column subsets, O(2^n n)."""
    n = len(m)
    sums = [0j] * n
    total = 0j
    in_set = [False] * n
    size = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1  # the column the Gray code flips
        in_set[j] = not in_set[j]
        sign = 1 if in_set[j] else -1
        size += sign
        for i in range(n):
            sums[i] += sign * m[i][j]
        prod = 1 + 0j
        for s in sums:
            prod *= s
        total += prod if (n - size) % 2 == 0 else -prod
    return total


def transfer_amplitude(u, out_occ, in_occ) -> complex:
    """<m|U|n> = Perm(U[m, n]) / sqrt(prod m! prod n!)."""
    rows = [i for i, k in enumerate(out_occ) for _ in range(k)]
    cols = [j for j, k in enumerate(in_occ) for _ in range(k)]
    sub = [[u[i][j] for j in cols] for i in rows]
    norm = math.prod(math.factorial(k) for k in (*out_occ, *in_occ))
    return permanent(sub) / math.sqrt(norm)


def render_circuit_op(op: Op, result) -> str:
    return "\n".join(f"|{','.join(map(str, occ))}> {fmt_complex(a)}"
                     for occ, a in sorted(result[1].amplitudes.items()))


def check_circuit_op(op: Op, result) -> str:
    transform, out = result
    photons, kets, u, (random_occ, pick) = op.expect
    mat = transform.matrix.tolist()
    n = len(u)
    if any(abs(mat[i][j] - u[i][j]) > TOL for i in range(n) for j in range(n)):
        return "parsed matrix differs from the circuit's unitary"
    if any(sum(occ) != photons for occ in out.amplitudes):
        return "photon number not preserved"
    if not close(math.fsum(abs(a) ** 2 for a in out.amplitudes.values()), 1.0):
        return "norm not preserved"
    support = sorted(out.amplitudes)
    for occ in (random_occ, support[int(pick * len(support))]):
        expected = sum(a * transfer_amplitude(u, occ, k) for k, a in kets.items())
        if abs(out.amplitude(occ) - expected) > TOL:
            return f"amplitude of {occ} is {out.amplitude(occ)}, permanent gives {expected}"
    return ""


@dataclass(frozen=True)
class Workload:
    deck: Callable[[int, int], list[Op]]  # (seed, deck index); index -1 is warm-up
    run: Callable[[Op], object]  # the timed part
    check: Callable[[Op, object], str]  # why the output is wrong, or ""
    render: Callable[[Op, object], str]  # canonical output text for the digest
    warmup_ops: int
    trace_decks: int  # whole decks in a traced run, so its counts repeat exactly
    edge_ops: tuple[Op, ...] = ()  # sent once per run, untimed, outside the decks


WORKLOADS = {
    "sweep": Workload(sweep_deck, run_cli_op, check_cli_op, render_cli_op, 3, 1),
    "run-mix": Workload(run_deck, run_cli_op, check_cli_op, render_cli_op, 30, 20, EDGE_OPS),
    "circuit-evolve": Workload(circuit_deck, run_circuit_op, check_circuit_op,
                               render_circuit_op, 20, 3),
}
