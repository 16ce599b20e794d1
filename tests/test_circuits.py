import functools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

from qndsim import optics
from qndsim.circuits import CircuitSyntaxError, parse_circuit, parse_complex
from qndsim.fock import Mode
from qndsim.optics import (
    BeamSplitterSpec,
    beam_splitter,
    compose,
    identity_transform,
    matrix_transform,
    phase_shifter,
    polarization_rotator,
    polarizing_beam_splitter,
)
from qndsim.protocols import number_device_transform, pol_device_transform

DATA = Path(__file__).parent / "data"
S2 = math.sqrt(2)


def test_single_beam_splitter():
    t = parse_circuit("mode a\nmode c\nbs a c T=0.5\n")
    expected = np.array([[1, -1], [1, 1]]) / S2
    assert np.allclose(t.matrix, expected, atol=1e-12)


def test_four_mode_interferometer_file():
    text = (DATA / "four_mode_interferometer.qc").read_text()
    t = parse_circuit(text)
    ref = number_device_transform(0.5)
    assert t.channels == ref.channels
    assert np.allclose(t.matrix, ref.matrix, atol=1e-12)


def test_six_channel_matrix_file():
    text = (DATA / "six_channel_pol_device.qc").read_text()
    t = parse_circuit(text)
    assert np.allclose(t.matrix, pol_device_transform().matrix, atol=1e-9)


def test_identity_circuit():
    t = parse_circuit("mode a\nmode b\n")
    assert np.allclose(t.matrix, np.eye(2))


def test_comments_and_blank_lines():
    t = parse_circuit("# a comment\n\nmode a  # trailing\nmode b\nbs a b T=1.0\n")
    assert np.allclose(t.matrix, np.eye(2))


def test_polarized_declarations():
    t = parse_circuit("mode a pol\nmode b pol\npbs a b\nrot a angle=0.0\n")
    assert t.matrix.shape == (4, 4)


def test_flip_flag():
    t = parse_circuit("mode a\nmode b\nbs a b T=0.5 flip\n")
    expected = np.array([[1, 1], [-1, 1]]) / S2
    assert np.allclose(t.matrix, expected, atol=1e-12)


def test_phase_shifter_line():
    t = parse_circuit("mode a\nps a phi=1.5\n")
    assert t.matrix[0, 0] == pytest.approx(np.exp(1.5j))


def test_matrix_directive_complex_literals():
    text = "mode a\nmode b\nmatrix 2 0.70710678118654752+0i 0.70710678118654752i 0.70710678118654752i 0.70710678118654752+0i\n"
    t = parse_circuit(text)
    expected = np.array([[1, 1j], [1j, 1]]) / S2
    assert np.allclose(t.matrix, expected, atol=1e-12)


def elements(text: str):
    """The declared channels and the circuit's elements, built line by line
    with the public builders."""
    modes, out = {}, []
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        if not toks:
            continue
        op, args = toks[0], toks[1:]
        if op == "mode":
            modes[args[0]] = Mode(args[0], polarized=args[1:] == ["pol"])
        elif op == "bs":
            spec = BeamSplitterSpec(float(args[2][2:]), flip=args[3:] == ["flip"])
            out.append(beam_splitter(spec, modes[args[0]], modes[args[1]]))
        elif op == "ps":
            out.append(phase_shifter(float(args[1][4:]), modes[args[0]]))
        elif op == "rot":
            out.append(polarization_rotator(float(args[1][6:]), modes[args[0]]))
        elif op == "pbs":
            out.append(polarizing_beam_splitter(modes[args[0]], modes[args[1]]))
        else:
            assert op == "matrix"
            k = int(args[0])
            declared = [c for m in modes.values() for c in m.channels]
            entries = np.array([parse_complex(z) for z in args[1:]]).reshape(k, k)
            out.append(matrix_transform(declared[:k], entries))
    return [c for m in modes.values() for c in m.channels], out


def random_element(rng: random.Random, names, pol, n_ch: int, kinds) -> str | None:
    """One random line of one of `kinds`, or None when the drawn kind does not
    fit the drawn modes."""
    kind = rng.choice(kinds)
    a, b = rng.sample(range(len(pol)), 2)
    if kind == "bs" and pol[a] == pol[b]:
        flip = " flip" if rng.random() < 0.5 else ""
        return f"bs {names[a]} {names[b]} T={rng.random()!r}{flip}"
    if kind == "ps":
        return f"ps {names[a]} phi={rng.uniform(-7, 7)!r}"
    if kind == "rot" and pol[a]:
        return f"rot {names[a]} angle={rng.uniform(-7, 7)!r}"
    if kind == "pbs" and pol[a] and pol[b]:
        return f"pbs {names[a]} {names[b]}"
    if kind == "matrix":
        k = rng.randint(2, n_ch)
        u = unitary_group.rvs(k, random_state=rng.randrange(2**32))
        entries = " ".join(f"{z.real!r}{z.imag:+}i" for z in u.ravel().tolist())
        return f"matrix {k} {entries}"
    return None


def random_circuit(rng: random.Random, channels: int | None = None) -> str:
    """2-4 modes, some polarized, and up to 12 elements or matrix blocks; or,
    given `channels`, modes over that many channels and 3 * channels elements,
    the shape of circuit-evolve's element circuits.  Floats are written with
    repr."""
    if channels is None:
        pol = [rng.random() < 0.5 for _ in range(rng.randint(2, 4))]
    else:
        pol = []
        while (left := channels - sum(2 if p else 1 for p in pol)) > 0:
            pol.append(left > 1 and rng.random() < 0.5)
    names = [f"m{i}" for i in range(len(pol))]
    lines = [f"mode {n}" + (" pol" if p else "") for n, p in zip(names, pol)]
    n_ch = sum(2 if p else 1 for p in pol)
    if channels is None:
        kinds = ["bs", "ps", "rot", "pbs", "matrix"]
        drawn = (random_element(rng, names, pol, n_ch, kinds)
                 for _ in range(rng.randint(1, 12)))
        lines += [line for line in drawn if line]
    else:
        while len(lines) < len(pol) + 3 * channels:
            line = random_element(rng, names, pol, n_ch, ["bs", "ps", "rot", "pbs"])
            if line:
                lines.append(line)
    return "\n".join(lines) + "\n"


def assert_parses_to_composed_product(text: str):
    """parse_circuit's matrix is reduce(compose, ...)'s, bit for bit, signs of
    zero included: the goldens print them."""
    chans, elems = elements(text)
    reference = functools.reduce(compose, elems, identity_transform(chans))
    parsed = parse_circuit(text)
    assert parsed.channels == reference.channels
    bits = [[(z.real.hex(), z.imag.hex()) for z in row] for row in parsed.matrix.tolist()]
    assert bits == [[(z.real.hex(), z.imag.hex()) for z in row]
                    for row in reference.matrix.tolist()], text


def test_random_circuits_parse_to_the_composed_product():
    """Small circuits, and 4-6 channel ones with 3 * channels elements: which
    matmul kernel numpy picks depends on the size."""
    texts = [random_circuit(random.Random(seed)) for seed in range(60)]
    texts += [random_circuit(random.Random(seed), channels)
              for channels in (4, 5, 6) for seed in range(20)]
    used = {line.split()[0] for text in texts for line in text.splitlines()}
    assert used == {"mode", "bs", "ps", "rot", "pbs", "matrix"}
    for text in texts:
        assert_parses_to_composed_product(text)


@pytest.mark.parametrize("name", ["four_mode_interferometer.qc", "six_channel_pol_device.qc"])
def test_circuit_files_parse_to_the_composed_product(name):
    assert_parses_to_composed_product((DATA / name).read_text())


def test_each_matrix_block_and_the_product_checked_once(monkeypatch):
    """Element builders validate their parameters, not their matrices (each
    is unitary by construction, see test_properties.py); a raw `matrix` block
    is checked, and so is the product."""
    checked = []
    check = optics._check_unitary

    def counted(columns, *dev):
        checked.append(len(columns))
        check(columns, *dev)

    monkeypatch.setattr(optics, "_check_unitary", counted)
    parse_circuit((DATA / "four_mode_interferometer.qc").read_text())
    assert checked == [4]  # the product of three splitters, not the splitters
    checked.clear()
    parse_circuit("mode a pol\nmode b pol\nmode c\nbs a b T=0.3 flip\nps c phi=1\n"
                  "rot a angle=2\npbs a b\nmatrix 2 0 1 1 0\nmatrix 3 0 0 1 1 0 0 0 1 0\n")
    assert checked == [2, 3, 5]  # two matrix blocks, then the product


class TestErrors:
    def test_malformed_element_names_line(self):
        with pytest.raises(CircuitSyntaxError, match="line 1"):
            parse_circuit("bs a\n")

    def test_unknown_mode(self):
        with pytest.raises(CircuitSyntaxError, match="unknown mode"):
            parse_circuit("mode a\nbs a c T=0.5\n")

    def test_transmission_out_of_range(self):
        with pytest.raises(CircuitSyntaxError, match="transmission out of range"):
            parse_circuit("mode a\nmode c\nbs a c T=1.5\n")

    def test_error_carries_line_number(self):
        try:
            parse_circuit("mode a\nmode c\nbs a c T=1.5\n")
        except CircuitSyntaxError as exc:
            assert exc.line_no == 3
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")

    def test_unknown_element(self):
        with pytest.raises(CircuitSyntaxError, match="unknown element"):
            parse_circuit("mode a\nsqueeze a r=1\n")

    def test_duplicate_mode(self):
        with pytest.raises(CircuitSyntaxError, match="already declared"):
            parse_circuit("mode a\nmode a\n")

    def test_rot_on_unpolarized(self):
        with pytest.raises(CircuitSyntaxError, match="line 2"):
            parse_circuit("mode a\nrot a angle=0.5\n")

    def test_non_unitary_matrix(self):
        with pytest.raises(CircuitSyntaxError, match="unitary"):
            parse_circuit("mode a\nmatrix 1 0.5+0i\n")

    @pytest.mark.parametrize("entry, message", [
        ("1e400", "entry of magnitude inf"),
        ("-1e400i", "entry of magnitude inf"),
        ("nan", "entry of magnitude nan"),
        ("1e200", "entry of magnitude 1.000e+200"),  # its square overflows
        ("inf", "entry of magnitude inf"),
    ])
    def test_non_finite_or_huge_matrix_entry(self, entry, message):
        """Refused before the unitarity product, which would warn (an error here)."""
        with pytest.raises(CircuitSyntaxError, match=f"line 3: .*{re.escape(message)}"):
            parse_circuit(f"mode a\nmode b\nmatrix 2 1 0 0 {entry}\n")

    def test_non_unitary_product(self):
        # each block deviates 8e-13, within tolerance; their product 8e-12 does not
        text = "mode a\n" + "matrix 1 1.0000000000004\n" * 10
        with pytest.raises(CircuitSyntaxError, match="line 11: circuit product: .*not unitary"):
            parse_circuit(text)

    @pytest.mark.parametrize("text, value", [
        ("inf", complex(math.inf, 0.0)),
        ("-inf", complex(-math.inf, 0.0)),
        ("Infinity", complex(math.inf, 0.0)),
        ("infi", complex(0.0, math.inf)),
        ("1-infinityi", complex(1.0, -math.inf)),
        ("(0.5-0.5i)", 0.5 - 0.5j),
        (" -2i ", -2j),
    ])
    def test_complex_literals(self, text, value):
        """The imaginary unit is the last `i`, so the letters of inf stay."""
        assert parse_complex(text) == value

    def test_bad_complex_literal(self):
        with pytest.raises(CircuitSyntaxError, match="complex"):
            parse_circuit("mode a\nmatrix 1 zzz\n")

    @pytest.mark.parametrize("text", ["inf+x", " nan0 ", "1+2k"])
    def test_bad_complex_literal_named_as_written(self, text):
        with pytest.raises(ValueError, match=re.escape(f"bad complex literal {text!r}")):
            parse_complex(text)

    def test_matrix_entry_count(self):
        with pytest.raises(CircuitSyntaxError, match="entries"):
            parse_circuit("mode a\nmode b\nmatrix 2 1 0 0\n")

    def test_empty_file(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("# nothing here\n")
