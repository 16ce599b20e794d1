import contextlib
import csv
import gc
import io
import math
import os
import subprocess
import sys
import weakref
from dataclasses import dataclass
from pathlib import Path

import pytest

from qndsim import protocols
from qndsim.cli import main
from qndsim.detection import DetectorModel
from qndsim.protocols import (
    NumberInputSpec,
    PolarizationAngle,
    number_device,
    number_qnd,
    pol_device,
    pol_qnd,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Result:
    exit_code: int | None
    stdout: str
    stderr: str

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(*args):
    """Run `qndsim *args` in process: its exit code and what it wrote where.

    Every run must end in SystemExit, and any other exception propagates.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main.main(args=list(args), prog_name="qndsim")
    return Result(exc.value.code, out.getvalue(), err.getvalue())


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def sweep_grid(gammas, start, stop, steps):
    """(gamma, eta2) per row, in the sweep's row order."""
    return [(g, stop if i == steps - 1 else start + (stop - start) * i / (steps - 1))
            for g in gammas for i in range(steps)]


class TestSweep:
    def test_row_count(self):
        res = invoke("sweep", "--protocol", "number", "--gamma", "0,0.1,1,10",
                     "--eta2", "0.5:1.0:51")
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert len(rows) == 204

    def test_byte_identical_reruns(self):
        args = ("sweep", "--protocol", "number", "--eta2", "0.5:1.0:11")
        assert invoke(*args).output == invoke(*args).output

    def test_header(self):
        res = invoke("sweep", "--protocol", "number", "--eta2", "0.5:1.0:2")
        assert res.output.splitlines()[0] == (
            "protocol,eta2,gamma,theta,success_prob,fidelity_sim,fidelity_closed,abs_diff"
        )

    def test_reference_row(self):
        res = invoke("sweep", "--protocol", "number", "--gamma", "0",
                     "--eta2", "0.5:1.0:51")
        rows = [r for r in parse_csv(res.output)
                if abs(float(r["eta2"]) - 0.88) < 1e-9]
        assert len(rows) == 1
        assert float(rows[0]["fidelity_sim"]) == pytest.approx(0.8929, abs=1e-4)
        assert float(rows[0]["fidelity_closed"]) == pytest.approx(0.8929, abs=1e-4)

    def test_perfect_detectors_row(self):
        res = invoke("sweep", "--protocol", "number", "--gamma", "0,10",
                     "--eta2", "0.5:1.0:2")
        for row in parse_csv(res.output):
            if float(row["eta2"]) == 1.0:
                assert float(row["fidelity_sim"]) == pytest.approx(1.0, abs=1e-12)

    def test_heralded_mass_far_below_one_kept(self):
        # the branch weight 1.25e-31 at gamma = 1e30 is exact, not a residue
        res = invoke("sweep", "--protocol", "number", "--gamma", "1e29,1e30",
                     "--eta2", "0.99:1:2")
        rows = {(r["gamma"], r["eta2"]): r for r in parse_csv(res.output)}
        assert rows["1e+29", "1"]["success_prob"] == "1.25e-30"
        assert rows["1e+30", "1"]["success_prob"] == "1.25e-31"
        assert rows["1e+30", "1"]["fidelity_sim"] == "1"

    def test_rows_ordered_by_gamma_then_eta2(self):
        res = invoke("sweep", "--protocol", "number", "--gamma", "1,0",
                     "--eta2", "0.5:1.0:3")
        keys = [(float(r["gamma"]), float(r["eta2"])) for r in parse_csv(res.output)]
        assert keys == [(1.0, 0.5), (1.0, 0.75), (1.0, 1.0),
                        (0.0, 0.5), (0.0, 0.75), (0.0, 1.0)]

    def test_pol_sweep(self):
        res = invoke("sweep", "--protocol", "pol", "--gamma", "0",
                     "--eta2", "0.5:1.0:2")
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert rows[-1]["theta"] == "pi/2;0"
        assert float(rows[-1]["fidelity_sim"]) == pytest.approx(1.0, abs=1e-12)

    def test_out_file(self, tmp_path):
        target = tmp_path / "sweep.csv"
        res = invoke("sweep", "--protocol", "number", "--eta2", "0.5:1.0:2",
                     "--out", str(target))
        assert res.exit_code == 0
        assert target.read_text().startswith("protocol,")

    def test_out_file_in_missing_directory_usage_error(self, monkeypatch, tmp_path):
        def refused(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(protocols, "number_device", refused)
        target = tmp_path / "missing" / "sweep.csv"
        res = invoke("sweep", "--protocol", "number", "--eta2", "0.5:1.0:2",
                     "--out", str(target))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "is not a directory" in res.stderr
        assert not target.parent.exists()

    def test_out_file_write_error_exits_one(self, tmp_path):
        target = tmp_path / ("x" * 300)  # longer than a file name may be
        res = invoke("sweep", "--protocol", "number", "--eta2", "0.5:1.0:2",
                     "--out", str(target))
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_invalid_range_usage_error(self):
        assert invoke("sweep", "--protocol", "number", "--eta2", "0.9:0.5:5").exit_code == 2
        assert invoke("sweep", "--protocol", "number", "--eta2", "junk").exit_code == 2
        assert invoke("sweep", "--protocol", "bogus").exit_code == 2

    @pytest.mark.parametrize("protocol", ["number", "pol"])
    def test_default_sweep_matches_golden_csv(self, protocol):
        golden = (DATA / f"sweep_{protocol}.csv").read_text(encoding="utf-8")
        assert invoke("sweep", "--protocol", protocol).output == golden

    def test_number_rows_equal_standalone_calls(self):
        gammas, start, stop, steps, t = (0.0, 0.3, 4.0), 0.55, 1.0, 10, 0.37
        res = invoke("sweep", "--protocol", "number", "--gamma", "0,0.3,4",
                     "--eta2", f"{start}:{stop}:{steps}", "-T", str(t))
        rows = parse_csv(res.output)
        assert len(rows) == len(gammas) * steps
        devices = {g: number_device(NumberInputSpec.from_gamma(g), t) for g in gammas}
        for row, (gamma, eta2) in zip(rows, sweep_grid(gammas, start, stop, steps)):
            out = number_qnd(NumberInputSpec.from_gamma(gamma), t, DetectorModel(eta2))
            assert row["success_prob"] == f"{out.success_probability:.12g}"
            assert row["fidelity_sim"] == f"{out.fidelity:.12g}"
            reused = devices[gamma].outcome(DetectorModel(eta2))
            assert (reused.success_probability, reused.fidelity) == (
                out.success_probability, out.fidelity)

    def test_pol_rows_equal_standalone_calls(self):
        gammas, start, stop, steps = (2.0, 0.0), 0.6, 1.0, 5
        res = invoke("sweep", "--protocol", "pol", "--gamma", "2,0",
                     "--eta2", f"{start}:{stop}:{steps}", "--theta", "1.1,0.4")
        rows = parse_csv(res.output)
        assert len(rows) == len(gammas) * steps
        angle = PolarizationAngle.from_bloch(1.1, 0.4)
        devices = {g: pol_device(NumberInputSpec.from_gamma(g), angle) for g in gammas}
        for row, (gamma, eta2) in zip(rows, sweep_grid(gammas, start, stop, steps)):
            out = pol_qnd(NumberInputSpec.from_gamma(gamma), angle, DetectorModel(eta2))
            assert row["success_prob"] == f"{out.success_probability:.12g}"
            assert row["fidelity_sim"] == f"{out.fidelity:.12g}"
            reused = devices[gamma].outcome(DetectorModel(eta2))
            assert (reused.success_probability, reused.fidelity) == (
                out.success_probability, out.fidelity)

    def test_grid_ends_exactly_at_stop(self):
        # 0.2 + 0.8 * 3 / 3 rounds to 1.0000000000000002
        res = invoke("sweep", "--protocol", "number", "--gamma", "1",
                     "--eta2", "0.2:1.0:4")
        assert res.exit_code == 0
        rows = parse_csv(res.output)
        assert [r["eta2"] for r in rows] == ["0.2", "0.466666666667", "0.733333333333", "1"]

    def test_transmission_out_of_range_usage_error(self):
        assert invoke("sweep", "--protocol", "number", "-T", "1.0").exit_code == 2

    # a finite gamma whose closed-form terms overflow is refused like a
    # non-finite one, not printed as 0 or nan
    @pytest.mark.parametrize("gamma, argv", [
        ("nan", ("--protocol", "number")),
        ("inf", ("--protocol", "number")),
        ("3e307", ("--protocol", "number", "--eta2", "0.5:1:2")),
        ("1e308", ("--protocol", "number")),
        ("1.7e308", ("--protocol", "pol", "--eta2", "0.5:1:2")),
    ], ids=["nan", "inf", "number-3e307", "number-1e308", "pol-1.7e308"])
    def test_non_finite_gamma_usage_error(self, gamma, argv):
        res = invoke("sweep", *argv, "--gamma", gamma)
        assert res.exit_code == 2
        assert "nan," not in res.output
        assert res.stdout == ""

    @pytest.mark.parametrize("name, argv", [
        ("pol", ("--protocol", "pol", "--gamma", "0,3", "--theta", "1.1,2.3")),
        ("number", ("--protocol", "number", "--gamma", "0,3", "-T", "0.3")),
    ], ids=["pol", "number"])
    def test_zero_layout_rows_match_golden_csv(self, name, argv):
        """eta2 = 0 and 1 zero other POVM coefficients than the rows between."""
        golden = (DATA / f"sweep_{name}_layouts.csv").read_text(encoding="utf-8")
        assert invoke("sweep", *argv, "--eta2", "0:1:6").output == golden

    @pytest.mark.parametrize("protocol", ["number", "pol"])
    @pytest.mark.parametrize("steps", [2, 9])
    def test_evolves_once_per_gamma(self, monkeypatch, protocol, steps):
        calls = {"apply": 0, "pattern_table": 0}

        def counted(name):
            original = getattr(protocols, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(protocols, name, counted(name))
        res = invoke("sweep", "--protocol", protocol, "--gamma", "0,0.5,2",
                     "--eta2", f"0.5:1.0:{steps}")
        assert res.exit_code == 0
        assert len(parse_csv(res.output)) == 3 * steps
        assert calls == {"apply": 3, "pattern_table": 3}


class TestRun:
    def test_number_at_third_transmission(self):
        res = invoke("run", "number", "--input", "0,1,0", "-T", "0.3333", "--eta2", "1")
        assert res.exit_code == 0
        value = float(res.output.split("success_probability ")[1].split()[0])
        assert value == pytest.approx(0.1481, abs=1e-3)

    def test_pol_defaults(self):
        res = invoke("run", "pol", "--gamma", "0", "--eta2", "1")
        assert res.exit_code == 0
        assert "success_probability 0.0219478737997" in res.output
        assert "fidelity 1" in res.output

    def test_number_at_extreme_gamma(self):
        res = invoke("run", "number", "--gamma", "1e30")
        assert res.exit_code == 0
        assert "success_probability 1.25e-31\nfidelity 1\n" in res.output

    def test_kerr_tau_via_run(self):
        res = invoke("run", "kerr-tau", "--omega", "3e15", "--dt", "3e-11",
                     "--chi3", "2e-22", "--volume", "1e-7")
        assert res.exit_code == 0
        assert float(res.output.split()[-1]) == pytest.approx(1.6e-18, rel=0.01)

    def test_teleport_pol(self):
        res = invoke("run", "teleport-pol", "--gamma", "0", "--epsilon", "0.01")
        assert res.exit_code == 0
        assert "fidelity 1" in res.output

    def test_unknown_protocol_usage_error(self):
        assert invoke("run", "warp").exit_code == 2

    def test_transmission_out_of_range_usage_error(self):
        res = invoke("run", "number", "--input", "0,1,0", "-T", "1.0")
        assert res.exit_code == 2

    def test_nan_epsilon_usage_error(self):
        assert invoke("run", "teleport-number", "--epsilon", "nan").exit_code == 2

    def test_nan_gamma_usage_error(self):
        assert invoke("run", "number", "--gamma", "nan").exit_code == 2

    def test_nan_input_amplitude_usage_error(self):
        assert invoke("run", "number", "--input", "0,nan,0").exit_code == 2

    @pytest.mark.parametrize("amps, size", [
        ("1e200,0,0", "large"),
        ("0,0,1e300+1e300i", "large"),
        ("0,1e-200,0", "small"),
        ("0,1e-160,0", "small"),  # the square is subnormal: the norm loses digits
    ])
    def test_input_amplitudes_beyond_normalizing_usage_error(self, amps, size):
        res = invoke("run", "number", "--input", amps)
        assert res.exit_code == 2
        assert f"--input amplitudes too {size} to normalize" in res.stderr

    @pytest.mark.parametrize("amps", ["1e150,0,0", "0,1e-150,0"])
    def test_input_amplitudes_near_the_edges_normalized(self, amps):
        res = invoke("run", "number", "--input", amps)
        assert res.exit_code == 0

    def test_zero_input_usage_error(self):
        res = invoke("run", "number", "--input", "0,0,-0")
        assert res.exit_code == 2
        assert "--input amplitudes are all zero" in res.stderr

    def test_nan_tau_usage_error(self):
        assert invoke("run", "kerr", "--tau", "nan").exit_code == 2

    def test_nan_theta_usage_error(self):
        assert invoke("run", "pol", "--theta", "nan").exit_code == 2

    @pytest.mark.parametrize("argv", [
        ("run", "pol", "--theta", "inf"),
        ("run", "pol", "--theta", "nan"),
        ("run", "pol", "--theta", "1.1,inf"),
        ("sweep", "--protocol", "pol", "--theta", "nan"),
    ], ids=["run-inf", "run-nan", "run-phi-inf", "sweep-nan"])
    def test_non_finite_theta_usage_error(self, argv):
        res = invoke(*argv)
        assert res.exit_code == 2
        assert "Bloch angles must be finite" in res.output

    def test_conflicting_input_flags(self):
        assert invoke("run", "number", "--input", "0,1,0", "--gamma", "2").exit_code == 2


class TestCircuit:
    def test_four_mode_dump(self):
        res = invoke("circuit", str(DATA / "four_mode_interferometer.qc"))
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "channels a b c d"
        assert lines[1].split()[0] == "0.707106781187+0i"

    def test_state_evolution(self):
        res = invoke("circuit", str(DATA / "four_mode_interferometer.qc"),
                     "--amp", "0,0,1,1=1")
        assert res.exit_code == 0
        assert "|0,1,0,1> 0.5+0i" in res.output
        assert "|1,0,1,0> -0.5+0i" in res.output

    def test_fourteen_photon_input(self):
        res = invoke("circuit", str(DATA / "four_mode_interferometer.qc"),
                     "--amp", "0,0,7,7=1")
        assert res.exit_code == 0
        lines = res.output.splitlines()
        kets = lines[lines.index("output") + 1:]
        norm = 0.0
        for line in kets:
            occ, amp = line.split()
            assert sum(map(int, occ.strip("|>").split(","))) == 14
            norm += abs(complex(amp.replace("i", "j"))) ** 2
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_parse_error_exit_two(self, tmp_path):
        cases = [
            ("mode a\nmode c\nbs a c T=1.5\n", "transmission out of range"),
            ("mode a\nmode b\nps a phi=nan\n", "line 3: phi must be finite"),
            ("mode a\nmode b\nps a phi=inf\n", "line 3: phi must be finite"),
            ("mode a\nmode b\nps a phi=-inf\n", "line 3: phi must be finite"),
            ("mode a pol\nrot a angle=nan\n", "line 2: angle must be finite"),
            ("mode a pol\nrot a angle=inf\n", "line 2: angle must be finite"),
            ("mode a\nmode b\nmatrix 2 nan 0 0 1\n", "not unitary"),
            ("mode a\nmatrix -1 1\n", "bad size '-1'"),
            ("mode a\nmatrix -1\n", "bad size '-1'"),
            ("mode a\n" + "matrix 1 1.0000000000004\n" * 10,
             "line 11: circuit product: matrix is not unitary (deviation 7.998e-12)"),
        ]
        for text, message in cases:
            bad = tmp_path / "bad.qc"
            bad.write_text(text)
            res = invoke("circuit", str(bad))
            assert res.exit_code == 2
            assert message in res.output

    def test_file_not_utf8_parse_error(self, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_bytes(b"\xff\xfe")
        res = invoke("circuit", str(bad))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_missing_file_usage_error(self):
        assert invoke("circuit", "/nonexistent.qc").exit_code == 2

    def test_empty_matrix_accepted(self, tmp_path):
        path = tmp_path / "empty.qc"
        path.write_text("mode a\nmatrix 0\n")
        res = invoke("circuit", str(path))
        assert (res.exit_code, res.output) == (0, "channels a\n1+0i\n")

    @pytest.mark.parametrize("amp", ["0,0,1=1", "0,0,1,-1=1", "0,0,1,1=nan",
                                     "0,0,1,1=0", "0,0,1,1=zz"])
    def test_malformed_amp_usage_error(self, amp):
        res = invoke("circuit", str(DATA / "four_mode_interferometer.qc"), "--amp", amp)
        assert res.exit_code == 2
        assert "output" not in res.output
        assert res.stdout == ""


_INPUT = ("--eta2", "0.88", "--input", "0.4,0.7,0.3-0.5i")
_FOUR = str(DATA / "four_mode_interferometer.qc")
_SIX = str(DATA / "six_channel_pol_device.qc")
GOLDEN_STDOUT = {
    "circuit_four_mode_0077": ("circuit", _FOUR, "--amp", "0,0,7,7=1"),
    "circuit_four_mode_superposition": ("circuit", _FOUR, "--amp", "1,0,1,0=1",
                                        "--amp", "0,1,0,2=0.5-0.5i"),
    "circuit_six_channel_six_photons": ("circuit", _SIX, "--amp", "2,0,1,1,0,2=1"),
    "run_number": ("run", "number", *_INPUT),
    "run_pol": ("run", "pol", *_INPUT),
    "run_teleport_number": ("run", "teleport-number", *_INPUT),
    "run_teleport_pol": ("run", "teleport-pol", *_INPUT),
    "run_kerr": ("run", "kerr", *_INPUT),
}


@pytest.mark.parametrize("name", list(GOLDEN_STDOUT))
def test_stdout_matches_golden(name):
    """Every digit, branch order and zero sign, as recorded in tests/data/<name>.out."""
    res = invoke(*GOLDEN_STDOUT[name])
    assert res.exit_code == 0
    assert res.stdout_bytes == (DATA / f"{name}.out").read_bytes()


@pytest.mark.parametrize("argv", [
    ("sweep", "--protocol", "pol", "--gamma", "1", "--eta2", "0.5:1.0:3"),
    ("run", "number", "--eta2", "0.9"),
    ("circuit", _FOUR, "--amp", "1,0,1,0=1"),
    ("noon-bound", "0"),
], ids=["sweep", "run", "circuit", "exit-1"])
def test_redirected_streams_are_released(argv):
    """In-process callers that redirect output get their streams back."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="qndsim")
        except SystemExit as exc:
            code = exc.code
    assert code == (1 if argv[0] == "noon-bound" else 0)
    assert (err if code else out).getvalue()
    refs = weakref.ref(out), weakref.ref(err)
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


class TestCalculatorCommands:
    def test_kerr_tau(self):
        res = invoke("kerr-tau", "--omega", "3e15", "--dt", "3e-11",
                     "--chi3", "2e-22", "--volume", "1e-7")
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(1.6e-18, rel=0.01)

    @pytest.mark.parametrize("command", [("kerr-tau",), ("run", "kerr-tau")],
                             ids=["kerr-tau", "run"])
    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_kerr_tau_non_finite_exit_one(self, command, omega):
        res = invoke(*command, "--omega", omega, "--dt", "1", "--chi3", "1", "--volume", "1")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "omega must be positive and finite" in res.output

    def test_noon_bound(self):
        res = invoke("noon-bound", "1")
        assert float(res.output) == pytest.approx(math.pi / 2)
        assert invoke("noon-bound", "0").exit_code == 1


# (argv, the message after 'Error: '): the texts the earlier click-based CLI printed
USAGE_ERRORS = [
    (("run", "number", "--bogus", "1"), "No such option '--bogus'."),
    (("run", "number", "--eta", "1"),
     "No such option '--eta'. (Did you mean one of: '--eta2', '--tau', '--theta'?)"),
    (("run", "number", "--inpu", "1"), "No such option '--inpu'. Did you mean '--input'?"),
    (("run", "number", "-X"), "No such option '-X'."),
    (("noon-bound", "-1"), "No such option '-1'."),
    (("run", "number", "--eta2"), "Option '--eta2' requires an argument."),
    (("circuit", _FOUR, "--amp"), "Option '--amp' requires an argument."),
    (("run", "number", "--eta2", "x"), "Invalid value for '--eta2': 'x' is not a valid float."),
    (("run", "number", "-Tx"),
     "Invalid value for '--transmission' / '-T' / '--t': 'x' is not a valid float."),
    (("run", "number", "-T", "--eta2"),
     "Invalid value for '--transmission' / '-T' / '--t': '--eta2' is not a valid float."),
    (("noon-bound", "1.5"), "Invalid value for 'N': '1.5' is not a valid integer."),
    (("sweep", "--protocol", "x"),
     "Invalid value for '--protocol': 'x' is not one of 'number', 'pol'."),
    (("run", "warp"), "Invalid value for '{number|pol|teleport-number|teleport-pol|kerr|"
                      "kerr-tau}': 'warp' is not one of 'number', 'pol', "
                      "'teleport-number', 'teleport-pol', 'kerr', 'kerr-tau'."),
    (("run", "number", "extra"), "Got unexpected extra argument (extra)"),
    (("run", "number", "--", "--eta2"), "Got unexpected extra argument (--eta2)"),
    (("noon-bound", "1", "2", "3"), "Got unexpected extra arguments (2 3)"),
    (("run", "number", "--help=1"), "Option '--help' does not take a value."),
    (("circuit", "/nonexistent.qc"),
     "Invalid value for 'PATH': File '/nonexistent.qc' does not exist."),
    (("kerr-tau", "--omega", "1", "--dt", "1"), "Missing option '--chi3'."),
    (("noon-bound",), "Missing argument 'N'."),
    (("bogus",), "No such command 'bogus'."),
    (("ru",), "No such command 'ru'. Did you mean 'run'?"),
    (("-h",), "No such option '-h'."),
]


class TestParser:
    """The argv rules: values verbatim, glued values, interleaving, last wins."""

    def test_value_starting_with_dash_is_taken_verbatim(self):
        res = invoke("run", "number", "--input", "-0.5,0.5,0.7071")
        assert (res.exit_code, res.stderr) == (0, "")
        assert res.stdout == ("protocol number\n"
                              "success_probability 0.0312502996904\n"
                              "fidelity 1\n"
                              "branches 1\n"
                              "branch 0 weight 0.0312502996904 |1>:-1+0i\n")

    @pytest.mark.parametrize("argv, same_as", [
        (("run", "number", "--eta2=0.9"), ("run", "number", "--eta2", "0.9")),
        (("run", "number", "-T0.3"), ("run", "number", "-T", "0.3")),
        (("run", "number", "--input=-0.5,0.5,0.7071"),
         ("run", "number", "--input", "-0.5,0.5,0.7071")),
        (("run", "--eta2", "0.9", "number"), ("run", "number", "--eta2", "0.9")),
        (("run", "--", "number"), ("run", "number")),
        (("run", "number", "-T", "0.2", "--eta2", "0.5", "-T", "0.3", "--eta2=0.9"),
         ("run", "number", "-T", "0.3", "--eta2", "0.9")),
        # an overridden value is never converted
        (("run", "number", "--gamma", "zz", "--gamma", "1"), ("run", "number", "--gamma", "1")),
        (("sweep", "--protocol=pol", "--eta2=0.5:1:2"),
         ("sweep", "--protocol", "pol", "--eta2", "0.5:1:2")),
        (("sweep", "--protocol", "number", "--eta2", "0.5:1:2", "-T", "0.1", "-T0.3"),
         ("sweep", "--protocol", "number", "--eta2", "0.5:1:2", "--transmission", "0.3")),
    ], ids=["eq", "glued-short", "eq-dash-value", "interleaved", "double-dash",
            "last-wins", "last-wins-unconverted", "sweep-eq", "sweep-last-wins"])
    def test_equivalent_spellings(self, argv, same_as):
        res, expected = invoke(*argv), invoke(*same_as)
        assert (res.exit_code, res.stderr) == (0, "")
        assert res.stdout == expected.stdout

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                             ids=[" ".join(Path(a).name for a in argv) for argv, _ in USAGE_ERRORS])
    def test_usage_error(self, argv, message):
        res = invoke(*argv)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.endswith(f"\nError: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("sweep",), ("sweep", "--gamma", "1", "--eta2", "0.5:1:2"),
    ], ids=["bare", "with-options"])
    def test_sweep_needs_protocol(self, argv):
        res = invoke(*argv)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.endswith(
            "\nError: Missing option '--protocol'. Choose from:\n\tnumber,\n\tpol\n")

    def test_errors_reported_in_invocation_order(self):
        # click's order: options as they first appear, then positionals
        res = invoke("run", "warp", "--eta2", "x", "--gamma", "y")
        assert res.stderr.endswith("Error: Invalid value for '--eta2': 'x' is not a valid float.\n")

    @pytest.mark.parametrize("argv", [("--help",), ("--help", "bogus"),
                                      *((name, "--help") for name in main.commands)], ids=" ".join)
    def test_help_on_stdout(self, argv):
        res = invoke(*argv)
        assert (res.exit_code, res.stderr) == (0, "")
        name = "" if argv[0] == "--help" else f" {argv[0]}"
        assert res.stdout.startswith(f"Usage: qndsim{name} [OPTIONS]")
        assert "--help  " in res.stdout
        if name:
            for p in main.commands[argv[0]].params:
                assert all(n in res.stdout for n in p.names)
                assert p.help in res.stdout
                if p.default is not None:
                    assert f"[default: {p.default}]" in res.stdout
        else:
            assert all(f"  {n}  " in res.stdout for n in main.commands)

    def test_no_command_prints_help_as_usage_error(self):
        res = invoke()
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == invoke("--help").stdout

    def test_interrupt_aborts(self, monkeypatch):
        def interrupted(n):
            raise KeyboardInterrupt
        monkeypatch.setattr(protocols, "noon_bound", interrupted)
        res = invoke("noon-bound", "3")
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", "\nAborted!\n")

    @pytest.mark.parametrize("argv", [("noon-bound", "1"), ("sweep", "--protocol", "number")],
                             ids=["short", "long"])
    def test_closed_stdout_pipe_exits_one_quietly(self, argv):
        read, write = os.pipe()
        os.close(read)  # the reader has gone before the command writes
        # stdout block-buffered, Python's default for a pipe: a short report
        # then meets the closed pipe only when it is flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from qndsim.cli import main; main()", *argv],
                stdout=write, stderr=subprocess.PIPE, timeout=60,
                env={**env, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")
