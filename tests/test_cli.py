import gc
import hashlib
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc

import numpy
import pytest

import cli_golden
import cli_golden_report
from altbase import cli, core, errors
from altbase.cli import main
from altbase.core import new_base
from altbase.expr import parse_base_list
from altbase.oracle import SplitMix64
from helpers import SQRT13, random_base
from reference import graph_rows_reference

BASE13 = "(1+sqrt(13))/2,(5+sqrt(13))/6"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_greedy_digits(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--base", BASE13, "--x", "(1+sqrt(5))/5",
            "--mode", "greedy", "--digits", "5",
        )
        assert code == 0
        assert "10102" in out

    def test_lazy_digits(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--base", BASE13, "--x", "(1+sqrt(5))/5",
            "--mode", "lazy", "--digits", "5",
        )
        assert code == 0
        assert "01112" in out

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "expand", "--base", BASE13, "--x", "0", "--digits", "5")
        assert code == 0
        assert "00000" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--base", BASE13, "--x", "(1+sqrt(5))/5",
            "--digits", "5", "--json",
        )
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["command"] == "expand"
        assert doc["payload"]["digits"] == [1, 0, 1, 0, 2]
        assert doc["base"][0] == pytest.approx((1 + SQRT13) / 2, rel=1e-16)


class TestDensity:
    def test_sqrt13_constants(self, capsys):
        code, out, _ = run(capsys, "density", "--base", BASE13, "--slot", "0", "--json")
        doc = json.loads(out)
        b0 = (1 + SQRT13) / 2
        assert doc["payload"]["K"] == 3
        assert doc["payload"]["C"] == pytest.approx(1 + 3 / b0**2, abs=1e-12)

    def test_binary_uniform(self, capsys):
        code, out, _ = run(capsys, "density", "--base", "2", "--json")
        doc = json.loads(out)
        assert doc["payload"]["K"] == 0
        assert doc["payload"]["C"] == 1.0

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "density.csv"
        code, _, _ = run(
            capsys, "density", "--base", "phi*phi", "--csv", str(path), "--samples", "64",
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) > 64


class TestMeasureFreqEntropy:
    def test_measure_known_interval(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--base", BASE13, "--slot", "0",
            "--interval", "0,1/((1+sqrt(13))/2)", "--json",
        )
        doc = json.loads(out)
        assert doc["payload"]["value"] == pytest.approx((13 + SQRT13) / 26, abs=1e-9)

    def test_freq_with_empirical(self, capsys):
        code, out, _ = run(
            capsys, "freq", "--base", BASE13, "--digit", "0",
            "--empirical", "20000", "--x0", "0.4142135623730951", "--json",
        )
        doc = json.loads(out)
        assert doc["payload"]["frequency"] == pytest.approx(
            doc["payload"]["empirical"], abs=2e-2
        )

    def test_x0_is_an_expression(self, capsys):
        argv = ["freq", "--base", BASE13, "--digit", "0", "--empirical", "2000", "--json"]
        _, out, _ = run(capsys, *argv, "--x0", "sqrt(2)-1")
        _, ref, _ = run(capsys, *argv, "--x0", repr(math.sqrt(2) - 1))
        assert out == ref and json.loads(out)["payload"]["iterations"] == 2000

    @pytest.mark.parametrize("option", ["--x0", "--x"])
    def test_nan_point_is_a_parse_error(self, capsys, option):
        argv = ["freq", "--digit", "0", "--empirical", "10"] if option == "--x0" else ["orbit"]
        code, out, err = run(capsys, *argv, "--base", "2", option, "nan")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "unknown name 'nan'" in err

    def test_entropy(self, capsys):
        code, out, _ = run(capsys, "entropy", "--base", "2", "--json")
        assert json.loads(out)["payload"]["entropy"] == pytest.approx(math.log(2), abs=1e-12)


class TestCompare:
    def test_disagreement(self, capsys):
        code, out, _ = run(capsys, "compare", "--base", "phi,phi,sqrt(5)", "--json")
        doc = json.loads(out)
        assert doc["payload"]["coincide"] is False
        (lo, hi), = doc["payload"]["intervals"]
        assert lo == pytest.approx(0.7236067977, abs=1e-9)
        assert hi == pytest.approx(0.7888543820, abs=1e-9)

    def test_coincide(self, capsys):
        code, out, _ = run(capsys, "compare", "--base", "3/2,3/2,4", "--json")
        assert json.loads(out)["payload"]["coincide"] is True


class TestOrbitGraph:
    def test_orbit_csv(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, _, _ = run(
            capsys, "orbit", "--base", BASE13, "--x", "0.25", "--steps", "6",
            "--csv", str(path),
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "step,slot,x,digit"
        assert len(lines) == 7
        assert lines[1].startswith("0,0,0.25,")

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_orbit_csv_steps_once(self, capsys, tmp_path, monkeypatch, flags):
        # one step checks the start, then each step makes a row for both the CSV and stdout
        real, calls = core.greedy_step, []
        monkeypatch.setattr(core, "greedy_step", lambda *a: calls.append(a) or real(*a))
        for steps in (0, 50):
            path = tmp_path / f"o{steps}.csv"
            code, _, _ = run(
                capsys, "orbit", "--base", "2.5", "--x", "0.3", "--steps", str(steps), "--csv", str(path), *flags
            )
            assert code == 0
            assert path.read_text().count("\n") == steps + 1
        assert len(calls) == 1 + 50

    @pytest.mark.parametrize(
        "flags, bound_mb", [((), 4), (("--csv", "o.csv"), 4), (("--json",), 4)], ids=["text", "csv", "json"]
    )
    def test_orbit_memory_does_not_grow_with_steps(self, tmp_path, flags, bound_mb):
        # the peak RSS of a child process at 10^4 and at 10^5 steps; text and CSV rows
        # and JSON pieces stream
        peaks = []
        for steps in (10**4, 10**5):
            argv = ["orbit", "--base", "2.5", "--x", "0.3", "--steps", str(steps), *flags]
            with open(tmp_path / "stdout.txt", "w") as out:
                proc = subprocess.run(
                    [sys.executable, "-c", _RSS_PROBE, *argv], cwd=tmp_path, env=_child_env(),
                    stdout=out, stderr=subprocess.PIPE, text=True,
                )
            assert proc.returncode == 0, proc.stderr
            peaks.append(int(proc.stderr) / 1024)
            text = (tmp_path / "stdout.txt").read_text()
            if "--json" in flags:
                assert len(json.loads(text)["payload"]["trajectory"]) == steps
            else:
                assert text.startswith("0: slot 0 x=0.29999999999999999 digit 0\n")
                assert text.count("\n") == steps + ("--csv" in flags)
            if "--csv" in flags:
                assert (tmp_path / "o.csv").read_text().count("\n") == steps + 1
        assert peaks[1] - peaks[0] < bound_mb, peaks

    @pytest.mark.parametrize("mode", ["greedy", "lazy"])
    def test_orbit_csv_rows_equal_json_trajectory(self, capsys, tmp_path, mode):
        # one pass makes each row, writes it to the CSV and renders it into the JSON
        path = tmp_path / "orbit.csv"
        code, out, _ = run(
            capsys, "orbit", "--base", BASE13, "--x", "0.25", "--steps", "50", "--mode", mode,
            "--csv", str(path), "--json",
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "step,slot,x,digit"
        rows = [line.split(",") for line in lines[1:]]
        csv_rows = [{"step": int(k), "slot": int(i), "x": float(v), "digit": int(d)} for k, i, v, d in rows]
        assert csv_rows == json.loads(out)["payload"]["trajectory"]
        assert len(csv_rows) == 50

    def test_orbit_start_outside_domain_writes_no_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "orbit", "--base", "2.5", "--x", "9", "--steps", "3", "--csv", "o.csv")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_orbit_json_bytes_across_batches(self, capsys):
        # 10^4 entries span three written batches; the bytes are those of one joined document
        argv = ["orbit", "--base", "2.5", "--x", "0.3", "--steps", "10000"]
        _, text, _ = run(capsys, *argv)
        _, out, _ = run(capsys, *argv, "--json")
        entries = []
        for line in text.splitlines():
            k, rest = line.split(": slot ")
            i, rest = rest.split(" x=")
            x, d = rest.split(" digit ")
            entries.append(f'{{"step":{k},"slot":{i},"x":{x},"digit":{d}}}')
        head = '{"schema_version":"1","command":"orbit","base":[2.5],"payload":'
        head += '{"mode":"greedy","x":0.29999999999999999,"steps":10000,"trajectory":['
        assert out == head + ",".join(entries) + "]}}\n"

    def test_orbit_json_start_outside_domain_prints_nothing(self, capsys):
        # the JSON pieces stream, but the start is checked before the first one is written
        code, out, err = run(capsys, "orbit", "--base", "2.5", "--x", "9", "--steps", "3", "--json")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_graph_files(self, capsys, tmp_path):
        path = tmp_path / "graph.csv"
        code, _, _ = run(
            capsys, "graph", "--base", BASE13, "--csv", str(path), "--samples", "32",
        )
        for kind in ("greedy", "lazy"):
            lines = (tmp_path / f"graph_{kind}.csv").read_text().splitlines()
            assert lines[0] == "x,y,branch_index,slot"
            assert len(lines) > 50


def _graph_bases():
    """Golden bases, bases near an integer and random bases of periods 1-6."""
    texts = list(cli_golden.BASES) + ["3+1e-13", "3-1e-13", "2+1e-12"]
    bases = [pytest.param(new_base(parse_base_list(t)), id=t) for t in texts]
    rng = SplitMix64(46)
    for p in range(1, 7):
        bases.append(pytest.param(random_base(rng, p, p, hi=9.0), id=f"random-p{p}"))
    return bases


def _graph_csv_rows(path):
    """The (x, y, digit, slot) rows of a graph CSV; 17 significant digits read back exactly."""
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,branch_index,slot"
    rows = (line.split(",") for line in lines[1:])
    return [(float(x), float(y), int(k), int(i)) for x, y, k, i in rows]


class TestGraphRows:
    """Each branch sampled against its own ends gives the rows of the all-cuts sampler."""

    @pytest.mark.parametrize("base", _graph_bases())
    @pytest.mark.parametrize("samples", [1, 16, 2048])
    def test_rows_match_reference(self, capsys, tmp_path, base, samples):
        text = ",".join(repr(b) for b in base.betas)
        path = str(tmp_path / "g.csv")
        code, _, _ = run(capsys, "graph", "--base", text, "--csv", path, "--samples", str(samples))
        assert code == 0
        for kind in ("greedy", "lazy"):
            rows = _graph_csv_rows(tmp_path / f"g_{kind}.csv")
            assert rows == graph_rows_reference(base, kind, samples)
            assert rows
            # the closed form cmd_graph checks against the row bound
            assert len(rows) <= sum(samples * x + 4 * (m + 1) for x, m in zip(base.xmax, base.alphabets))

    def test_row_count_of_1e5_cuts(self):
        # branches 1e-5 wide at one sample per unit: 2 uniform samples each and one beside
        # every interior cut on either side: 4m + 2 rows per file
        base = new_base((100000.5,))
        m = base.alphabets[0]
        for kind in ("greedy", "lazy"):
            assert sum(1 for _ in cli._graph_rows(base, kind, 1)) == 4 * m + 2


def _csv_row_reference(row):
    """A CSV line one value at a time: 17 significant digits for a float, str for the rest."""
    return ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) + "\n"


def _special_doubles():
    """Random bit patterns, ±0, subnormals, integral floats and the extremes of the doubles."""
    rng = SplitMix64(19)
    values = [struct.unpack("<d", struct.pack("<Q", rng.next_u64()))[0] for _ in range(3000)]
    values += [0.0, -0.0, -5e-324, sys.float_info.min, sys.float_info.max]
    values += [float(k) for k in (1, -1, 2, 3, 10, 2**52, 2**53 + 2, -(2**60), 10**17, 10**22)]
    values += [math.ldexp(float(k), -1074) for k in (1, 3, 2**51, 2**52 - 1)]
    return values


class TestCsvTemplates:
    """Each CSV schema's row template writes what the per-value rule wrote."""

    @pytest.mark.parametrize("schema", [cli._CSV_DENSITY, cli._CSV_ORBIT, cli._CSV_GRAPH])
    def test_template_matches_per_value_rule(self, schema):
        header, template = schema
        fields = template.rstrip("\n").split(",")
        assert len(fields) == len(header.split(",")) and set(fields) <= {"%.17g", "%d"}
        doubles = _special_doubles()
        ints = [0, 1, 7, 2**31, 10**7, -3]
        for k in range(len(doubles)):
            row = tuple(
                doubles[(k + 7 * j) % len(doubles)] if f == "%.17g" else ints[(k + j) % len(ints)]
                for j, f in enumerate(fields)
            )
            assert template % row == _csv_row_reference(row)


def _json_string_reference(text):
    """JSON string escaping one character at a time: quote, backslash, controls below 0x20."""
    out = []
    for ch in text:
        if ch in '"\\':
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


class TestDeterminismAndErrors:
    def test_json_string_escapes(self):
        texts = [chr(c) for c in range(0x80)] + ["\u00e9", "\u2028", "\U0001f600"]
        texts.append("".join(texts))
        for text in texts:
            assert "".join(cli._to_json(text)) == _json_string_reference(text)
            assert json.loads("".join(cli._to_json(text))) == text

    def test_byte_identical_json(self, capsys):
        argv = ["freq", "--base", BASE13, "--digit", "1", "--empirical", "5000",
                "--seed", "7", "--json"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "expand", "--base", "2+*3", "--x", "0.5")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("expand", "--base", "2,1+", "--x", "0.5"), "expected a number, name or parenthesis (at position 4)"),
            (("expand", "--base", "2,,3", "--x", "0.5"), "expected a number, name or parenthesis (at position 2)"),
            (("expand", "--base", "1.5, 2+*3", "--x", "0.5"), "expected a number, name or parenthesis (at position 7)"),
            (("measure", "--base", "2", "--interval", "0,1/0"), "division by zero (at position 3)"),
            (("measure", "--base", "2", "--interval", "0, 1)"), "trailing input (at position 4)"),
            (("measure", "--base", "2", "--interval", "1,2,3"), "interval needs two comma-separated expressions (at position 0)"),
            (("measure", "--base", "2", "--interval", " "), "interval needs two comma-separated expressions (at position 0)"),
            (("measure", "--base", " ", "--interval", "0,1"), "empty base list (at position 0)"),
        ],
        ids=["base-second", "base-empty-part", "base-blank-after-comma", "interval-second",
             "interval-trailing", "interval-three", "interval-blank", "base-blank"],
    )
    def test_parse_positions_count_from_the_start_of_the_option(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_interval_positions_count_from_the_start_of_the_text(self):
        assert cli._parse_interval(" 1/4, 3/4") == (0.25, 0.75)
        with pytest.raises(errors.ParseError) as exc:
            cli._parse_interval("0,1/0")
        assert exc.value.position == 3

    def test_domain_error_exit(self, capsys):
        code, _, _ = run(capsys, "expand", "--base", "0.5", "--x", "0.1")
        assert code == 3

    @pytest.mark.parametrize("command", ["density", "graph", "expand"])
    def test_base_within_eps_snap_of_one_exit(self, capsys, tmp_path, command):
        # its alphabet would snap to 0; density gave K = 0 at depth 645247554082256
        # and expand printed zeros, both at exit 0
        rest = {"density": ["--json"], "graph": ["--csv", str(tmp_path / "g.csv")], "expand": ["--x", "0"]}
        code, out, err = run(capsys, command, "--base", "1+1e-13", *rest[command])
        assert (code, out) == (3, "")
        assert err.startswith("error: base component 1.0000000000001 is within 1e-12 of 1")
        assert not list(tmp_path.iterdir())

    def test_numeric_error_exit(self, capsys):
        code, _, _ = run(capsys, "density", "--base", "phi*phi", "--truncation", "2")
        assert code == 4

    def test_resource_error_exit(self, capsys):
        code, _, _ = run(capsys, "compare", "--base", "1000000.5,1000000.5")
        assert code == 5

    @pytest.mark.parametrize("argv", [("density",), ("freq", "--digit", "1")], ids=lambda a: a[0])
    def test_huge_alphabet_period_map_exit(self, capsys, argv):
        # the first refinement pass would make 10^12 branches: refused before it runs
        code, out, err = run(capsys, argv[0], "--base", "1000000.5,1000000.5", *argv[1:])
        assert (code, out) == (5, "")
        assert "composed-map branch" in err

    @pytest.mark.parametrize("mode", ["greedy", "lazy"])
    def test_huge_alphabet_graph_exit(self, capsys, tmp_path, mode):
        # 10^9 branches would be listed and sampled: refused before any is
        path = tmp_path / "graph.csv"
        code, out, err = run(
            capsys, "graph", "--base", "1000000000.5", "--mode", mode, "--csv", str(path),
        )
        assert (code, out) == (5, "")
        assert err.startswith("error:") and "branch bound" in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # the extension [1/beta, x_0 ~ 1e7) alone would take 2e10 samples
            ("graph", "--base", "1.0000001", "--mode", "greedy"),
            ("density", "--base", "2.5", "--samples", "10000000000"),
        ],
        ids=lambda a: a[0],
    )
    def test_csv_row_bound_exit(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--csv", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (5, "")
        assert err.startswith("error:") and "row bound" in err
        assert list(tmp_path.iterdir()) == []
        assert peak < 20 * 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ("expand", "--base", "2.5", "--x", "0.3", "--digits", "400000000"),
            ("orbit", "--base", "2.5", "--x", "0.3", "--steps", "40000000", "--csv", "out.csv"),
            ("density", "--base", "2.5", "--truncation", "100000000", "--csv", "out.csv"),
            ("measure", "--base", "2.5", "--interval", "0,1/2", "--truncation", "100000000"),
            # 10^7 - 1 cuts pass the branch bound, but their CSV rows do not
            ("graph", "--base", "9999999.5", "--mode", "lazy", "--samples", "1", "--csv", "out.csv"),
        ],
        ids=lambda a: a[0],
    )
    def test_input_sized_allocation_exit(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (5, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        assert peak < 20 * 2**20

    def test_every_error_type_has_an_exit_code(self):
        codes = {
            name: t.exit_code for name, t in vars(errors).items()
            if isinstance(t, type) and issubclass(t, errors.AltBaseError) and t is not errors.AltBaseError
        }
        assert codes == {
            "ParseError": 2, "DomainError": 3, "AlphabetError": 3, "NotAllowable": 3,
            "SingularSystem": 4, "TruncationTooShallow": 4, "SearchTooLarge": 5,
        }

    @pytest.mark.parametrize(
        "argv",
        [("entropy", "--base", "1e200,1e200", "--json"), ("expand", "--base", "1e308,10", "--x", "0.5")],
        ids=lambda a: a[0],
    )
    def test_overflowing_period_product_exit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: the product of the base components overflows to inf\n"

    def test_long_period_of_small_betas_builds(self, capsys):
        # 1.1^24 digit blocks number 2^24, but the period map has only 25 branches
        code, _, _ = run(capsys, "measure", "--base", ",".join(["1.1"] * 24), "--interval", "0,1/2")
        assert code == 0

    def test_huge_digit_has_frequency_zero(self, capsys):
        digit = "1" + "0" * 400
        code, out, _ = run(capsys, "freq", "--base", "2.5,1.5", "--digit", digit, "--json")
        assert code == 0
        assert json.loads(out)["payload"] == {"digit": 10**400, "frequency": 0.0}

    ENV_SEED_ARGVS = [
        ("entropy", "--base", "2"),
        ("freq", "--base", "2", "--digit", "1", "--empirical", "100", "--json"),
        ("freq", "--base", "2", "--digit", "1", "--empirical", "100", "--seed", "7", "--json"),
    ]

    def test_env_seed_default(self, capsys, monkeypatch):
        # --seed alone sets the seed: ALTBASE_SEED sets no default and changes no output
        plain = [run(capsys, *argv) for argv in self.ENV_SEED_ARGVS]
        monkeypatch.setenv("ALTBASE_SEED", "31337")
        assert [run(capsys, *argv) for argv in self.ENV_SEED_ARGVS] == plain
        assert [json.loads(out)["payload"]["seed"] for _, out, _ in plain[1:]] == [0, 7]

    def test_env_seed_not_an_integer(self, capsys, monkeypatch):
        # the variable is not read, so a malformed value changes no exit code or output
        plain = [run(capsys, *argv) for argv in self.ENV_SEED_ARGVS]
        monkeypatch.setenv("ALTBASE_SEED", "abc")
        assert [run(capsys, *argv) for argv in self.ENV_SEED_ARGVS] == plain
        assert [code for code, _, _ in plain] == [0, 0, 0]

class TestRejectedCounts:
    """Explicit counts out of range fail with exit 3 instead of being replaced."""

    def test_samples_zero(self, capsys, tmp_path):
        path = tmp_path / "density.csv"
        code, out, err = run(
            capsys, "density", "--base", "2", "--csv", str(path), "--samples", "0",
        )
        assert (code, out) == (3, "")
        assert "--samples" in err
        assert not path.exists()

    def test_samples_negative(self, capsys, tmp_path):
        path = tmp_path / "graph.csv"
        code, out, err = run(
            capsys, "graph", "--base", "2", "--csv", str(path), "--samples", "-3",
        )
        assert (code, out) == (3, "")
        assert "--samples" in err
        assert list(tmp_path.iterdir()) == []

    def test_empirical_zero(self, capsys):
        code, out, _ = run(capsys, "freq", "--base", "2", "--digit", "1", "--empirical", "0")
        assert (code, out) == (3, "")

    def test_steps_negative(self, capsys):
        code, out, err = run(capsys, "orbit", "--base", "2", "--x", "0.3", "--steps", "-2")
        assert (code, out) == (3, "")
        assert "--steps" in err

    def test_steps_zero_is_an_empty_trajectory(self, capsys):
        code, out, _ = run(capsys, "orbit", "--base", "2", "--x", "0.3", "--steps", "0", "--json")
        assert code == 0
        assert json.loads(out)["payload"]["trajectory"] == []


GOLDEN = [
    json.loads(line) for line in cli_golden.CORPUS.read_text(encoding="utf-8").splitlines()
]


class TestGoldenCorpus:
    """The CLI reproduces every recorded run byte for byte."""

    def test_corpus_matches_command_list(self):
        assert [rec["argv"] for rec in GOLDEN] == cli_golden.argvs()

    @pytest.mark.parametrize(
        "record", GOLDEN, ids=[f"{k:02d}-{rec['argv'][0]}" for k, rec in enumerate(GOLDEN)]
    )
    def test_replay(self, record, tmp_path):
        # the bytes depend on numpy's version and CPU dispatch (README, Numerics)
        got = cli_golden.run_cli(record["argv"], str(tmp_path))
        assert got == record, f"replayed with numpy {numpy.__version__}"

    def test_measures_and_frequencies_match_the_exact_orbit_of_one(self, tmp_path):
        # the worst is 2.7e-15 (phi,phi,sqrt(5), measure 1/4,3/4); see tests/cli_golden_report.py
        checked = 0
        for k, run, _, name, recorded, orbit_of_one, exact in cli_golden_report.report_rows(
            str(tmp_path)
        ):
            if name in ("value", "frequency"):
                assert cli_golden_report.relative_gap(recorded, exact) <= 1e-14, (k, run)
                assert cli_golden_report.relative_gap(orbit_of_one, exact) <= 1e-14, (k, run)
                checked += 1
        assert checked == 24


# The child prints one line per stage: its name, the exit code, and whether
# numpy is loaded; the commands' own output is discarded.
_NUMPY_PROBE = """
import contextlib, io, sys

def report(stage, code=None):
    print(stage, code, "numpy" in sys.modules)

import altbase
report("import altbase")
from altbase.cli import main
report("import altbase.cli")
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    report(argv[0], code)
"""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's altbase."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# The child runs the CLI on its arguments and prints its own peak RSS, in KiB, to stderr.
# It reads VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the forking parent
# through exec, so a child of a large test process would report that process's size.
_RSS_PROBE = """
import re, sys
from altbase.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1], file=sys.stderr)
sys.exit(code)
"""


def _numpy_probe(argvs, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", f"ARGVS = {argvs!r}\n" + _NUMPY_PROBE],
        cwd=tmp_path, env=_child_env(),
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()


class TestNumpyImport:
    """numpy is loaded only by the commands that solve for a density or dither an orbit."""

    def test_scalar_commands_never_load_numpy(self, tmp_path):
        runs = [
            (["expand", "--base", BASE13, "--x", "0.3", "--digits", "8"], 0),
            (["expand", "--base", BASE13, "--x", "0.3", "--mode", "lazy"], 0),
            (["entropy", "--base", BASE13, "--json"], 0),
            (["orbit", "--base", BASE13, "--x", "0.25", "--csv", "orbit.csv"], 0),
            (["graph", "--base", BASE13, "--csv", "graph.csv", "--samples", "16"], 0),
            (["compare", "--base", "phi,phi,sqrt(5)", "--json"], 0),
            (["density", "--base", "2", "--json"], 0),  # onto branches: no weight solve
            (["expand", "--base", "2+*3", "--x", "0.5"], 2),
            (["expand", "--base", "2", "--x", "0.5", "--digits", "many"], 2),
            (["expand", "--base", "0.5", "--x", "0.1"], 3),
            (["compare", "--base", "1000000.5,1000000.5"], 5),
        ]
        lines = _numpy_probe([argv for argv, _ in runs], tmp_path)
        assert lines[:2] == ["import altbase None False", "import altbase.cli None False"]
        assert lines[2:] == [f"{argv[0]} {code} False" for argv, code in runs]

    def test_array_commands_still_work(self, tmp_path):
        argvs = [
            ["density", "--base", BASE13, "--json"],
            ["freq", "--base", BASE13, "--digit", "0", "--empirical", "5000", "--x0", "0.3"],
        ]
        lines = _numpy_probe(argvs, tmp_path)
        assert lines[2:] == ["density 0 True", "freq 0 True"]


def _imported_modules(tmp_path, *args, code=0):
    """Names of the modules that a child ``python -X importtime <args>`` imports."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


@pytest.mark.parametrize(
    "args",
    [
        ["-m", "altbase.cli", "expand", "--base", BASE13, "--x", "0.3", "--json"],
        # the first lookup loads the whole library
        ["-c", "import altbase; altbase.new_base"],
    ],
    ids=["cli-expand", "import-altbase"],
)
def test_start_up_loads_no_inspect(tmp_path, args):
    # the standard library's record decorator would bring inspect, ast and dis (~25 ms)
    loaded = _imported_modules(tmp_path, *args) - _imported_modules(tmp_path, "-c", "pass")
    assert "altbase.core" in loaded
    assert not {"dataclasses", "inspect"} & loaded


# the README's command forms and the benchmark session's three error exits: (argv, exit code,
# whether numpy loads, the altbase modules it loads besides CLI_MODULES); only a density solve
# needs numpy, and each command imports only the modules it uses
CLI_MODULES = {"altbase", "altbase.core", "altbase.errors", "altbase.expr"}
COMMAND_FORMS = {
    "expand": (["expand", "--base", BASE13, "--x", "0.3", "--json"], 0, False, ()),
    "orbit": (["orbit", "--base", BASE13, "--x", "0.3", "--steps", "20", "--json"], 0, False, ()),
    "entropy": (["entropy", "--base", BASE13, "--json"], 0, False, ()),
    "compare": (["compare", "--base", BASE13, "--json"], 0, False, ("digitset",)),
    "graph": (["graph", "--base", BASE13, "--csv", "g.csv", "--json"], 0, False, ()),
    "parse-error": (["expand", "--base", BASE13 + "+*2", "--x", "0.3"], 2, False, ()),
    "domain-error": (["expand", "--base", BASE13, "--x", "7.0"], 3, False, ()),
    "resource-error": (["compare", "--base", ",".join(["10"] * 8)], 5, False, ("digitset",)),
    "density": (["density", "--base", BASE13, "--slot", "0", "--json"], 0, True, ("measure",)),
    "measure": (
        ["measure", "--base", BASE13, "--slot", "0", "--interval", "0.1,0.5", "--json"],
        0, True, ("measure",),
    ),
    "freq": (["freq", "--base", BASE13, "--digit", "1", "--json"], 0, True, ("measure",)),
    "freq-empirical": (
        ["freq", "--base", BASE13, "--digit", "1", "--empirical", "1000", "--json"],
        0, True, ("measure", "oracle"),
    ),
}


@pytest.mark.parametrize("form", COMMAND_FORMS)
def test_only_density_solves_load_numpy(tmp_path, form):
    argv, code, loads, extra = COMMAND_FORMS[form]
    loaded = _imported_modules(tmp_path, "-m", "altbase.cli", *argv, code=code)
    assert {m for m in loaded if m.split(".")[0] == "altbase"} == CLI_MODULES | {
        f"altbase.{m}" for m in extra
    }
    assert ("numpy" in loaded) == loads


BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The child runs a density command through the entry point, which loads numpy for its
# weight solve, and prints the BLAS thread variables as numpy's import found them.
_BLAS_PROBE = """
import contextlib, io, os, sys
from altbase import cli

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(" ".join(os.environ.get(v, "unset") for v in BLAS_THREAD_VARIABLES))

seen = []
sys.meta_path.insert(0, Spy())
sys.argv = ["altbase", "density", "--base", "1.3,2.7,1.9", "--json"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run() == 0
assert len(seen) == 1
print(seen[0])
"""


def _blas_probe(tmp_path, **settings):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"BLAS_THREAD_VARIABLES = {BLAS_THREAD_VARIABLES!r}\n{_BLAS_PROBE}"],
        cwd=tmp_path, env={**env, **settings},
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.split()


class TestBlasThreads:
    """``run`` pins BLAS to one thread before numpy loads, unless the user chose a count;
    ``main`` leaves the environment of an in-process caller as it was."""

    def test_unset_variables_become_one(self, tmp_path):
        assert _blas_probe(tmp_path) == ["1", "1", "1"]

    def test_user_settings_are_kept(self, tmp_path):
        assert _blas_probe(tmp_path, OMP_NUM_THREADS="3", MKL_NUM_THREADS="2") == ["3", "1", "2"]

    def test_main_leaves_the_environment_unchanged(self, monkeypatch, capsys):
        # conftest.py sets the variables for this process; unset, main must not set them
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        assert main(["entropy", "--base", "2"]) == 0
        assert main(["density", "--base", "1.3,2.7,1.9", "--json"]) == 0
        assert dict(os.environ) == before


# The process entry point: the golden bytes after ``main`` returns, where the freeze lives,
# and a stdout closed early.


def _first_golden_line_per_form() -> list[tuple[int, dict]]:
    """(index, record) of each command form's first golden line, --empirical a form of its own,
    and of each error exit's."""
    picked = {}
    for k, rec in enumerate(GOLDEN):
        form = (rec["argv"][0], "--empirical" in rec["argv"]) if rec["exit"] == 0 else rec["exit"]
        picked.setdefault(form, (k, rec))
    return list(picked.values())


ENTRY_POINT_GOLDEN = _first_golden_line_per_form()


@pytest.mark.parametrize(
    "record", [rec for _, rec in ENTRY_POINT_GOLDEN],
    ids=[f"{k:02d}-{rec['argv'][0]}" for k, rec in ENTRY_POINT_GOLDEN],
)
def test_golden_line_through_the_entry_point(record, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "altbase.cli", *record["argv"]], cwd=tmp_path, env=_child_env(),
        capture_output=True, timeout=60,
    )
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    got = (proc.returncode, proc.stdout.decode(), proc.stderr.decode(), files)
    assert got == (record["exit"], record["stdout"], record["stderr"], record["files"])


# The child prints the interpreter's collector state after each stage as one JSON list.
_GC_PROBE = """
import contextlib, gc, io, json

def state():
    return [gc.isenabled(), gc.get_freeze_count(), list(gc.get_threshold())]

states = [state()]
from altbase.cli import main
states.append(state())
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["entropy", "--base", "2"]), main(["expand", "--base", "0.5", "--x", "0.1"])]
states.append(state())
print(json.dumps([codes, states]))
"""


class TestEntryPoint:
    """``run`` alone freezes the collector, at exit; ``main`` leaves the interpreter as it was."""

    def test_import_and_main_keep_the_collector_state(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _GC_PROBE], cwd=tmp_path, env=_child_env(),
            capture_output=True, text=True, check=True, timeout=60,
        )
        codes, states = json.loads(proc.stdout)
        assert codes == [0, 3]
        assert states[0][:2] == [True, 0]
        assert states == [states[0]] * 3

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["entropy", "--base", "2"], 0),
            (["expand", "--base", "2+*3", "--x", "0.5"], 2),
            (["expand", "--base", "0.5", "--x", "0.1"], 3),
            (["compare", "--base", "1000000.5,1000000.5"], 5),
        ],
    )
    def test_run_passes_the_exit_code_through(self, capsys, monkeypatch, argv, code):
        # the freeze is recorded, not made, so this test process keeps its collector state
        events = []
        real_main = cli.main
        monkeypatch.setattr(cli, "main", lambda: events.append("main") or real_main())
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(sys, "argv", ["altbase", *argv])
        assert cli.run() == code
        assert events == ["main", "freeze"]
        assert capsys.readouterr().err.startswith("error:") == (code != 0)

    def test_console_script_is_the_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"altbase": "altbase.cli:run"}

    @pytest.mark.parametrize(
        "flags, steps, read",
        [((), 200_000, "line"), (("--json",), 200_000, 4096), ((), 20, 0)],
        ids=["text", "json", "closed-before-the-first-write"],
    )
    def test_closed_stdout_exits_1_quietly(self, tmp_path, flags, steps, read):
        # like `altbase orbit ... | head -1`: the reader goes away while the CLI writes; stdout
        # is block-buffered, as by default, so 20 text rows stay in its buffer until run flushes it
        argv = ["orbit", "--base", "2.5", "--x", "0.3", "--steps", str(steps), "--csv", "o.csv", *flags]
        env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "altbase.cli", *argv], cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.readline() if read == "line" else proc.stdout.read(read)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")
        if read == "line":
            assert head == b"0: slot 0 x=0.29999999999999999 digit 0\n"
        elif read:
            assert head.startswith(b'{"schema_version":"1","command":"orbit"')
        # the CSV is closed: every row it holds is whole, in step order
        text = (tmp_path / "o.csv").read_text()
        rows = text.splitlines()
        assert text.endswith("\n") and rows[0] == "step,slot,x,digit"
        assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(len(rows) - 1))
        assert all(len(row.split(",")) == 4 for row in rows[1:])
        assert len(rows) - 1 <= steps
