import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from tetrabasis import cli, hierarchy
from tetrabasis.basisgen import build_tetra_group, measurement_unitary, orbit_basis
from tetrabasis.cli import CSV_COLUMNS, fmt_number, main
from tetrabasis.fiducial import build_fiducial
from tetrabasis.hierarchy import DEFAULT_CAP, clifford_level_test
from tetrabasis.reproduce import SUITE_NAMES, reproduce_suite
from tetrabasis.search import SearchConfig, group_into_classes, search_regular

from polyspace import enumerate_polynomials, seeded_polynomials


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestBuild:
    def test_json_schema_and_values(self, capsys):
        code, out = run_cli(capsys, "build", "--n", "2", "--m", "2", "--poly", "z1 z2")
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["n", "polynomial", "fiducial", "columns"]
        assert payload["n"] == 2
        assert payload["polynomial"] == "z1 z2"
        fid = np.array([complex(re, im) for re, im in payload["fiducial"]])
        expected = np.array([1, (1 - 1j) / 2, (1 + 1j) / 2, 0]) / np.sqrt(2)
        np.testing.assert_allclose(fid, expected, atol=1e-9)
        assert len(payload["columns"]) == 4

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "build", "--n", "3", "--m", "2",
                           "--poly", "z1 z3 + 3 z2 z3 + z1 z2 z3")
        _, second = run_cli(capsys, "build", "--n", "3", "--m", "2",
                            "--poly", "z1 z3 + 3 z2 z3 + z1 z2 z3")
        assert first == second


class TestVerify:
    def test_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "--n", "2", "--m", "2", "--poly", "z1 z2")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_tolerance_override(self, capsys):
        code, out = run_cli(capsys, "verify", "--n", "2", "--m", "2", "--poly", "z1 z2",
                            "--tolerance", "norm=1e-20")
        assert code == 1  # fp rounding exceeds an absurdly tight tolerance
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("entry", ["nrom=1e-30", "geo=1e-3"])
    def test_unknown_tolerance_name_rejected(self, capsys, entry):
        code, _ = run_cli(capsys, "verify", "--n", "2", "--m", "2", "--poly", "z1 z2",
                          "--tolerance", entry)
        assert code == 2

    @pytest.mark.parametrize("entry", ["norm=-1", "norm=0", "norm=nan", "norm=inf"])
    def test_non_positive_or_non_finite_tolerance_rejected(self, capsys, entry):
        code, out = run_cli(capsys, "verify", "--n", "2", "--m", "2", "--poly", "z1 z2",
                            "--tolerance", entry)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("extra, code, line", [
        ((), 0, "orthonormal: True (max violation 1.110e-16)"),
        (("--tolerance", "norm=1e-20"), 1, "orthonormal: False (max violation 1.110e-16)"),
    ])
    def test_text(self, capsys, extra, code, line):
        assert run_cli(capsys, "verify", "--n", "2", "--m", "2", "--poly", "z1 z2",
                       "--format", "text", *extra) == (code, line + "\n")


class TestGeometry:
    def test_json_keys(self, capsys):
        code, out = run_cli(capsys, "geometry", "--n", "2", "--m", "2", "--poly", "z1 z2")
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["class", "r", "lines", "chirality",
                                        "nonzero_components"]
        assert payload["class"] == ["regular_tetrahedron", "regular_tetrahedron"]
        assert abs(payload["r"] - np.sqrt(3) / 2) < 1e-9
        assert payload["chirality"] == {"1,2": -1}

    def test_text_r_twelve_significant_digits(self, capsys):
        code, out = run_cli(capsys, "geometry", "--n", "3", "--m", "2",
                            "--poly", "z1 z3 + 3 z2 z3 + z1 z2 z3", "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "classes: regular_tetrahedron, regular_tetrahedron, regular_tetrahedron",
            "r: 0.433012701892",
            "chirality: +++",
        ]

    @pytest.mark.parametrize("entry", ["geo=inf", "geo=-1e-8", "geo=nan"])
    def test_non_positive_or_non_finite_tolerance_rejected(self, capsys, entry):
        code, out = run_cli(capsys, "geometry", "--n", "2", "--m", "2", "--poly", "z1 z2",
                            "--tolerance", entry)
        assert code == 2
        assert out == ""

    def test_unknown_tolerance_name_rejected(self, capsys):
        code, _ = run_cli(capsys, "geometry", "--n", "2", "--m", "2", "--poly", "z1 z2",
                          "--tolerance", "norm=1e-3")
        assert code == 2

    def test_loose_tolerance_without_a_chirality_is_a_usage_error(self, capsys):
        # at geo=0.2 both qubits pass as regular, but no orthogonal map aligns
        # their tetrahedra; exit 2 with a message, not a traceback
        code = main(["geometry", "--n", "3", "--m", "3",
                     "--poly", "4 z1 z2 + 4 z1 z2 z3 + z2 z3", "--tolerance", "geo=0.2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
        code, out = run_cli(capsys, "geometry", "--n", "3", "--m", "3",
                            "--poly", "4 z1 z2 + 4 z1 z2 z3 + z2 z3")
        assert code == 0 and json.loads(out)["class"] == ["disphenoid"] * 3


class TestInvariants:
    def test_json_keys_and_values(self, capsys):
        code, out = run_cli(capsys, "invariants", "--n", "3", "--m", "2",
                            "--poly", "z1 z3 + 3 z2 z3 + z1 z2 z3")
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["tangle", "concurrence_sq", "r", "chirality",
                                        "stab_order", "conjugate_flag"]
        assert abs(payload["tangle"] - np.sqrt(65) / 16) < 1e-9
        assert payload["stab_order"] == 6

    def test_text_one_line_per_key(self, capsys):
        code, out = run_cli(capsys, "invariants", "--n", "3", "--m", "2",
                            "--poly", "z1 z3 + 3 z2 z3 + z1 z2 z3", "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "tangle: 0.5038911093",
            "concurrence_sq: [0.1543044454, 0.1543044454, 0.1543044454]",
            "r: 0.4330127019",
            "chirality: +++",
            "stab_order: 6",
            "conjugate_flag: None",
        ]


class TestLevel:
    def test_formula_level_text(self, capsys):
        code, out = run_cli(capsys, "level", "--n", "3", "--m", "2",
                            "--poly", "2 z1 z3 + z1 z2 z3", "--format", "text")
        assert code == 0
        assert out.strip() == "4"

    def test_matrix_mode(self, capsys):
        code, out = run_cli(capsys, "level", "--n", "2", "--m", "2", "--poly", "z1 z2",
                            "--matrix", "--mode", "full")
        assert code == 0
        payload = json.loads(out)
        assert payload["formula_level"] == 3
        assert payload["matrix"]["level"] == 3
        assert payload["matrix"]["mode"] == "full"

    def test_matrix_text(self, capsys):
        code, out = run_cli(capsys, "level", "--n", "2", "--m", "2", "--poly", "z1 z2",
                            "--matrix", "--format", "text")
        assert (code, out) == (0, "3\nmatrix level: 3 (mode generator)\n")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_rejected(self, capsys, cap):
        code, out = run_cli(capsys, "level", "--n", "2", "--m", "2", "--poly", "z1 z2",
                            "--matrix", "--cap", cap)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("cap", ["0", "7", "99"])
    def test_cap_out_of_range_rejected_without_matrix(self, capsys, cap):
        code = main(["level", "--n", "2", "--m", "2", "--poly", "z1 z2", "--cap", cap])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cap must lie in 1..6" in captured.err


def orbit_unitary(f):
    return measurement_unitary(orbit_basis(build_fiducial(f), build_tetra_group(f.n), f))


def assert_matrix_level_is_the_recursive_level(capsys, polys, caps):
    """`level --matrix` prints clifford_level_test's result on M_psi, in both modes."""
    for f in polys:
        u = orbit_unitary(f)
        for mode in ("generator", "full"):
            for cap in caps:
                code, out = run_cli(capsys, "level", "--n", str(f.n), "--m", str(f.m),
                                    "--poly", f.to_text(), "--matrix", "--mode", mode,
                                    "--cap", str(cap))
                assert code == 0
                full_layers = int(mode == "full")
                expected = clifford_level_test(u, cap=cap, full_layers=full_layers).to_json_dict()
                assert json.loads(out)["matrix"] == expected, (f.to_text(), mode, cap)


class TestLevelMatrixOracle:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_n2_polynomial_at_caps_1_to_6(self, capsys, m):
        polys = list(enumerate_polynomials(2, m, min_degree=1))
        assert_matrix_level_is_the_recursive_level(capsys, polys, range(1, DEFAULT_CAP + 1))

    def test_every_n3_m2_polynomial(self, capsys):
        assert_matrix_level_is_the_recursive_level(capsys, enumerate_polynomials(3, 2), (6, 2))

    @pytest.mark.parametrize("m", [2, 3])
    def test_seeded_n4_sample(self, capsys, m):
        assert_matrix_level_is_the_recursive_level(capsys, seeded_polynomials(4, m, 6, 21),
                                                   (6, 3))


def swap_columns(u):
    return u[:, [1, 0] + list(range(2, len(u)))]


def phase_one_entry(u):
    u = u.copy()
    u[np.unravel_index(np.argmax(np.abs(u)), u.shape)] *= 1j
    return u


class TestLevelMatrixGuard:
    @pytest.mark.parametrize("corrupt", [swap_columns, phase_one_entry])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_corrupted_measurement_unitary_raises(self, capsys, monkeypatch, corrupt, fmt):
        built = hierarchy.measurement_unitary
        monkeypatch.setattr(hierarchy, "measurement_unitary", lambda basis: corrupt(built(basis)))
        with pytest.raises(AssertionError,
                           match="measurement unitary of 'z1 z2' is not its fiducial circuit"):
            main(["level", "--n", "2", "--poly", "z1 z2", "--matrix", "--format", fmt])
        assert capsys.readouterr().out == ""

    def test_runs_no_recursion(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the recursive level test ran")
        monkeypatch.setattr(hierarchy, "clifford_level_test", refuse)
        code, out = run_cli(capsys, "level", "--n", "4", "--poly", "z1 z2 z3 + 3 z1 z4",
                            "--matrix", "--mode", "full")
        assert code == 0
        assert json.loads(out)["matrix"] == {"level": 4, "cap": 6, "mode": "full"}

    @pytest.mark.parametrize("argv, message", [
        (("--n", "1", "--poly", "z1"), "error: tetrahedral group needs n >= 2\n"),
        (("--n", "7", "--poly", "z1"), "error: dimension 128 exceeds cap 2**6\n"),
        (("--n", "2", "--poly", "z1 z2", "--cap", "0"), "error: cap must lie in 1..6, got 0\n"),
        (("--n", "2", "--poly", "z1 z2", "--cap", "7"), "error: cap must lie in 1..6, got 7\n"),
    ])
    def test_error_paths_exit_2(self, capsys, argv, message):
        code = main(["level", *argv, "--matrix", "--mode", "full"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message)


class TestSearch:
    def test_csv_columns_and_rows(self, capsys):
        code, out = run_cli(capsys, "search", "--n", "2", "--m", "2",
                            "--filter", "regular", "--filter", "nonzero",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1].startswith("z1 z2,3,")
        assert lines[2].startswith("3 z1 z2,3,")
        assert len(lines) == 3

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "search", "--n", "2", "--m", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert [h["poly"] for h in payload["hits"]] == ["z1 z2", "3 z1 z2"]

    def test_n3_csv_carries_tangle_and_partner(self, capsys):
        code, out = run_cli(capsys, "search", "--n", "3", "--m", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 41  # header + 40 hits
        first = lines[1].split(",")
        assert first[0] == "z1 z2 z3 + z1 z3"
        assert first[1] == "4"
        assert abs(float(first[3]) - np.sqrt(145) / 16) < 1e-9
        assert first[9] == "3 z1 z2 z3 + 3 z1 z3"  # negated-coefficient partner


    @pytest.mark.parametrize("command", ["search", "classify"])
    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_non_positive_sample_rejected(self, capsys, command, size):
        code, out = run_cli(capsys, command, "--n", "2", "--m", "2", "--sample", size)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["search", "classify"])
    @pytest.mark.parametrize("jobs", ["0", "-2", "2", "4"])
    def test_non_positive_jobs_rejected(self, capsys, command, jobs):
        code, out = run_cli(capsys, command, "--n", "2", "--m", "2", "--jobs", jobs)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["search", "classify"])
    def test_jobs_from_config_rejected(self, tmp_path, capsys, command):
        # the search runs in one process: --jobs takes only 1, wherever it is set
        config = tmp_path / "run.cfg"
        config.write_text("jobs = 2\n")
        code = main(["--config", str(config), command, "--n", "2", "--m", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--jobs takes only 1" in captured.err

    @pytest.mark.parametrize("argv", [["search", "--format", "csv"],
                                      ["classify", "--format", "json"]])
    def test_jobs_one_prints_the_same_bytes(self, capsys, argv):
        _, plain = run_cli(capsys, *argv, "--n", "3", "--m", "2")
        code, with_flag = run_cli(capsys, *argv, "--n", "3", "--m", "2", "--jobs", "1")
        assert code == 0
        assert with_flag == plain

    @pytest.mark.parametrize("command", ["search", "classify"])
    @pytest.mark.parametrize("sample", [[], ["--sample", "3"]])
    def test_negative_seed_rejected(self, capsys, command, sample):
        code, out = run_cli(capsys, command, "--n", "2", "--m", "2", "--seed", "-1", *sample)
        assert code == 2
        assert out == ""


class TestClassify:
    def test_n2_single_class(self, capsys):
        code, out = run_cli(capsys, "classify", "--n", "2", "--m", "2",
                            "--filter", "regular", "--filter", "nonzero")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 1
        record = payload["classes"][0]
        assert record["representatives"] == ["z1 z2", "3 z1 z2"]

    N3_TEXT = """\
class '3 z1 z2 z3 + 3 z1 z3 + z2 z3': tangle=0.5038911093 r=0.4330127019 reps=4 \
conjugate_of='z1 z2 z3 + z1 z3 + 3 z2 z3'
class 'z1 z2 z3 + z1 z3 + 3 z2 z3': tangle=0.5038911093 r=0.4330127019 reps=4 \
conjugate_of='3 z1 z2 z3 + 3 z1 z3 + z2 z3'
class 'z1 z2 + 3 z1 z2 z3 + z1 z3 + z2 z3': tangle=0.6155536126 r=0.4330127019 reps=4 \
conjugate_of='z1 z2 + z1 z2 z3 + z1 z3 + 3 z2 z3'
class 'z1 z2 + z1 z2 z3 + z1 z3 + 3 z2 z3': tangle=0.6155536126 r=0.4330127019 reps=4 \
conjugate_of='z1 z2 + 3 z1 z2 z3 + z1 z3 + z2 z3'
class '2 z1 z2 + z1 z2 z3 + 2 z1 z3': tangle=0.6643841133 r=0.4330127019 reps=6 \
conjugate_of='z1 z2 + z1 z2 z3 + 2 z1 z3'
class 'z1 z2 + z1 z2 z3 + 2 z1 z3': tangle=0.6643841133 r=0.4330127019 reps=6 \
conjugate_of='2 z1 z2 + z1 z2 z3 + 2 z1 z3'
class 'z1 z2 z3 + 2 z1 z3': tangle=0.7525996612 r=0.4330127019 reps=6 \
conjugate_of='z1 z2 z3 + z1 z3'
class 'z1 z2 z3 + z1 z3': tangle=0.7525996612 r=0.4330127019 reps=6 \
conjugate_of='z1 z2 z3 + 2 z1 z3'
8 classes
"""

    def test_n3_text(self, capsys):
        assert run_cli(capsys, "classify", "--n", "3", "--m", "2", "--format", "text") == (
            0, self.N3_TEXT)

    @pytest.mark.parametrize("sample", ["3000", "200000"])
    def test_n5_rejected_before_searching(self, capsys, monkeypatch, sample):
        # classes past n = 4 are not yet validated; whatever a sample finds,
        # an up-front check gives every n = 5 sample the same exit code
        def no_search(cfg):
            raise AssertionError("searched")

        monkeypatch.setattr(cli, "search_regular", no_search)
        code = main(["classify", "--n", "5", "--m", "2", "--sample", sample, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "classify supported for n <= 4" in captured.err


class TestWitness:
    def test_conjugation_needed(self, capsys):
        args = ["witness", "--n", "3", "--m", "2",
                "--poly", "z1 z3 + 3 z2 z3 + z1 z2 z3",
                "--target", "3 z1 z3 + z2 z3 + 3 z1 z2 z3"]
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert json.loads(out)["witness"] is None
        code, out = run_cli(capsys, *args, "--conjugation")
        payload = json.loads(out)
        assert payload["witness"]["conjugated"] is True

    def test_text(self, capsys):
        args = ["witness", "--n", "3", "--m", "2", "--poly", "z1 z3 + 3 z2 z3 + z1 z2 z3",
                "--target", "3 z1 z3 + z2 z3 + 3 z1 z2 z3", "--format", "text"]
        assert run_cli(capsys, *args) == (0, "no witness\n")
        assert run_cli(capsys, *args, "--conjugation") == (
            0, "witness: cliffords (0, 0, 0) conjugated=True column=0\n")

    def test_more_than_four_qubits_exit_2(self, capsys):
        code = main(["witness", "--n", "5", "--m", "2", "--poly", "z1 z2", "--target", "z1 z3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: witness search supported for n <= 4\n"


class TestReproduce:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            reproduce_suite("bogus")

    def test_appA_passes(self, capsys):
        code, out = run_cli(capsys, "reproduce", "appA")
        assert code == 0
        assert "suite appA: PASS" in out

    def test_appD_documents_ppi_discrepancy(self, capsys):
        # the suite asserts the published permutation-invariance claim, which
        # the built state measurably does not satisfy; exit code reports it
        code, out = run_cli(capsys, "reproduce", "appD")
        assert code == 1
        assert "[FAIL] example 1 full permutation-phase invariance" in out
        failing = [line for line in out.splitlines() if "[FAIL]" in line]
        assert len(failing) == 1

    def test_table1_passes(self, capsys):
        code, out = run_cli(capsys, "reproduce", "table1")
        assert code == 0
        assert "suite table1: PASS" in out

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "reproduce", "appA", "--format", "json")
        payload = json.loads(out)
        assert payload["suite"] == "appA" and payload["pass"] is True

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_csv_numbers_at_twelve_significant_digits(self, capsys, suite):
        _, out = run_cli(capsys, "reproduce", suite, "--format", "csv")
        rows = list(csv.DictReader(out.splitlines()))
        assert rows
        numbers = [float(tok) for row in rows
                   for key in ("expected", "actual", "tolerance")
                   for tok in re.findall(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?", row[key])]
        assert numbers
        for x in numbers:
            assert float(f"{x:.12g}") == x

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "nosuchsuite"])
        assert err.value.code == 2


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["build", "--n", "2", "--poly", "z1 z2", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["build", "invariants", "level", "search"])
    def test_tolerance_only_on_commands_that_read_it(self, command):
        argv = [command, "--n", "2", "--m", "2", "--tolerance", "norm=1e-3"]
        if command != "search":
            argv += ["--poly", "z1 z2"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["build", "verify", "geometry", "invariants", "level",
                                         "witness", "classify"])
    def test_csv_only_where_written(self, command, capsys):
        argv = [command, "--n", "2", "--format", "csv"]
        if command != "classify":
            argv += ["--poly", "z1 z2"]
        if command == "witness":
            argv += ["--target", "3 z1 z2"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["build", "--n", "2", "--poly", "z1 z2", "--form", "text"],
        ["build", "--n", "2", "--po", "z1 z2"],
        ["reproduce", "appA", "--form", "json"],
    ])
    def test_abbreviated_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["build", "--poly", "z1 z2"], ["verify", "--poly", "z1 z2"],
        ["geometry", "--poly", "z1 z2"], ["invariants", "--poly", "z1 z2"],
        ["level", "--poly", "z1 z2"], ["search", "--sample", "3"],
        ["classify", "--sample", "3"],
    ])
    @pytest.mark.parametrize("m", ["63", "64", "100"])
    def test_precision_above_62_rejected(self, argv, m, capsys):
        code = main(argv[:1] + ["--n", "2", "--m", m] + argv[1:])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_precision_62_accepted(self, capsys):
        code, out = run_cli(capsys, "build", "--n", "2", "--m", "62", "--poly", "z1 z2")
        assert code == 0 and json.loads(out)["polynomial"] == "z1 z2"

    def test_malformed_polynomial(self, capsys):
        code = main(["build", "--n", "2", "--m", "2", "--poly", "z1 +"])
        assert code == 2

    @pytest.mark.parametrize("poly, message", [
        ("", "polynomial error: empty polynomial text (at position 0)\n"),
        ("z1 z2 3 z3", "polynomial error: expected '+', got '3' (at position 6)\n"),
    ])
    def test_polynomial_parse_errors_exit_2(self, capsys, poly, message):
        code = main(["build", "--n", "3", "--m", "2", "--poly", poly])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message)

    def test_out_of_range_index(self, capsys):
        code = main(["build", "--n", "2", "--m", "2", "--poly", "z1 z7"])
        assert code == 2


class TestConfigFile:
    def test_config_defaults_and_flag_precedence(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n = 2\nm = 2\npoly = z1 z2\n")
        code, out = run_cli(capsys, "--config", str(config), "build")
        assert code == 0
        assert json.loads(out)["polynomial"] == "z1 z2"
        # explicit flag wins over the config value
        code, out = run_cli(capsys, "--config", str(config), "build",
                            "--poly", "3 z1 z2")
        assert json.loads(out)["polynomial"] == "3 z1 z2"

    LEVEL = ("level", "--n", "2", "--m", "2", "--poly", "z1 z2")

    @pytest.mark.parametrize("value", ["true", "True"])
    def test_boolean_key_true_passes_the_flag(self, tmp_path, capsys, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"matrix = {value}\n")
        code, out = run_cli(capsys, "--config", str(config), *self.LEVEL)
        assert code == 0
        assert json.loads(out)["matrix"]["level"] == 3

    def test_boolean_key_false_leaves_the_flag_off(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("matrix = false\n")
        code, out = run_cli(capsys, "--config", str(config), *self.LEVEL)
        assert code == 0
        assert "matrix" not in json.loads(out)

    @pytest.mark.parametrize("value", ["yes", "1", ""])
    def test_boolean_key_other_value_rejected(self, tmp_path, capsys, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"matrix = {value}\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), *self.LEVEL])
        assert err.value.code == 2
        assert "takes true or false" in capsys.readouterr().err

    SHARED = "n = 2\npoly = z1 z2  # both subcommands\n\n[level]\nmatrix = true\n"

    def test_one_file_serves_build_and_level(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(self.SHARED)
        code, out = run_cli(capsys, "--config", str(config), "build")
        assert code == 0
        assert json.loads(out)["polynomial"] == "z1 z2"
        code, out = run_cli(capsys, "--config", str(config), "level")
        assert code == 0
        assert json.loads(out)["matrix"]["level"] == 3
        # a top-level key fills only the subcommands that have its flag
        code, out = run_cli(capsys, "--config", str(config), "search", "--n", "2",
                            "--format", "csv")
        assert code == 0
        assert out == run_cli(capsys, "search", "--n", "2", "--format", "csv")[1]
        assert out.count("\n") == 3  # header and the two n=2 hits
        code, out = run_cli(capsys, "--config", str(config), "reproduce", "appA")
        assert (code, out) == run_cli(capsys, "reproduce", "appA")
        assert code == 0

    @pytest.mark.parametrize("text", ["nn = 2\n", "n = 2\n[search]\npoly = z1 z2\n"])
    def test_key_of_no_flag_rejected(self, tmp_path, capsys, text):
        # a top-level key that no subcommand has, or a section key its subcommand lacks
        config = tmp_path / "run.cfg"
        config.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), "search", "--n", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n = 2\npoly z1 z2\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), "build"])
        assert err.value.code == 2
        assert "config line 'poly z1 z2' is not key=value" in capsys.readouterr().err

    def test_section_overrides_top_level_and_flags_win(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(self.SHARED + "poly = 3 z1 z2\n[build]\nformat = text\n")
        code, out = run_cli(capsys, "--config", str(config), "level")
        assert code == 0
        assert json.loads(out)["polynomial"] == "3 z1 z2" and "matrix" in json.loads(out)
        code, out = run_cli(capsys, "--config", str(config), "build", "--format", "json",
                            "--poly", "2 z1 z2")
        assert code == 0
        assert json.loads(out)["polynomial"] == "2 z1 z2"
        code, out = run_cli(capsys, "--config", str(config), "build")
        assert code == 0 and out.startswith("polynomial: z1 z2\n")

    def test_abbreviated_config_flag_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n = 2\npoly = z1 z2\n")
        with pytest.raises(SystemExit) as err:
            main(["--conf", str(config), "build"])
        assert err.value.code == 2

    def test_abbreviated_flag_is_not_overridden(self, tmp_path, capsys):
        # the config must not fill --format behind an abbreviation of it
        config = tmp_path / "run.cfg"
        config.write_text("format = json\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), "build", "--n", "2", "--poly", "z1 z2",
                  "--form", "text"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [("--config",), ("--config", "--n", "2", "build"),
                                      ("--config", "a.cfg", "--config")])
    def test_bare_config_flag_rejected_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage: tetrabasis [-h] [--config CONFIG]")
        assert "argument --config: expected one argument" in err_text

    def test_equals_form_and_last_config_wins(self, tmp_path, capsys):
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text("n = 2\npoly = z1 z2\n")
        last.write_text("n = 2\npoly = 3 z1 z2\n")
        for argv in (("--config", str(first), f"--config={last}", "build"),
                     (f"--config={first}", "--config", str(last), "build")):
            code, out = run_cli(capsys, *argv)
            assert code == 0 and json.loads(out)["polynomial"] == "3 z1 z2"

    def test_config_after_the_subcommand_is_a_usage_error(self, tmp_path, capsys):
        # only the tokens before the subcommand are read for --config
        with pytest.raises(SystemExit) as err:
            main(["build", "--config", str(tmp_path / "missing.cfg"), "--n", "2",
                  "--poly", "z1z2"])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "unrecognized arguments: --config" in err_text and "config error" not in err_text

    def test_unknown_section_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n = 2\n[levle]\nmatrix = true\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(config), "build", "--poly", "z1 z2"])
        assert err.value.code == 2
        assert "[levle]" in capsys.readouterr().err


class TestSharedParser:
    """main() builds its parser once; later calls must behave as with a fresh one."""

    def outcomes(self, capsys, calls, fresh):
        results = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_calls_match_fresh_parsers(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n = 2\npoly = z1 z2\n[level]\nmatrix = true\nmode = full\n")
        level = ("level", "--n", "2", "--m", "2", "--poly", "z1 z2")
        calls = [
            level,
            ("--config", str(config), "level"),
            ("build", "--n", "2", "--poly", "3 z1 z2", "--format", "text"),
            level + ("--bogus",),  # usage error, exit 2
            level + ("--format", "text"),
            ("--config", str(config), "build"),
            ("search", "--n", "3", "--format", "text", "--filter", "nonzero"),
            ("search", "--n", "3", "--format", "text"),
            level,
        ]
        cli.build_parser.cache_clear()
        shared = self.outcomes(capsys, calls, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        fresh = self.outcomes(capsys, calls, fresh=True)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0, 0, 0, 0]
        # the config file's switch and mode applied to its call alone
        assert "matrix" in json.loads(shared[1][1]) and "matrix" not in json.loads(shared[0][1])
        assert shared[0] == shared[-1]


def readme_commands():
    """Every `tetrabasis ...` line of README's sh blocks, continuations joined, comments cut."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in lines.splitlines()
            if line.startswith("tetrabasis ")]


class TestReadmeExamples:
    def test_every_command_line_parses(self):
        commands = readme_commands()
        # the CLI block shows every subcommand
        assert {argv[1] for argv in commands} == {
            "build", "verify", "geometry", "invariants", "level", "search", "classify",
            "witness", "reproduce"}
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])


class TestRenderJson:
    PAYLOAD = {"n": np.int64(3), "r": np.sqrt(3) / 4, "ok": np.bool_(True), "none": None,
               "rows": [(1 / 3, "z1 z2"), []], "nested": {"empty": {}, "phase": [0.5, -1e-17]}}

    def test_streamed_bytes_equal_dumps(self, capsys):
        cli.render_json(self.PAYLOAD)
        assert capsys.readouterr().out == json.dumps(cli._formatted(self.PAYLOAD), indent=2) + "\n"

    def test_writes_to_the_current_stdout(self):
        # sys.stdout is looked up per call, so a later redirect still captures it
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["classify", "--n", "3", "--m", "2"])
        records = group_into_classes(search_regular(SearchConfig(3, 2)))
        payload = {"n": 3, "m": 2, "classes": [r.to_json_dict() for r in records]}
        assert code == 0
        assert out.getvalue() == json.dumps(cli._formatted(payload), indent=2) + "\n"


class TestNumberFormatting:
    def test_twelve_significant_digits(self):
        assert fmt_number(np.sqrt(2) / 2) == 0.707106781187
        assert fmt_number(1 / 3) == 0.333333333333
        assert fmt_number(None) is None
        assert fmt_number(7) == 7
