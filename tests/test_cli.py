"""Command-line behavior: output and the exit-code contract.

0 success, 1 malformed input (or stdout closed early by its reader), 2
well-formed but rejected, 3 failed soundness check, 4 expectation mismatch.
"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

from nafl import cli, errors, photonsim

GOOD_THEORY = """\
theory QM
atoms P Q R
axiom Q -> P
axiom Q
query P | ~P
query R | ~R
"""

MISMATCH_SCENARIO = """\
scenario probe
atom P "the marker is set"
atom Q "the trigger fired"
time t0 0
time t1 1
bridge Q -> P
track P
at t1 expect-reject declare Q
"""


def run(argv):
    return cli.main(argv)


# -- check -------------------------------------------------------------------


def test_check_reports_statuses_and_queries(tmp_path, capsys):
    path = tmp_path / "qm.thy"
    path.write_text(GOOD_THEORY, encoding="utf-8")
    assert run(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "theory QM: consistent" in out
    assert "P: provable" in out
    assert "R: undecidable" in out
    assert "query P | ~P: legal, provable" in out
    assert "query R | ~R: illegal in the theory syntax" in out


def test_check_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.thy"
    path.write_text("theory T\natoms A\naxiom A &\n", encoding="utf-8")
    assert run(["check", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_nesting_past_the_parser_cap_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.thy"
    path.write_text("theory T\natoms A\naxiom " + "~" * 1200 + "A\n", encoding="utf-8")
    assert run(["check", str(path)]) == 1
    assert "error: formula nests deeper than" in capsys.readouterr().err


def test_check_missing_file_exits_1(tmp_path, capsys):
    assert run(["check", str(tmp_path / "nope.thy")]) == 1


def test_check_illegal_axiom_exits_2(tmp_path, capsys):
    path = tmp_path / "illegal.thy"
    path.write_text("theory T\natoms A\naxiom A | ~A\n", encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert "illegal axiom" in capsys.readouterr().err


def test_check_query_outside_the_vocabulary_exits_1(tmp_path, capsys):
    path = tmp_path / "stray.thy"
    path.write_text("theory T\natoms A\naxiom A\nquery Z\n", encoding="utf-8")
    assert run(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Z" in err


def test_check_seventeen_atoms_exits_1(tmp_path, capsys):
    path = tmp_path / "wide.thy"
    names = " ".join(f"A{i}" for i in range(17))
    path.write_text(f"theory W\natoms {names}\naxiom A0\n", encoding="utf-8")
    assert run(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: theory 'W' declares 17 atoms; the supported bound is 16\n"


def test_check_inconsistency_exits_2(tmp_path, capsys):
    path = tmp_path / "inc.thy"
    path.write_text("theory T\natoms A\naxiom A\naxiom ~A\n", encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert "inconsistent" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize("command", ["check", "run"])
def test_unreadable_input_file_exits_1(command, kind, tmp_path, capsys):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# -- run ---------------------------------------------------------------------


def test_run_builtin_scenario(capsys):
    assert run(["run", "afshar"]) == 0
    out = capsys.readouterr().out
    assert "scenario: afshar" in out
    assert "BCP: PASS" in out
    assert "duality: PASS" in out


def test_run_scenario_file(tmp_path, capsys):
    path = tmp_path / "probe.scn"
    path.write_text(
        MISMATCH_SCENARIO.replace("expect-reject declare Q", "declare Q"),
        encoding="utf-8",
    )
    assert run(["run", str(path)]) == 0


def test_run_malformed_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text("scenario x\ntime t0 zero\n", encoding="utf-8")
    assert run(["run", str(path)]) == 1
    assert run(["run", "no_such_builtin"]) == 1


def test_run_unexpected_rejection_exits_2(tmp_path, capsys):
    path = tmp_path / "boom.scn"
    path.write_text(
        MISMATCH_SCENARIO.replace(
            "expect-reject declare Q", "declare P & ~P"
        ),
        encoding="utf-8",
    )
    assert run(["run", str(path)]) == 2


def test_run_expect_reject_at_an_occupied_time_exits_2(tmp_path, capsys):
    path = tmp_path / "clash.scn"
    path.write_text(
        MISMATCH_SCENARIO.replace(
            "at t1 expect-reject declare Q",
            "at t1 declare Q\nat t1 expect-reject declare P & ~P",
        ),
        encoding="utf-8",
    )
    assert run(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_non_finite_time_exits_1(tmp_path, capsys):
    for value in ("nan", "inf"):
        path = tmp_path / f"{value}.scn"
        path.write_text(
            MISMATCH_SCENARIO.replace("time t1 1", f"time t1 {value}"), encoding="utf-8"
        )
        assert run(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert captured.out == ""


def test_run_expectation_mismatch_exits_4(tmp_path, capsys):
    path = tmp_path / "mm.scn"
    path.write_text(MISMATCH_SCENARIO, encoding="utf-8")
    assert run(["run", str(path)]) == 4
    assert "expected to be rejected" in capsys.readouterr().out


def test_run_failed_audit_exits_3(monkeypatch, capsys):
    failing = types.SimpleNamespace(
        render=lambda: "synthetic report",
        bcp=types.SimpleNamespace(passed=False),
        duality=types.SimpleNamespace(passed=True),
        all_expectations_matched=True,
    )
    monkeypatch.setattr(cli, "run_scenario", lambda scenario: failing)
    assert run(["run", "afshar"]) == 3


def test_the_removed_duality_subcommand_is_an_invalid_choice(capsys):
    # run's report holds the duality table; there is no second text path
    with pytest.raises(SystemExit) as info:
        run(["duality", "afshar"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err and "duality" in captured.err


CLOSED_PIPE = """\
import json, os, subprocess, sys
read, write = os.pipe()
os.close(read)
proc = subprocess.run(
    [sys.executable, "-m", "nafl.cli", *{argv!r}], stdout=write, stderr=subprocess.PIPE, text=True
)
print(json.dumps([proc.returncode, proc.stderr]))
"""


THEORIES = Path(__file__).parent / "golden" / "theories"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "afshar"],
        ["check", str(THEORIES / "qm.thy")],
        # an error after partial output
        pytest.param(["check", str(THEORIES / "stray_query.thy")], id="check-stray_query"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_stdout_closed_by_its_reader_exits_1_without_a_traceback(argv, run_python):
    code, stderr = json.loads(run_python(CLOSED_PIPE.format(argv=argv)))
    assert "Traceback" not in stderr
    assert code == 1


ERROR_CLASSES = sorted(
    (
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.NaflError)
    ),
    key=lambda cls: cls.__name__,
)


def an_instance(cls):
    if cls is errors.IllegalAxiomError:
        return cls("A | ~A", "a synthetic reason")
    if cls is errors.ScenarioExecutionError:
        return cls("at t0 declare A", errors.NaflError("a synthetic cause"))
    return cls("a synthetic failure")


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_nafl_error_exits_with_its_class_code_and_one_error_line(cls, monkeypatch, capsys):
    exc = an_instance(cls)

    def fail(args):
        print("partial output")
        raise exc

    monkeypatch.setattr(cli, "cmd_check", fail)
    assert run(["check", "any.thy"]) == cls.exit_code
    captured = capsys.readouterr()
    prefix = {
        errors.IllegalAxiomError: "illegal axiom: ",
        errors.InconsistentTheoryError: "inconsistent: ",
    }.get(cls, "")
    assert captured.err == f"error: {prefix}{exc}\n"
    assert captured.out == "partial output\n"


def test_exactly_the_rejections_exit_2():
    assert {cls for cls in ERROR_CLASSES if cls.exit_code != 1} == {
        errors.IllegalAxiomError,
        errors.InconsistentTheoryError,
        errors.ScenarioExecutionError,
        errors.TooFewSamplesError,
    }
    assert {cls.exit_code for cls in ERROR_CLASSES} == {1, 2}


# -- sim -----------------------------------------------------------------------


def test_sim_summary_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "hist.csv"
    code = run(
        ["sim", "--photons", "50000", "--seed", "9", "--out", str(out_csv)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mode=quantum photons=50000 seed=9" in out
    assert "blocked:" in out
    assert "analytic blocked fraction:" in out
    assert "chi-square" in out
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert float(first[0]) == -10.0
    assert int(first[2]) >= 0


def test_sim_preset_and_modes(capsys):
    assert run(["sim", "--photons", "30000", "--seed", "1", "--preset",
                "--mode", "classical"]) == 0
    out = capsys.readouterr().out
    assert "wire_width=0.066" in out
    assert "mode=classical" in out


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sim_workers_below_one_exit_1_before_simulating(workers, capsys):
    assert run(["sim", "--photons", "2000", "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_sim_workers_below_one_leave_no_out_file(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert run(["sim", "--photons", "10", "--workers", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", str(2**64)], ["--period", "inf"]])
def test_sim_out_of_range_config_exits_1(flags, capsys):
    assert run(["sim", "--photons", "2000", *flags]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "flags",
    [
        ["--envelope", "gaussian", "--envelope-width", "1e-9"],
        ["--envelope", "gaussian", "--envelope-width", "1e-6"],
        ["--half-extent", "1000000000"],
    ],
)
def test_sim_work_beyond_the_bounds_exits_1_before_simulating(flags, capsys):
    assert run(["sim", "--photons", "2000", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_sim_bad_geometry_exits_1(capsys):
    assert run(["sim", "--photons", "10", "--wire-width", "0.9"]) == 1
    assert "wire width" in capsys.readouterr().err


@pytest.mark.parametrize("bins", ["0", "1", "8", "-3", str(10**12)])
def test_sim_unusable_bin_count_exits_1_before_simulating(bins, capsys):
    assert run(["sim", "--photons", "20000", "--preset", "--bins", bins]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_sim_ten_bins_reconstruct(capsys):
    assert run(["sim", "--photons", "20000", "--preset", "--bins", "10"]) == 0
    assert "dof=9" in capsys.readouterr().out


def test_sim_too_few_samples_exits_2(capsys):
    assert run(["sim", "--photons", "2000", "--seed", "4"]) == 2
    assert "reconstruction skipped" in capsys.readouterr().out


def test_sim_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "photons = 20000\nseed = 11\nmode = classical\n# comment\n",
        encoding="utf-8",
    )
    assert run(["sim", "--config", str(cfg), "--seed", "12"]) == 0
    out = capsys.readouterr().out
    assert "photons=20000" in out
    assert "seed=12" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 3\n", encoding="utf-8")
    assert run(["sim", "--config", str(bad)]) == 1
    capsys.readouterr()
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe")
    for unreadable in (binary, tmp_path):
        assert run(["sim", "--config", str(unreadable)]) == 1
        assert capsys.readouterr().err.startswith("error: config file: ")


def test_sim_config_grid_takes_only_on_and_off_words(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("photons = 20000\nseed = 2\ngrid = ture\n", encoding="utf-8")
    assert run(["sim", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config file: grid wants one of ")
    assert captured.err.endswith("got 'ture' (line 3, column 8)\n")
    assert captured.out == ""
    words = (("OFF", "grid=off"), ("No", "grid=off"), ("Yes", "grid=on"), ("1", "grid=on"))
    for word, shown in words:
        cfg.write_text(f"photons = 20000\nseed = 2\ngrid = {word}\n", encoding="utf-8")
        assert run(["sim", "--config", str(cfg)]) == 0
        assert shown in capsys.readouterr().out


def test_sim_config_bad_number_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# photons next\nphotons = 1e6\n", encoding="utf-8")
    assert run(["sim", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file: ")
    assert err.endswith(" (line 2, column 11)\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed = 1\n  wibble = 3\n", "unknown setting 'wibble' (line 2, column 3)"),
        ("\tphotons 20000  # no '=' here\n", "expected key=value, got 'photons 20000' (line 1, column 2)"),
        ("seed=2 # seed=x\nhalf_extent =  1.5\n", "invalid literal for int() with base 10: '1.5' (line 2, column 16)"),
        ("period = 1.5e # a comment = cut\n", "could not convert string to float: '1.5e' (line 1, column 10)"),
    ],
)
def test_sim_config_errors_name_the_line_and_column(text, message, tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run(["sim", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config file: {message}")
    assert captured.out == ""


def test_sim_out_writes_the_reconstructed_histogram(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    argv = ["sim", "--preset", "--photons", "20000", "--seed", "5", "--bins", "40"]
    assert run([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    res = photonsim.simulate(photonsim.calibration_preset(20000, 5), keep_photons=True)
    counts, edges = np.histogram(res.detected_x, bins=40, range=(-10.0, 10.0))
    rows = [f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}" for i, c in enumerate(counts)]
    assert out.read_text(encoding="utf-8") == "\n".join(["bin_left,bin_right,count", *rows]) + "\n"


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_sim_out_to_an_unwritable_path_exits_1_with_one_error_line(where, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "h.csv" if where == "missing" else tmp_path
    reason = "No such file or directory" if where == "missing" else "Is a directory"
    assert run(["sim", "--photons", "10", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write the histogram to {out}: {reason}\n"
    assert captured.out == ""  # refused before the run, so no summary


def test_sim_no_grid(capsys):
    assert run(["sim", "--photons", "20000", "--seed", "2", "--no-grid"]) == 0
    out = capsys.readouterr().out
    assert "grid=off" in out
    assert "blocked: 0 / 20000" in out
