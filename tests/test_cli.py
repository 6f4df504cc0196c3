"""Command-line behavior: output and the exit-code contract.

0 success, 1 malformed input, 2 well-formed but rejected, 3 failed
soundness check, 4 expectation mismatch.
"""

import io
import types

import pytest

from nafl import cli

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
@pytest.mark.parametrize("command", ["check", "run", "duality"])
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


# -- run / duality ------------------------------------------------------------


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


def test_duality_table(capsys):
    assert run(["duality", "schrodinger_cat"]) == 0
    out = capsys.readouterr().out
    assert "D^2+V^2" in out
    assert "duality: PASS" in out


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


def test_sim_no_grid(capsys):
    assert run(["sim", "--photons", "20000", "--seed", "2", "--no-grid"]) == 0
    out = capsys.readouterr().out
    assert "grid=off" in out
    assert "blocked: 0 / 20000" in out


# -- repl -----------------------------------------------------------------------


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_repl_session(monkeypatch, capsys):
    feed(
        monkeypatch,
        "atom P Q\n"
        "declare Q -> P\n"
        "truth P\n"
        "truth P | ~P\n"
        "model\n"
        "advance 1\n"
        "declare Q\n"
        "truth P\n"
        "duality\n"
        "quit\n",
    )
    assert run(["repl"]) == 0
    out = capsys.readouterr().out
    assert "vocabulary: P Q" in out
    assert "neither (superposed)" in out
    assert "rejected: illegal in theory syntax" in out
    assert "nonclassical (superposed atoms: P Q)" in out
    assert "true (classical model)" in out
    assert "D=1.0 V=0.0" in out


def test_repl_survives_rejections(monkeypatch, capsys):
    feed(
        monkeypatch,
        "atom A\n"
        "declare A | ~A\n"
        "declare A\n"
        "truth A\n"
        "quit\n",
    )
    assert run(["repl"]) == 0
    out = capsys.readouterr().out
    assert "rejected: illegal axiom" in out
    assert "true (classical model)" in out


def test_repl_rejects_non_finite_times(monkeypatch, capsys):
    feed(monkeypatch, "atom P\nadvance 1\nadvance nan\nadvance inf\nadvance 0.5\nquit\n")
    assert run(["repl"]) == 0
    out = capsys.readouterr().out
    assert out.count("rejected: time") == 2
    assert "clock already at 1; cannot go back" in out


def test_repl_splits_words_at_tabs(monkeypatch, capsys):
    feed(monkeypatch, "atom\tP Q\ndeclare\tQ\ntruth\tQ\nmodel\t# tab before a comment\ntruth\tQ &\n")
    assert run(["repl"]) == 0
    out = capsys.readouterr().out
    assert "unknown command" not in out
    assert "vocabulary: P Q" in out
    assert "true (superposed)" in out
    assert "  Q: provable" in out
    assert "(line 5, column 10)" in out


def test_repl_handles_garbage(monkeypatch, capsys):
    feed(monkeypatch, "frobnicate\nadvance backwards\ntruth P(\nquit\n")
    assert run(["repl"]) == 0
    out = capsys.readouterr().out
    assert "unknown command 'frobnicate'" in out
    assert "rejected:" in out
