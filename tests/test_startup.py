"""Start-up cost: only the photon Monte Carlo needs numpy, and it loads on
first use. The logic commands run without it, and without dataclasses and
inspect, while every sim name stays importable from ``nafl`` and
``nafl.photonsim`` stays in sys.modules."""

import hashlib

import pytest

import nafl
from nafl import cli

THEORY = "theory T\natoms P Q\naxiom Q -> P\nquery P | ~P\n"

RUN_MAIN = """\
import contextlib, io, sys
import nafl, nafl.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = nafl.cli.main(sys.argv[1:])
print(code, *[m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules])
"""

# sha256 of the histogram CSV that `nafl sim --preset --photons 1000 --out`
# writes with the closed-form half-period sampler of the flat envelope.
PRESET_1000_CSV = "467b1d31b4e34b7bf41b6fea78ddd72bb1e0c663a55ab6117360bdcad1663e81"


@pytest.mark.parametrize("command", ["import", "run", "check"])
def test_logic_commands_leave_numpy_unloaded(command, run_python, tmp_path):
    argv = [command, "afshar"]
    if command == "import":
        argv = []
    elif command == "check":
        argv[1] = str(tmp_path / "t.thy")
        (tmp_path / "t.thy").write_text(THEORY, encoding="utf-8")
    script = f"import sys; sys.argv[1:] = {argv!r}\n" + RUN_MAIN
    assert run_python(script).split() == ["0"]


def test_import_registers_photonsim_without_loading_it(run_python):
    script = (
        "import sys, nafl\n"
        "print('nafl.photonsim' in sys.modules, 'numpy' in sys.modules,\n"
        "      nafl.photonsim is sys.modules['nafl.photonsim'])\n"
    )
    assert run_python(script).split() == ["True", "False", "True"]


def test_sim_names_load_numpy_on_first_use(run_python):
    script = (
        "import sys\n"
        "from nafl import SimConfig, simulate\n"
        "import nafl.photonsim\n"
        "print('numpy' in sys.modules, simulate is nafl.photonsim.simulate,\n"
        "      simulate(SimConfig(photons=10, seed=1)).photons)\n"
    )
    assert run_python(script).split() == ["True", "True", "10"]


def test_a_failed_sim_load_fails_the_same_way_every_time(run_python):
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "import nafl, nafl.cli\n"
        "for read in [lambda: nafl.simulate, lambda: nafl.photonsim.simulate,\n"
        "             lambda: nafl.SimConfig, lambda: nafl.photonsim.reconstruct]:\n"
        "    try:\n"
        "        read()\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc.name)\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    code = nafl.cli.main(['sim'])\n"
        "print(code, err.getvalue().startswith('error: nafl sim needs numpy'))\n"
    )
    lines = run_python(script).splitlines()
    assert lines == ["ModuleNotFoundError numpy"] * 4 + ["1 True"]


def test_a_one_worker_sim_loads_only_what_it_runs(run_python):
    # np.union1d would load numpy.ma, and a thread pool concurrent.futures
    script = (
        "import contextlib, io, sys\n"
        "import nafl.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = nafl.cli.main(['sim', '--preset', '--photons', '20000'])\n"
        "print(code, 'chi-square' in out.getvalue(),\n"
        "      *[m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules])\n"
    )
    assert run_python(script).split() == ["0", "True"]


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from nafl import *", namespace)
    assert all(namespace[name] is getattr(nafl, name) for name in nafl.__all__)


def test_dir_lists_every_public_name():
    assert set(nafl.__all__) <= set(dir(nafl))
    with pytest.raises(AttributeError, match="no attribute 'simulator'"):
        getattr(nafl, "simulator")


def test_sim_csv_is_unchanged(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert cli.main(["sim", "--preset", "--photons", "1000", "--out", str(out)]) == 2
    assert capsys.readouterr().out.endswith(f"histogram written to {out}\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_1000_CSV


@pytest.mark.parametrize(
    "flag, choices",
    [
        ("--mode", "'quantum', 'classical', 'single-slit'"),
        ("--envelope", "'flat', 'gaussian'"),
    ],
)
def test_unknown_sim_choice_exits_2(flag, choices, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sim", flag, "bogus"])
    assert exit_info.value.code == 2
    assert (
        f"argument {flag}: invalid choice: 'bogus' (choose from {choices})"
        in capsys.readouterr().err
    )
