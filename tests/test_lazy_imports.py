"""The package and the command line load numpy only when numerical code runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acsalign

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("bound", "channel", "rates", "schemes", "verify")


def numpy_loaded(program: str) -> bool:
    """Whether a fresh interpreter holds numpy after running `program`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    check = f"\nimport sys\nassert acsalign.__file__.startswith({str(SRC)!r})\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", program + check], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1] == "True"


def main_program(*argv: str) -> str:
    return ("import contextlib, acsalign\nfrom acsalign.cli import main\n"
            f"with contextlib.suppress(SystemExit):\n    main({list(argv)!r})")


@pytest.mark.parametrize("program", [
    "import acsalign",
    "import acsalign.cli",
    main_program("bound", "--s-max", "3"),
    main_program("--help"),
    main_program("bound", "--help"),
], ids=["import", "import-cli", "bound", "help", "bound-help"])
def test_numpy_stays_unloaded(program):
    assert not numpy_loaded(program)


def test_numerical_subcommand_help_loads_numpy():
    assert numpy_loaded(main_program("sweep", "--help"))


def test_exports_are_their_home_module_objects():
    for name in acsalign.__all__:
        homes = [m for m in SUBMODULES if name in importlib.import_module(f"acsalign.{m}").__all__]
        assert len(homes) == 1, name
        home = importlib.import_module(f"acsalign.{homes[0]}")
        assert getattr(acsalign, name) is getattr(home, name)


def test_dir_lists_every_export():
    assert set(acsalign.__all__) <= set(dir(acsalign))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from acsalign import *", namespace)
    for name in acsalign.__all__:
        assert namespace[name] is getattr(acsalign, name)


def test_unknown_attribute_names_module_and_attribute():
    with pytest.raises(AttributeError, match="'acsalign' has no attribute 'no_such_name'"):
        acsalign.no_such_name
