"""The package and the command line load numpy only when numerical code runs,
and the command line runs it with one BLAS thread; no subcommand loads the
process-pool modules, and only the bound loads the bound."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acsalign

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("bound", "channel", "rates", "schemes", "verify")
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def fresh_result(program: str, expression: str, **env_vars: str) -> str:
    """The printed `expression` after a fresh interpreter runs `program`.

    The interpreter's environment holds no BLAS thread setting besides
    `env_vars`: an in-process `main()` call may have left one in this one.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(BLAS_THREADS, None)
    env.update(env_vars)
    check = (f"\nimport os, sys\nassert acsalign.__file__.startswith({str(SRC)!r})"
             f"\nprint({expression})")
    proc = subprocess.run([sys.executable, "-c", program + check], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def numpy_loaded(program: str) -> bool:
    """Whether a fresh interpreter holds numpy after running `program`."""
    return fresh_result(program, "'numpy' in sys.modules") == "True"


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


POOL_MODULES = ("multiprocessing", "concurrent.futures", "concurrent.futures.process")


def pool_modules_loaded(program: str) -> str:
    """The list of process-pool modules a fresh interpreter holds after running `program`."""
    return fresh_result(program, f"[m for m in {POOL_MODULES!r} if m in sys.modules]")


@pytest.mark.parametrize("program", [
    "import acsalign",
    "import acsalign.cli",
    main_program("bound", "--s-max", "3"),
    main_program("--help"),
    main_program("sweep", "--scheme", "x-channel", "--trials", "1"),
    main_program("sweep", "--scheme", "x-channel", "--trials", "2", "--workers", "2"),
], ids=["import", "import-cli", "bound", "help", "serial-sweep", "sweep-pool"])
def test_pool_modules_stay_unloaded(program):
    assert pool_modules_loaded(program) == "[]"


BOUND_MODULES = ("acsalign.bound", "fractions")


def bound_modules_loaded(program: str) -> str:
    """The list of the bound's modules a fresh interpreter holds after running `program`."""
    return fresh_result(program, f"[m for m in {BOUND_MODULES!r} if m in sys.modules]")


@pytest.mark.parametrize("program", [
    "import acsalign.cli",
    main_program("sweep", "--scheme", "x-channel", "--trials", "1"),
], ids=["import-cli", "serial-sweep"])
def test_bound_modules_stay_unloaded(program):
    assert bound_modules_loaded(program) == "[]"


def test_bound_subcommand_loads_the_bound():
    assert bound_modules_loaded(main_program("bound", "--s-max", "3")) == repr(list(BOUND_MODULES))


VERIFY = main_program("verify", "--scheme", "x-channel")


def test_cli_sets_one_blas_thread():
    assert fresh_result(VERIFY, f"os.environ.get({BLAS_THREADS!r})") == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through Linux /proc")
def test_cli_process_ends_with_one_thread():
    assert fresh_result(VERIFY, "len(os.listdir('/proc/self/task'))") == "1"


def test_cli_keeps_a_preset_blas_thread_count():
    assert fresh_result(VERIFY, f"os.environ.get({BLAS_THREADS!r})", **{BLAS_THREADS: "3"}) == "3"


@pytest.mark.parametrize("program", ["import acsalign", "import acsalign.rates", "import acsalign.cli"])
def test_library_imports_leave_blas_threads_unset(program):
    assert fresh_result(program, f"os.environ.get({BLAS_THREADS!r})") == "None"


def test_exports_are_their_home_module_objects():
    for name in acsalign.__all__:
        homes = [m for m in SUBMODULES if name in importlib.import_module(f"acsalign.{m}").__all__]
        assert len(homes) == 1, name
        home = importlib.import_module(f"acsalign.{homes[0]}")
        assert getattr(acsalign, name) is getattr(home, name)


def test_classes_and_functions_are_listed_under_the_module_defining_them():
    # A module also holds the names it imports, so the identity check above
    # passes for a name listed under an importer; __module__ does not.
    for name in acsalign.__all__:
        obj = getattr(acsalign, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == f"acsalign.{acsalign._HOMES[name]}", name


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
