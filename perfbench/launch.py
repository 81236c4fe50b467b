"""Start the acsalign CLI from the checkout's sources and measure one process.

The CLI runs as the installed `acsalign` console script would: a fresh
interpreter calling `acsalign.cli.main()`, with the checkout's `src/` as the
only place acsalign can be imported from.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass

CLI_PROGRAM = "import sys; from acsalign.cli import main; sys.exit(main())"
IMPORT_PROGRAM = "import acsalign.cli"


def source_dir(root: str) -> str:
    """The checkout's `src/` directory; exits if it holds no acsalign package."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "acsalign", "cli.py")):
        sys.exit(f"error: no acsalign sources under {src}; run from the root of a checkout")
    return src


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("ACSALIGN_OUT_DIR", None)
    return env


@dataclass(frozen=True)
class Usage:
    """One finished process: exit code, wall seconds from launch to exit,
    user+system CPU seconds and peak resident set in MB.  CPU and memory
    include the worker processes the command waited for."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run(argv: list[str], env: dict, cwd: str, stdout_path: str, stderr_path: str) -> Usage:
    """Run `argv` to completion with its output in files and return its usage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; it covers the process and its reaped children.
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_PROGRAM] + args


def import_argv() -> list[str]:
    return [sys.executable, "-c", IMPORT_PROGRAM + "; print(acsalign.cli.__file__)"]
