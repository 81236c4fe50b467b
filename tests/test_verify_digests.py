"""`verify`, `demo-containment` and `bound` output stays byte for byte as recorded.

tests/verify_digests.json maps each command line to the sha256 of its stdout
and stderr and its exit code.  The cases cover every beamformed scheme on
random channel seeds 0, 3 and 11 and on the named special channels (the
2-receiver schemes reject those 3x3 channels with a usage error), plus the
containment demo on channel seeds 0-5, and the bound's rows for S = 1..12,
S = 20 and S = 1..31, each argmax profile listed in lexicographic order.  A
change to a condition's arithmetic, a phase's canonical form, the report
layout or the order in which the bound lists its maximizers fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from acsalign.cli import main

DIGESTS = json.loads((Path(__file__).with_name("verify_digests.json")).read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_the_recorded_digest(command, capsys):
    code = main(command.split())
    captured = capsys.readouterr()
    assert {"exit": code, "stdout_sha256": _sha256(captured.out),
            "stderr_sha256": _sha256(captured.err)} == DIGESTS[command]
