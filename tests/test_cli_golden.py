"""Recorded CLI bytes: stdout, stderr and exit code of fixed commands.

``cli_golden.json`` maps each command line to what ``plattersim`` printed
for it.  The scenario files are written into a fresh directory, which the
test changes into, so the commands and any path in an error message are
the same on every machine.  The main scenario has twelve requests, two of
them to one bad address and one to another, a write, and a direction hint,
so every scheduler's retry policy and MODSBSM's table show in the traces.
"""

import json
import shlex
from pathlib import Path

import pytest

from plattersim.cli import main

SCENARIOS = {
    "faulty.dss": """\
geometry platters=2 tracks=50 sectors=8
head 20t1p3s
direction look=up
request 30t2p5s
request 12t1p0s
request 8t1p1s
request 41t2p7s op=w
request 20t1p6s
request 30t2p5s
request 3t2p2s
request 27t1p4s
request 12t2p3s
request 45t1p1s
request 20t2p0s
request 33t1p2s
bad 30t2p5s bit=1
bad 8t1p1s bit=0
""",
    "small.dss": """\
geometry platters=2 tracks=40 sectors=8
head 10t1p0s
request 25t2p3s
request 4t1p6s
request 17t2p1s
request 33t1p2s
request 10t2p7s
request 29t1p5s
""",
}

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_prints_the_recorded_bytes(command, tmp_path, monkeypatch, capsys):
    for name, text in SCENARIOS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert {"stdout": captured.out, "stderr": captured.err, "code": code} == GOLDEN[command]
