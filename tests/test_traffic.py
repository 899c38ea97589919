"""Every byte of the benchmark traffic: the exit code, stdout and stderr of
each call of the three workloads in benchmarks/workloads.py, seeds 1-3,
run in process through cli.main and pinned by one SHA-256 per
(workload, seed).

A change that means to alter output re-records a digest only after a
cell-by-cell diff of the calls against the previous code; a change to
benchmarks/workloads.py re-records them all.
"""

import contextlib
import hashlib
import io
import json

import pytest
from test_scripts import _load

from tunnelclock.cli import main

workloads = _load("cell_diff")._workloads()

# The temporary directory, which potential-file rows and messages name.
DIR_TOKEN = "DIR"

TRAFFIC_SHA256 = {
    ("sweep-closedform", 1): "f888827b33ebddfeba4345d8483378b98586f2266d5c07f73ade3742a9200147",
    ("sweep-closedform", 2): "a52f508885ba668b466d5938e743ab12bc19e472860046f479212b10e4d6470b",
    ("sweep-closedform", 3): "7d8a9032042146f40343907db47e59739f3d03bf69f5104258315cb661a04341",
    ("stack-generic", 1): "6624a7da539f88d67b44a0f81e078c5758e44a0378273b10aad7d104f870c434",
    ("stack-generic", 2): "4a805aa9ac2b676acea43f7cc1aeefcb35144f19e67151be71eafc666ce42bae",
    ("stack-generic", 3): "a054a3130de738a1f0375df1f53f7e464d50a64b6a1012177e5ef15b9374e822",
    ("rotor-clocksim", 1): "f3436da6363c211fd61c0ec40e4df14e2c66a2a4fa0301dfb22c991279177ef2",
    ("rotor-clocksim", 2): "59fc16680a434c99990240886d3269aa583520db82c32b93453ea81060f52c3b",
    ("rotor-clocksim", 3): "df0a030a222cfdedd41f2b74848004df9db94031c69dffe4a35ad1b5481159dd",
}


def outcomes(tmp_path, workload, seed):
    """(exit code, stdout, stderr) of every call of one pass, with the
    temporary directory replaced by DIR_TOKEN."""
    directory = str(tmp_path / f"{workload}-{seed}")
    calls = workloads.write_inputs(workloads.make_inputs(workload, seed), directory)
    result = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(call.argv))
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code
        result.append((code, out.getvalue().replace(directory, DIR_TOKEN),
                       err.getvalue().replace(directory, DIR_TOKEN)))
    return result


def digest(result):
    sha = hashlib.sha256()
    for outcome in result:
        sha.update(json.dumps(outcome).encode("utf-8") + b"\n")
    return sha.hexdigest()


@pytest.mark.parametrize("workload, seed", list(TRAFFIC_SHA256))
def test_traffic_digest(tmp_path, workload, seed):
    assert digest(outcomes(tmp_path, workload, seed)) == TRAFFIC_SHA256[workload, seed]


def test_traffic_does_not_depend_on_earlier_calls(tmp_path):
    # rotor-clocksim is the workload that writes to stderr (coupling
    # warnings); a second pass in the same process gives the same bytes
    first = outcomes(tmp_path / "first", "rotor-clocksim", 1)
    assert any(err for _, _, err in first)
    assert outcomes(tmp_path / "second", "rotor-clocksim", 1) == first
