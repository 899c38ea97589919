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
    ("stack-generic", 1): "129a36dd18033dd22caeeff306d913bb9c976d5e686bf98f75153cd614bbdd9d",
    ("stack-generic", 2): "8be828b1fa03812025613f007a6aedab91d6bd586095244b3377d71a4716724d",
    ("stack-generic", 3): "66400e9acf29ec2a5d9ddcfa70e4d17dfa93c448ab2171c26e24aeaaea4a5f0e",
    ("rotor-clocksim", 1): "8efc91b910437d20468b4d24b665e75f56aa3d4c769bede303544c1cd7e3c60a",
    ("rotor-clocksim", 2): "a50179d340fc3f573dcdd7e35a3b53cccec1e480e39f9cfcf1bd86e1831c13b4",
    ("rotor-clocksim", 3): "2d1450278f6807d5b71d8131ae13a07dcd8b68da7ccb112cf2b6d614b258e8e7",
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
