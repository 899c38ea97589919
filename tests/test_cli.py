"""CLI behavior: CSV shape, determinism, NA/flag conventions, exit codes."""

import contextlib
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import warnings

import pytest

import tunnelclock
from tunnelclock import cli, rotor
from tunnelclock.cli import build_parser, load_potential_file, main
from tunnelclock.closedform import DoubleBarrierParams, times
from tunnelclock.errors import CouplingWarning, InvalidParameterError
from tunnelclock.potentials import UnitsConfig
from tunnelclock.rotor import ClockRotor

BARRIER_FILE = """\
# two unequal barriers
breakpoint 0.0
height 0.018
breakpoint 10.0
height 0.0
breakpoint 20.0
height 0.012
breakpoint 25.0
"""

FREE_FILE = """\
breakpoint 0.0
height 0.0
breakpoint 5.0
"""


def run_to_file(tmp_path, argv, name="out.csv"):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    return code, path.read_text(encoding="utf-8")


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def as_float(token):
    assert token != "NA"
    return float(token)


def test_times_double_barrier(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["times", "--E", "0.01", "--V0", "0.018", "--a", "10", "--d", "10"],
    )
    assert code == 0
    assert text.splitlines()[0].startswith("#")
    header, rows = parse_csv(text)
    assert header == [
        "E",
        "V0",
        "a",
        "d",
        "t_whole",
        "t_between",
        "t_barriers",
        "t_opaque",
        "trans_prob",
        "flag",
    ]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    reference = times(DoubleBarrierParams(V0=0.018, a=10.0, d=10.0, E=0.01))
    # 17 significant digits round-trip doubles exactly
    assert as_float(row["t_whole"]) == reference.t_whole
    assert as_float(row["t_between"]) == reference.t_between
    assert as_float(row["t_barriers"]) == reference.t_barriers
    assert as_float(row["t_opaque"]) == reference.t_opaque
    assert row["flag"] == "0"


def test_times_near_resonance_flagged(tmp_path):
    # d close to the resonance spacing ~10.32 at these parameters
    code, text = run_to_file(
        tmp_path,
        ["times", "--E", "0.01", "--V0", "0.018", "--a", "10", "--d", "10.32"],
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0][-1] == "1"


def test_times_negative_time_flagged(tmp_path):
    # wide barriers: the 50-digit t_between is 9.8e-26, the closed form
    # prints about -1.65e-15, and a negative dwell time is flagged
    code, text = run_to_file(
        tmp_path,
        ["times", "--E", "0.0167", "--V0", "0.029", "--a", "200", "--d", "15.9"],
    )
    assert code == 0
    header, rows = parse_csv(text)
    row = dict(zip(header, rows[0]))
    assert as_float(row["t_between"]) < 0.0
    assert row["flag"] == "1"


def test_times_rerun_byte_identical(tmp_path):
    argv = ["times", "--E", "0.01", "--V0", "0.018", "--a", "10", "--d", "10"]
    _, first = run_to_file(tmp_path, argv, "a.csv")
    _, second = run_to_file(tmp_path, argv, "b.csv")
    assert first == second


def test_times_missing_argument_exit_2(capsys):
    assert main(["times", "--E", "0.01", "--V0", "0.018", "--a", "10"]) == 2
    assert "--d" in capsys.readouterr().err
    # clock-sim's double-barrier mode, without --V0 and without --E
    for command, message in [
        ("clock-sim --N 21 --tau 25000 --E 0.01 --a 10 --d 10",
         "double-barrier mode needs --V0 (or use --potential)"),
        ("clock-sim --N 21 --tau 25000 --V0 0.018 --a 10 --d 10", "--E is required"),
    ]:
        assert main(command.split()) == 2
        assert capsys.readouterr() == ("", f"tunnelclock: {message}\n")


def test_times_out_of_regime_exit_2(capsys):
    code = main(
        ["times", "--E", "0.02", "--V0", "0.018", "--a", "10", "--d", "10"]
    )
    assert code == 2
    assert "tunneling regime" in capsys.readouterr().err


def test_times_generic_potential(tmp_path):
    pot_file = tmp_path / "pot.txt"
    pot_file.write_text(BARRIER_FILE, encoding="utf-8")
    code, text = run_to_file(
        tmp_path,
        [
            "times",
            "--potential",
            str(pot_file),
            "--E",
            "0.009",
            "--z1",
            "0",
            "--z2",
            "25",
        ],
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header == [
        "E",
        "z1",
        "z2",
        "t_transmitted",
        "t_reflected",
        "t_dwell",
        "trans_prob",
        "refl_prob",
        "flag",
    ]
    row = dict(zip(header, rows[0]))
    assert row["flag"] == "0"
    t_t = as_float(row["t_transmitted"])
    t_r = as_float(row["t_reflected"])
    t_d = as_float(row["t_dwell"])
    p_t = as_float(row["trans_prob"])
    p_r = as_float(row["refl_prob"])
    assert abs(p_t + p_r - 1.0) <= 1e-12
    assert abs(t_d - (p_t * t_t + p_r * t_r)) <= 1e-6 * t_d


def test_times_generic_free_potential_na_flag(tmp_path):
    # nothing reflects, so the reflected time is NA and the row is flagged
    pot_file = tmp_path / "free.txt"
    pot_file.write_text(FREE_FILE, encoding="utf-8")
    code, text = run_to_file(
        tmp_path,
        [
            "times",
            "--potential",
            str(pot_file),
            "--E",
            "0.5",
            "--z1",
            "0",
            "--z2",
            "5",
        ],
    )
    assert code == 0
    header, rows = parse_csv(text)
    row = dict(zip(header, rows[0]))
    assert row["t_reflected"] == "NA"
    assert row["flag"] == "1"
    assert as_float(row["t_transmitted"]) == pytest.approx(5.0, rel=1e-9)


# double_barrier(0.018, 10, 10) as a file: near E = 0.018 the sweep's
# small-wavenumber coefficients cancel, and the clock times no longer add
# up to the dwell time (decomposition residual 3.2e-6 at 1 - E/0.018 =
# 1e-10, 2.9e-4 at 1e-12 and 1.2e-2 at 1e-14)
EQUAL_BARRIERS_FILE = """\
breakpoint 0
height 0.018
breakpoint 10
height 0
breakpoint 20
height 0.018
breakpoint 30
"""


@pytest.mark.parametrize("below", [1e-12, 1e-14])
def test_times_generic_residual_flag(tmp_path, below):
    pot_file = tmp_path / "pot.txt"
    pot_file.write_text(EQUAL_BARRIERS_FILE, encoding="utf-8")
    energy = 0.018 * (1.0 - below)
    code, text = run_to_file(
        tmp_path,
        ["times", "--potential", str(pot_file), "--E", repr(energy), "--z1", "0", "--z2", "30"],
    )
    assert code == 0
    header, rows = parse_csv(text)
    row = dict(zip(header, rows[0]))
    # every cell is a number: the flag is the residual's
    assert "NA" not in row.values()
    assert row["flag"] == "1"


def test_clock_sim_residual_flag(tmp_path, monkeypatch):
    # so close to a height every shift within the margin rounds by 4.4e-4;
    # with that check silenced, the flag is the residual's
    monkeypatch.setattr(rotor, "_shift_rounding", lambda heights, shifts: 0.0)
    pot_file = tmp_path / "pot.txt"
    pot_file.write_text(EQUAL_BARRIERS_FILE, encoding="utf-8")
    energy = 0.018 * (1.0 - 1e-10)
    code, text = run_to_file(
        tmp_path,
        ["clock-sim", "--potential", str(pot_file), "--N", "21", "--tau", "1e14",
         "--halvings", "1", "--E", repr(energy)],
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert len(rows) == 2
    for row in rows:
        row = dict(zip(header, row))
        assert "NA" not in row.values()
        assert row["flag"] == "1"


@pytest.mark.parametrize("tau, flag", [("1e10", "0"), ("1e12", "1")])
def test_clock_sim_shift_rounding_flag(tmp_path, tau, flag):
    # the worst relative rounding of a level shift added to 0.018 is
    # 3.6e-8 at tau 1e10 and 3.8e-6 at 1e12, against the 1e-6 tolerance;
    # the row's numbers and residual pass at both
    code, text = run_to_file(
        tmp_path,
        ["clock-sim", "--N", "21", "--halvings", "0", "--E", "0.01", "--V0", "0.018",
         "--a", "10", "--d", "10", "--tau", tau],
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert len(rows) == 1 and "NA" not in rows[0]
    assert dict(zip(header, rows[0]))["flag"] == flag


def test_generic_mode_needs_region(capsys):
    code = main(["times", "--potential", "nope.txt", "--E", "0.5"])
    assert code == 2
    assert "z1" in capsys.readouterr().err


def test_potential_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "breakpoint 0.0\nheight 0.018\nwall 10.0\n", encoding="utf-8"
    )
    with pytest.raises(InvalidParameterError, match=":3:"):
        load_potential_file(str(bad))
    code = main(
        ["times", "--potential", str(bad), "--E", "0.01", "--z1", "0", "--z2", "1"]
    )
    assert code == 2
    assert ":3:" in capsys.readouterr().err

    bad.write_text("breakpoint 0.0\nheight x\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError, match="not a number"):
        load_potential_file(str(bad))

    bad.write_text("height 0.018\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError, match="expected a breakpoint"):
        load_potential_file(str(bad))

    bad.write_text("breakpoint 0.0\nheight 0.018\n", encoding="utf-8")
    with pytest.raises(InvalidParameterError, match="end with a breakpoint"):
        load_potential_file(str(bad))

    for text in ("", "# only a comment\n\n"):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidParameterError) as caught:
            load_potential_file(str(bad))
        assert str(caught.value) == f"{bad}: file must hold a breakpoint line"

    missing = tmp_path / "missing.txt"
    with pytest.raises(InvalidParameterError, match="cannot read"):
        load_potential_file(str(missing))


def test_potential_file_comments_and_blanks(tmp_path):
    pot_file = tmp_path / "pot.txt"
    pot_file.write_text(
        "# leading comment\n\nbreakpoint 0.0  # inline\nheight 0.018\n"
        "\nbreakpoint 10.0\n",
        encoding="utf-8",
    )
    pot = load_potential_file(str(pot_file))
    assert pot.breakpoints == (0.0, 10.0)
    assert pot.heights == (0.018,)


def test_potential_file_with_a_byte_order_mark(tmp_path):
    # the same data row as the file without the mark
    rows = []
    for name, mark in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
        pot_file = tmp_path / name
        pot_file.write_bytes(mark + BARRIER_FILE.encode())
        code, text = run_to_file(
            tmp_path,
            ["times", "--potential", str(pot_file), "--E", "0.01", "--z1", "0",
             "--z2", "10"],
        )
        assert code == 0
        rows.append(parse_csv(text))
    assert rows[0] == rows[1]


def test_sweep_two_points(tmp_path):
    code, text = run_to_file(
        tmp_path,
        [
            "sweep",
            "--axis",
            "d",
            "--start",
            "8",
            "--stop",
            "12",
            "--count",
            "2",
            "--E",
            "0.01",
            "--V0",
            "0.018",
            "--a",
            "10",
        ],
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header[:5] == ["swept", "E", "V0", "a", "d"]
    assert len(rows) == 2
    assert as_float(rows[0][0]) == 8.0
    assert as_float(rows[1][0]) == 12.0
    for row in rows:
        assert row[0] == row[4]  # swept axis mirrors the d column


def test_sweep_argument_validation(capsys):
    base = ["sweep", "--axis", "d", "--start", "8", "--stop", "12",
            "--count", "5", "--E", "0.01", "--V0", "0.018", "--a", "10"]
    assert main(base + ["--d", "9"]) == 2  # swept axis must stay free
    assert "swept axis" in capsys.readouterr().err
    assert main([a for a in base if a not in ("--a", "10")]) == 2
    assert "--a is required" in capsys.readouterr().err
    bad_count = list(base)
    bad_count[bad_count.index("5")] = "1"
    assert main(bad_count) == 2
    swapped = list(base)
    swapped[swapped.index("8")] = "12"
    swapped[swapped.index("12", swapped.index("--stop"))] = "8"
    assert main(swapped) == 2


def test_sweep_out_of_regime_rows_kept(tmp_path):
    code, text = run_to_file(
        tmp_path,
        [
            "sweep",
            "--axis",
            "E",
            "--start",
            "0.005",
            "--stop",
            "0.025",
            "--count",
            "5",
            "--V0",
            "0.018",
            "--a",
            "10",
            "--d",
            "10",
        ],
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 5
    in_regime = [r for r in rows if r[5] != "NA"]
    out_rows = [r for r in rows if r[5] == "NA"]
    assert len(in_regime) == 3  # E = 0.005, 0.01, 0.015
    assert len(out_rows) == 2  # E = 0.02, 0.025 above the barrier top
    for row in out_rows:
        assert row[-1] == "1"
        assert set(row[5:-1]) == {"NA"}


# SHA-256 of the full output of commands whose CSV must stay
# byte-identical across refactors of the row loop. The clock-sim digests
# and the --mass 1000 stack's were re-recorded after a cell-by-cell diff
# when the backward sweep came to take one exponential per region: their
# generic and rotor numbers moved in the last digits.
GOLDEN_SHA256 = [
    ("fig1 --panel a",
     "e79a8b558826da43641bea5eb1105d509c95da39808ce8b9ea585cb77ac0b3c5"),
    ("fig1 --panel b",
     "0dae1ddbfd6036275951f834ba9cf916230e8ae4e7d1a3c0191b9d71c0ff08ff"),
    ("sweep --axis d --start 1 --stop 100 --count 50 --E 0.01 --V0 0.018 --a 10",
     "dcd970b9f3030aad79e99d943e8fec14765d8da44e020ea2e4f13ad1df3eef94"),
    ("sweep --axis a --start 2 --stop 40 --count 30 --E 0.01 --V0 0.018 --d 10",
     "64fb1b2cddfa49d3e7e33ba26001c9d09f4de6b74e2a9a386cac1c02e05d8164"),
    ("sweep --axis E --start 0.001 --stop 0.025 --count 25 --V0 0.018 --a 10 --d 10",
     "50cbb26dddd5dcfdb5d98a4ea69f24d81b830d691a125bef95672f088a116318"),
    ("sweep --axis V0 --start 0.005 --stop 0.05 --count 40 --E 0.01 --a 10 --d 10"
     " --mass 2 --hbar 0.5",
     "2c98c36d75140fbc586226e279b2f1d88a42f10d216b3f7d8ddb8b3bfc3716d9"),
    ("times --E 0.01 --V0 0.018 --a 10 --d 10",
     "25d65b6791bf56003bc75b507e57d1814e315205bc0b72c6011535219d3fd986"),
    # "-5e-3" reads as the same float as "-0.005"
    ("sweep --axis E --start -5e-3 --stop 0.025 --count 31 --V0 0.018 --a 10 --d 10",
     "488304c668e908284773e2aa88592262bfd5f6007cfed1a3c1109a1850b296f5"),
    ("clock-sim --N 21 --tau 25000 --halvings 3 --E 0.01 --V0 0.018 --a 10 --d 10",
     "9b71b134b558172a00c2e173ed2c7e870ae86e260d85bb653cd49e441e0619ab"),
    # region edges strictly inside the support add breakpoints to the cuts
    ("clock-sim --N 201 --tau 40000 --halvings 2 --E 0.01 --V0 0.018 --a 10 --d 10"
     " --z1 4 --z2 27.5",
     "e94e56fd541529ffda14f30a58b51ccd714ec575377edc3e1d33ac422d979406"),
    # long grids and grids that span the float range, recorded with the
    # per-point scalar closed forms before they became one array pass, and
    # re-recorded after a cell-by-cell diff when trans_prob came to be
    # taken from alpha and beta; the E sweep's first six rows, whose times
    # underflowed to zero, then became NA. The fig1 grids' trans_prob moved
    # in the last bit when its square became a product, and the a sweep's
    # row at a = 1e-300, whose t_barriers is negative, came to be flagged
    ("fig1 --panel a --count 20000",
     "e03a10651953a06f8b0ac387dbee0cea0be6630f5dc425b0252abef3332fdbb1"),
    ("fig1 --panel b --count 20000 --mass 3 --hbar 0.37",
     "38cec599a96dde70d4418488cb1b1a35efedb6d7057653e295ff21790e1a7746"),
    ("sweep --axis a --start 1e-300 --stop 1e300 --count 9 --E 0.01 --V0 0.018 --d 10",
     "5bfa79ae01f4ea6179f1cb02aceba633a93321ead0420335cf80b6620834d5f5"),
    ("sweep --axis E --start 1e-320 --stop 1e-300 --count 7 --V0 0.018 --a 10 --d 10",
     "c69a40d84c4c44e8a03e89b0da588cb30da4cacec632d9f25afae70a35362300"),
    # recorded with one scalar sweep per level before the levels became a
    # lane batch: every lane plain, and an opaque stack where 362 of row
    # 0's 401 levels rescale
    ("clock-sim --N 401 --tau 4000 --halvings 3 --E 0.01 --V0 0.018 --a 10 --d 10",
     "a367f620809500780d551d157112f710afd9068bbfe28b5a11320bb441b920d9"),
    # t_perturbative is NA, so every row is flagged
    ("clock-sim --N 401 --tau 4000 --halvings 3 --E 0.01 --V0 0.018 --a 1150 --d 10",
     "b5c52b80f8e768058953060d519d7eba5b93c9170aaab1a18c8c42e810ef90be"),
    # recorded with chi from a second solve of the mirrored potential:
    # q * width = 1000, so the sweeps of psi and chi both fold, and the
    # clock region straddles the barrier
    ("times --potential wide.txt --E 0.5 --z1 -2.5 --z2 1002.5",
     "0c589cda250b5af413f92c80418e4941b7255723f1149b0433cd2d8a9e27eb32"),
    # the 240-region stack of _stack_text, opaque enough at mass 1000 that
    # both sweeps rescale; the clock region sticks out on both sides
    ("times --potential stack.txt --E 0.012 --z1 -3.5 --z2 261.5 --mass 1000",
     "f990ad1b27a5eb927d8c2417c240b5a4bccf07f0a61308f835f126ca098f0432"),
]


@pytest.mark.parametrize("command, digest", GOLDEN_SHA256)
def test_golden_output(tmp_path, monkeypatch, command, digest):
    # the output names the potential file, so run from its directory
    (tmp_path / "wide.txt").write_text(WIDE_BARRIER_FILE, encoding="utf-8")
    (tmp_path / "stack.txt").write_text(_stack_text(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, text = run_to_file(tmp_path, command.split())
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_sweep_blocks_leave_the_rows_unchanged(tmp_path, monkeypatch):
    # out-of-regime NA rows on both sides of block edges
    argv = ("sweep --axis E --start -0.005 --stop 0.03 --count 25"
            " --V0 0.018 --a 10 --d 10").split()
    whole = run_to_file(tmp_path, argv)
    monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", 4)
    assert run_to_file(tmp_path, argv) == whole


def test_sweep_writes_each_block_before_it_builds_the_next(monkeypatch):
    argv = "sweep --axis d --start 1 --stop 100 --count 10 --E 0.01 --V0 0.018 --a 10".split()
    monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", 4)
    out = io.StringIO()
    written = []
    build = cli._double_barrier_rows

    def recording(*args):
        written.append(out.getvalue().count("\n"))
        return build(*args)

    monkeypatch.setattr(cli, "_double_barrier_rows", recording)
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    # four head lines, then blocks of 4, 4 and 2 rows
    assert written == [4, 8, 12]
    assert out.getvalue().count("\n") == 14


@pytest.mark.parametrize("command", [
    "times --E 0.01 --V0 0.018 --a 10 --d 10",
    "sweep --axis E --start -0.005 --stop 0.03 --count 7 --V0 0.018 --a 10 --d 10",
    "fig1 --panel b --count 5",
    "clock-sim --N 5 --tau 1e5 --halvings 1 --E 0.01 --V0 0.018 --a 10 --d 10",
    "check --count 5 --seed 2",
])
def test_commands_return_the_blocks_main_writes(capsys, command):
    args = build_parser().parse_args(command.split())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        blocks, code = args.func(args, UnitsConfig(mass=args.mass, hbar=args.hbar))
        text = "".join("\n".join(block) + "\n" for block in blocks)
    assert out.getvalue() == ""
    assert main(command.split()) == code == 0
    assert capsys.readouterr() == (text, "")


def test_golden_clock_sim_potential_file(tmp_path, monkeypatch):
    # the output names the potential file, so run from its directory;
    # re-recorded like the clock-sim goldens of GOLDEN_SHA256
    (tmp_path / "pot.txt").write_text(BARRIER_FILE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, text = run_to_file(
        tmp_path,
        "clock-sim --N 51 --tau 60000 --halvings 2 --E 0.009 --potential pot.txt"
        " --z1 2 --z2 22".split(),
    )
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "2ccced1011ec1893d534a43df127c25d3d17423876e8688185674e2613321c38"
    )


def _stack_text(n_regions=240, seed=8):
    """A seeded stack of barriers, free gaps and wells on [0, ~259], as
    potential file text; every float is written by repr, so it reads back
    bit for bit."""
    rng = random.Random(seed)
    z = 0.0
    lines = [f"breakpoint {z!r}"]
    for _ in range(n_regions):
        u = rng.random()
        if u < 0.5:
            height = rng.uniform(0.004, 0.03)
        elif u < 0.75:
            height = 0.0
        else:
            height = -rng.uniform(0.002, 0.02)
        z += rng.uniform(0.25, 2.0)
        lines += [f"height {height!r}", f"breakpoint {z!r}"]
    return "\n".join(lines) + "\n"


# Generic-stack runs on the 240-region stack of _stack_text, whose
# support is [0, 259.20411992335545]; re-recorded like the clock-sim
# goldens above when the sweep came to take one exponential per region.
GOLDEN_STACK_SHA256 = [
    # clock region sticking out past both support edges
    ("--E 0.012 --z1 -3.5 --z2 261.5",
     "8018e0f577b72f2839894bdea3aa838c282b662ee4c221fd6f1b24a838b9b8d7"),
    ("--E 0.045 --z1 -3.5 --z2 261.5",
     "e9180334abdc2f0bcb6c7dc9f9cb5a35492e1a4a628c6fc859cb98bd2951b970"),
    # both edges exactly on breakpoints 37 and 181
    ("--E 0.012 --z1 35.153726279049195 --z2 193.2872441068721",
     "3184dd14ecea3014354f216336a27934e3eaec0340de1c0f602e2b2cb7f6daf1"),
    # wholly left of the support, and ending on its left edge
    ("--E 0.012 --z1 -10 --z2 -2",
     "91cc218c78179531221792f2fa23fd41a84f4278d707ed0217b5fe8a867bdbd1"),
    ("--E 0.045 --z1 -10 --z2 0.0",
     "25ef3ed593b3241ab500534e6d67adb72eb1765a29bcf3e0d2b8d0d9ce65b2ff"),
]


@pytest.mark.parametrize("flags, digest", GOLDEN_STACK_SHA256)
def test_golden_generic_stack(tmp_path, monkeypatch, flags, digest):
    # the output names the potential file, so run from its directory
    (tmp_path / "stack.txt").write_text(_stack_text(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, text = run_to_file(
        tmp_path, ["times", "--potential", "stack.txt", *flags.split()]
    )
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_golden_check(tmp_path):
    # only max_residual and max_unitarity_defect moved, in their last
    # digits, when the sweep came to take one exponential per region
    code, text = run_to_file(tmp_path, "check --count 50 --seed 7".split())
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "2acff1d5eb955ec377c2691cde434b4366fb0f1cc780d5836ee981283abad2aa"
    )


def test_negative_exponent_float_parses(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["sweep", "--axis", "E", "--start", "-5e-05", "--stop", "0.01",
         "--count", "3", "--V0", "0.018", "--a", "10", "--d", "10"],
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert as_float(rows[0][0]) == -5e-05
    assert set(rows[0][5:-1]) == {"NA"} and rows[0][-1] == "1"
    assert rows[1][-1] == "0"


def test_negative_capital_exponent_parses(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["sweep", "--axis", "d", "--start", "-1E+3", "--stop", "10",
         "--count", "2", "--E", "0.01", "--V0", "0.018", "--a", "10"],
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert as_float(rows[0][0]) == -1000.0


def test_option_like_value_still_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--axis", "E", "--start", "-x", "--stop", "0.01",
              "--count", "3", "--V0", "0.018", "--a", "10", "--d", "10"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_fig1_rows_satisfy_sum_identity(tmp_path):
    code, text = run_to_file(tmp_path, ["fig1", "--panel", "a", "--count", "40"])
    assert code == 0
    header, rows = parse_csv(text)
    assert len(rows) == 40
    idx = {name: i for i, name in enumerate(header)}
    for row in rows:
        if row[idx["flag"]] == "1":
            continue
        whole = as_float(row[idx["t_whole"]])
        parts = as_float(row[idx["t_between"]]) + as_float(
            row[idx["t_barriers"]]
        )
        assert abs(whole - parts) <= 1e-12 * abs(whole)


def test_fig1_panel_comparison(tmp_path):
    _, text_a = run_to_file(tmp_path, ["fig1", "--panel", "a"], "a.csv")
    _, text_b = run_to_file(tmp_path, ["fig1", "--panel", "b"], "b.csv")
    header, rows_a = parse_csv(text_a)
    _, rows_b = parse_csv(text_b)
    assert len(rows_a) == len(rows_b) == 200
    idx = {name: i for i, name in enumerate(header)}

    unflagged_a = [r for r in rows_a if r[idx["flag"]] == "0"]
    first, last = unflagged_a[0], unflagged_a[-1]
    assert as_float(last[idx["d"]]) > 75.0
    assert as_float(last[idx["t_between"]]) > as_float(
        first[idx["t_between"]]
    )

    # wider barriers suppress the between-gap time wherever neither row
    # sits on a resonance peak
    for row_a, row_b in zip(rows_a, rows_b):
        if row_a[idx["flag"]] == "1" or row_b[idx["flag"]] == "1":
            continue
        assert as_float(row_b[idx["t_between"]]) < as_float(
            row_a[idx["t_between"]]
        )


@pytest.mark.filterwarnings("ignore::tunnelclock.errors.CouplingWarning")
def test_clock_sim_rows_and_na(tmp_path):
    code, text = run_to_file(
        tmp_path,
        [
            "clock-sim",
            "--N",
            "21",
            "--tau",
            "300",
            "--halvings",
            "2",
            "--E",
            "0.01",
            "--V0",
            "0.018",
            "--a",
            "10",
            "--d",
            "10",
        ],
    )
    assert code == 0
    header, rows = parse_csv(text)
    assert header == [
        "omega",
        "tau",
        "t_read",
        "spread",
        "t_perturbative",
        "trans_weight",
        "flag",
    ]
    assert len(rows) == 3
    # tau = 300 pushes the largest level shift past the energy margin
    assert rows[0][2] == "NA" and rows[0][-1] == "1"
    reference = as_float(rows[0][4])
    assert reference == pytest.approx(1043.8196903428586, rel=1e-9)
    for row in rows[1:]:
        assert row[-1] == "0"
        assert as_float(row[4]) == reference
        assert as_float(row[2]) > 0
    assert as_float(rows[2][1]) == 1200.0
    assert as_float(rows[2][0]) == pytest.approx(
        math.tau / (21 * 1200.0), rel=1e-15
    )


def test_clock_sim_rows_without_a_perturbative_time_are_flagged(tmp_path):
    # |T|^2 underflows at a = 1150, so t_perturbative is NA on every row
    code, text = run_to_file(
        tmp_path,
        "clock-sim --N 21 --tau 4000 --halvings 1 --E 0.01 --V0 0.018 --a 1150 --d 10".split(),
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 2
    for row in rows:
        assert row[4] == "NA" and row[-1] == "1"
        assert as_float(row[2]) > 0


def test_clock_sim_potential_file_region_defaults(tmp_path):
    pot_file = tmp_path / "pot.txt"
    pot_file.write_text(BARRIER_FILE, encoding="utf-8")
    code, text = run_to_file(
        tmp_path,
        [
            "clock-sim",
            "--N",
            "21",
            "--tau",
            "40000",
            "--halvings",
            "0",
            "--E",
            "0.009",
            "--potential",
            str(pot_file),
        ],
    )
    assert code == 0
    assert "z1=0 z2=25" in text
    _, rows = parse_csv(text)
    assert len(rows) == 1
    assert rows[0][-1] == "0"


def test_clock_sim_reads_past_a_reflected_density_with_no_mean(tmp_path):
    # with N = 3 the reflected density of a free region is uniform; the
    # rows print only the transmitted reading, so they read
    pot_file = tmp_path / "free.txt"
    pot_file.write_text("breakpoint 0\nheight 0\nbreakpoint 10\n", encoding="utf-8")
    argv = f"clock-sim --potential {pot_file} --E 0.01 --N 3 --tau 1e6 --halvings 2"
    code, text = run_to_file(tmp_path, argv.split())
    assert code == 0
    header, rows = parse_csv(text)
    assert [row[-1] for row in rows] == ["0", "0", "0"]
    for row in rows:
        row = dict(zip(header, row))
        assert as_float(row["t_read"]) == pytest.approx(as_float(row["t_perturbative"]),
                                                        rel=1e-9)


def test_clock_sim_potential_without_regions_needs_the_clock_region(tmp_path, capsys):
    # one breakpoint gives support (0, 0), which cannot be a default region
    pot_file = tmp_path / "point.txt"
    pot_file.write_text("breakpoint 0\n", encoding="utf-8")
    argv = f"clock-sim --potential {pot_file} --E 0.01 --N 5 --tau 1e6 --halvings 0".split()
    for flags in ([], ["--z1", "0"], ["--z2", "5"]):
        assert main(argv + flags) == 2
        assert capsys.readouterr() == (
            "", f"tunnelclock: {pot_file}: file holds no region; give --z1 and --z2\n")
    code, text = run_to_file(tmp_path, argv + ["--z1", "0", "--z2", "5"])
    assert code == 0
    _, rows = parse_csv(text)
    assert as_float(rows[0][2]) == pytest.approx(as_float(rows[0][4]), rel=1e-8)


WIDE_BARRIER_FILE = """\
breakpoint 0.0
height 1.0
breakpoint 1000.0
"""


def test_times_barrier_beyond_float_range(tmp_path):
    # q * width = 1000 at E = 0.5: T underflows, so its time is NA
    pot_file = tmp_path / "wide.txt"
    pot_file.write_text(WIDE_BARRIER_FILE, encoding="utf-8")
    code, text = run_to_file(
        tmp_path,
        ["times", "--potential", str(pot_file), "--E", "0.5",
         "--z1", "0", "--z2", "1000"],
    )
    assert code == 0
    header, rows = parse_csv(text)
    row = dict(zip(header, rows[0]))
    assert row["t_transmitted"] == "NA" and row["flag"] == "1"
    assert as_float(row["t_dwell"]) == pytest.approx(1.0, rel=1e-12)


def test_clock_sim_barrier_beyond_float_range(tmp_path, capsys):
    pot_file = tmp_path / "wide.txt"
    pot_file.write_text(WIDE_BARRIER_FILE, encoding="utf-8")
    code = main(["clock-sim", "--N", "21", "--tau", "100", "--halvings", "1",
                 "--E", "0.5", "--potential", str(pot_file)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("tunnelclock:") and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::tunnelclock.errors.CouplingWarning")
def test_clock_sim_shift_onto_the_energy_is_flagged(tmp_path):
    # N = 3: the top level would lift the floor exactly onto E = 0.5, which
    # the coupling bound now rejects before any level is scattered
    tau = math.tau / 0.75
    floor = 0.5 - ClockRotor(3, tau).omega
    pot_file = tmp_path / "floor.txt"
    pot_file.write_text(
        f"breakpoint 0\nheight {floor!r}\nbreakpoint 1\n", encoding="utf-8"
    )
    code, text = run_to_file(
        tmp_path,
        ["clock-sim", "--N", "3", "--tau", repr(tau), "--halvings", "1",
         "--E", "0.5", "--potential", str(pot_file)],
    )
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0][2] == "NA" and rows[0][-1] == "1"
    assert rows[1][-1] == "0"


INFINITE_KAPPA_FILE = """\
breakpoint 0.0
height 1.7976931348623157e308
breakpoint 1.0
"""


@pytest.mark.parametrize("command", [
    "times --potential {pot} --E 1e300 --z1 0 --z2 1",
    "clock-sim --N 3 --tau 1 --halvings 1 --E 1e300 --potential {pot}",
])
def test_infinite_local_wavenumber_exits_2(tmp_path, capsys, command):
    # 2m(V - E) overflows: the region's wavenumber is rejected instead of
    # giving T = R = nan (an all-NA row, or a reading row with flag 0)
    pot_file = tmp_path / "inf.txt"
    pot_file.write_text(INFINITE_KAPPA_FILE, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(command.format(pot=pot_file).split())
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("tunnelclock:") and "beyond the float range" in err


# Extreme values that used to end in a raw Python exception (a negative
# --halvings in a CSV without rows).
FLOAT_RANGE_EDGES = [
    ("check --count 0", 2),
    ("clock-sim --N 5 --tau 1.7976931348623157e308 --halvings 1"
     " --E 0.01 --V0 0.018 --a 10 --d 10", 2),
    ("times --E 0.01 --V0 1e300 --a 10 --d 10", 2),
    ("sweep --axis V0 --start 0.001 --stop 1e300 --count 5"
     " --E 0.01 --a 10 --d 10", 0),
    ("times --E 5e-324 --V0 0.018 --a 10 --d 10", 2),
    ("times --potential {pot} --z1 0 --z2 25 --E 1.7976931348623157e308", 2),
    ("clock-sim --N 21 --tau 100 --E 1.7976931348623157e308"
     " --potential {pot}", 2),
    # a local wavenumber underflows to zero
    ("times --potential {pot} --z1 0 --z2 25 --E 0.009 --mass 5e-324", 2),
    # k overflows inside the closed forms
    ("times --E 0.01 --V0 0.018 --a 10 --d 10 --mass 1.7976931348623157e308", 2),
    ("fig1 --panel a --count -2", 2),
    ("clock-sim --N 3 --tau 1 --halvings -1 --E 0.01 --V0 0.018 --a 10 --d 10", 2),
    # 2.0**1024 overflowed; doubling tau reaches these rows exactly
    ("clock-sim --N 3 --tau 1e-300 --halvings 1100"
     " --E 0.01 --V0 0.018 --a 10 --d 10", 0),
    # k*z overflows in the density integral, and in the overlap integrals
    ("times --potential {pot} --E 0.009 --z1 0 --z2 1e300 --hbar 1e-10", 2),
    ("times --potential {pot} --E 0.009 --z1 -1e300 --z2 5 --hbar 1e-10", 2),
    # clock times that leave the float range used to print inf
    ("times --potential {pot} --E 0.009 --z1 0 --z2 1.7976931348623157e308", 2),
    ("clock-sim --N 5 --tau 100000 --halvings 1 --E 0.009 --potential {pot}"
     " --z1 -1.7976931348623157e308", 2),
    # grids and rotors that are not finite used to print inf or NA cells
    ("sweep --axis d --start 1 --stop inf --count 5 --E 0.01 --V0 0.018 --a 10", 2),
    ("sweep --axis d --start -1.7e308 --stop 1.7e308 --count 5"
     " --E 0.01 --V0 0.018 --a 10", 2),
    ("sweep --axis d --start 1 --stop 100 --count 5 --E 0.01 --V0 0.018 --a inf", 2),
    ("sweep --axis E --start 0.001 --stop 0.02 --count 5 --V0 0.018 --a 10 --d nan", 2),
    ("clock-sim --N 21 --tau 5e-324 --halvings 1 --E 0.01 --V0 0.018 --a 10 --d 10", 2),
]


@pytest.mark.filterwarnings("ignore::tunnelclock.errors.CouplingWarning")
@pytest.mark.parametrize("command, expected", FLOAT_RANGE_EDGES)
def test_float_range_edges_end_cleanly(tmp_path, capsys, command, expected):
    pot_file = tmp_path / "pot.txt"
    pot_file.write_text(BARRIER_FILE, encoding="utf-8")
    code = main(command.format(pot=pot_file).split())
    out, err = capsys.readouterr()
    assert code == expected
    assert "Traceback" not in err
    if code == 0:
        _, rows = parse_csv(out)
        assert all(row[-1] == "1" for row in rows if "NA" in row)
        assert any(set(row[5:-1]) == {"NA"} for row in rows)
    else:
        assert err.startswith("tunnelclock:") and out == ""


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    pot_file = tmp_path / "pot.txt"
    pot_file.write_text(BARRIER_FILE, encoding="utf-8")
    generic = ["times", "--potential", str(pot_file), "--E", "0.009",
               "--z1", "0", "--z2", "25"]
    no_levels = ["clock-sim", "--tau", "100", "--E", "0.01", "--V0", "0.018",
                 "--a", "10", "--d", "10"]
    double = ["times", "--E", "0.01", "--V0", "0.018", "--a", "10", "--d", "10"]
    calls = [generic, no_levels, double, generic]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert fresh[1][0] == 2 and "--N" in fresh[1][2]

    builds = []

    def counting_build():
        builds.append(None)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    assert [outcome(argv) for argv in calls] == fresh
    assert cli._parser().parse_args(double).potential is None
    assert len(builds) == 1

    assert build_parser() is not build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()
    assert len(builds) == 1


def test_check_pass(capsys):
    code = main(["check", "--count", "25", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("PASS\n")
    residual_line = [l for l in out.splitlines() if l.startswith("max_residual")]
    assert len(residual_line) == 1
    assert float(residual_line[0].split("=")[1]) <= 1e-6


def test_check_deterministic(capsys):
    main(["check", "--count", "10", "--seed", "7"])
    first = capsys.readouterr().out
    main(["check", "--count", "10", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_help_documents_potential_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["times", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "breakpoint <z>" in out
    assert "strictly increasing" in out


def test_units_flags_recorded(tmp_path):
    code, text = run_to_file(
        tmp_path,
        [
            "times",
            "--E",
            "0.01",
            "--V0",
            "0.018",
            "--a",
            "10",
            "--d",
            "10",
            "--mass",
            "2",
            "--hbar",
            "3",
        ],
    )
    assert code == 0
    assert "# units: mass=2 hbar=3" in text


def module_env():
    """The environment of a child that imports the same package as this
    process."""
    package_root = os.path.dirname(os.path.dirname(tunnelclock.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_module(*args, stdout=subprocess.PIPE):
    """python <args> in a child that imports the same package as this
    process, with its stdout captured or sent to stdout."""
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=module_env())


def test_module_entry_point():
    result = run_module(
        "-m", "tunnelclock", "times", "--E", "0.01", "--V0", "0.018", "--a", "10", "--d", "10"
    )
    assert result.returncode == 0
    assert "t_whole" in result.stdout


# both rows of this series lie in the coupling warning band
WARNING_ARGV = ("clock-sim --N 21 --tau 1000 --halvings 1"
                " --E 0.01 --V0 0.018 --a 10 --d 10").split()


def test_clock_sim_prints_coupling_warnings_as_tunnelclock_lines():
    # each warning is one stderr line, whatever line of the code raised it
    result = run_module("-m", "tunnelclock", *WARNING_ARGV)
    assert result.returncode == 0
    lines = result.stderr.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("tunnelclock: warning: largest level shift ")
               for line in lines)


def test_coupling_warnings_turned_into_errors_end_cleanly(capsys):
    # the first warning, raised as an error, ends the call like
    # CouplingTooStrongError: one tunnelclock line and exit 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", CouplingWarning)
        assert main(WARNING_ARGV) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tunnelclock: largest level shift ")
    assert captured.err.count("\n") == 1
    result = run_module("-W", "error", "-m", "tunnelclock", *WARNING_ARGV)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", captured.err)


@pytest.mark.parametrize("command", [
    "sweep --axis d --start 1 --stop 2 --count 1000000000000 --E 0.01 --V0 0.018 --a 10",
    "fig1 --panel a --count 1000000000000",
])
def test_a_grid_that_cannot_be_allocated_ends_cleanly(monkeypatch, capsys, command):
    # the grid's allocation fails without asking for the memory
    import numpy

    def linspace(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(numpy, "linspace", linspace)
    assert main(command.split()) == 1
    assert capsys.readouterr().err == (
        "tunnelclock: out of memory: Unable to allocate 7.28 TiB for an array\n")


def test_clock_sim_passes_other_warnings_through(monkeypatch, capsys):
    series = rotor.measurement_series

    def warning_series(*args):
        warnings.warn("coupling", CouplingWarning)
        warnings.warn("other", UserWarning)
        return series(*args)

    monkeypatch.setattr(rotor, "measurement_series", warning_series)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main("clock-sim --N 5 --tau 1e5 --E 0.01 --V0 0.018 --a 10 --d 10".split())
    assert code == 0
    assert capsys.readouterr().err == "tunnelclock: warning: coupling\n"
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, "other")]


def test_potential_file_value_errors_name_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    cases = [
        ("breakpoint 0\nheight nan\nbreakpoint 1\n",
         ":2: breakpoints and heights must be finite"),
        ("breakpoint 0\nheight 1\n\nbreakpoint 1e999\n",
         ":4: breakpoints and heights must be finite"),
        ("breakpoint 0\nheight 1\nbreakpoint 2\nheight 0\nbreakpoint 2\n",
         ":5: breakpoints must be strictly increasing"),
    ]
    for text, message in cases:
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidParameterError) as caught:
            load_potential_file(str(bad))
        assert str(caught.value) == f"{bad}{message}"
        argv = ["times", "--potential", str(bad), "--E", "0.01", "--z1", "0", "--z2", "1"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"tunnelclock: {bad}{message}\n")


TIMES_ARGV = ("-m", "tunnelclock", "times", "--E", "0.01", "--V0", "0.018",
              "--a", "10", "--d", "10")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_ends_with_one_line():
    full = "tunnelclock: cannot write output: [Errno 28] No space left on device\n"
    result = run_module(*TIMES_ARGV, "--out", "/dev/full")
    assert (result.returncode, result.stdout, result.stderr) == (1, "", full)
    # the final flush of stdout fails too
    with open("/dev/full", "w") as device:
        result = run_module(*TIMES_ARGV, stdout=device)
    assert (result.returncode, result.stderr) == (1, full)


def test_a_closed_pipe_on_stdout_ends_quietly():
    # the sweep's rows fill the pipe long before it ends
    argv = ["-m", "tunnelclock", "sweep", "--axis", "d", "--start", "1", "--stop", "100",
            "--count", "5000", "--E", "0.01", "--V0", "0.018", "--a", "10"]
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=module_env()) as child:
        assert child.stdout.read(100).startswith(b"# tunnelclock sweep")
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=120) == 1
