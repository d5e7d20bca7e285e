"""CLI wiring: artifact round-trips, exit codes, output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fptrace
from fptrace.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_gen_attack_decode_round_trip(workdir):
    gen_cfg = write_json(workdir / "gen.json",
                         {"params": {"n": 40, "num_users": 10, "k_nom": 2}})
    assert run("gen", "--config", gen_cfg, "--seed", 5, "--out", workdir) == 0
    for name in ("codebook.jsonl", "codebook_header.json", "codebook_key.json"):
        assert (workdir / name).exists()
    key = json.loads((workdir / "codebook_key.json").read_text())
    assert set(key) == {"seed", "host", "timeshare"}

    att_cfg = write_json(workdir / "att.json", {"coalition": [2, 7]})
    assert run("attack", "--config", att_cfg, "--seed", 5, "--out", workdir) == 0
    pirate = json.loads((workdir / "pirate.json").read_text())
    assert pirate["marking_ok"] is True
    assert len(pirate["y"]) == 40

    dec_cfg = write_json(workdir / "dec.json", {"decode": {"delta": 0.08}})
    assert run("decode", "--config", dec_cfg, "--out", workdir) == 0
    decoded = json.loads((workdir / "decode.json").read_text())
    assert decoded["mode"] == "threshold"
    assert set(decoded["guilt"]["per_user"]) == {str(m) for m in range(10)}
    for m in decoded["accused"]:
        assert decoded["guilt"]["per_user"][str(m)]["accused"] is True


def test_decode_reports_guilt_ordering(workdir):
    write_json(workdir / "gen.json", {"params": {"n": 60, "num_users": 8}})
    run("gen", "--config", workdir / "gen.json", "--seed", 1, "--out", workdir)
    write_json(workdir / "att.json", {"coalition": [0, 1]})
    run("attack", "--config", workdir / "att.json", "--seed", 1, "--out", workdir)
    write_json(workdir / "dec.json", {"decode": {"delta": 0.05}})
    run("decode", "--config", workdir / "dec.json", "--out", workdir)
    decoded = json.loads((workdir / "decode.json").read_text())
    accused = {str(m) for m in decoded["accused"]}
    for m, entry in decoded["guilt"]["per_user"].items():
        if m in accused:
            assert entry["index"] > 0


def test_simulate_writes_report_and_is_worker_invariant(workdir):
    cfg = write_json(workdir / "sim.json", {
        "params": {"n": 30, "num_users": 8},
        "decode": {"delta": 0.06},
        "coalition": 2,
        "trials": 200,
        "n_sweep": [24, 30],
    })
    out1, out8 = workdir / "w1", workdir / "w8"
    assert run("simulate", "--config", cfg, "--seed", 9, "--out", out1,
               "--workers", 1) == 0
    assert run("simulate", "--config", cfg, "--seed", 9, "--out", out8,
               "--workers", 8) == 0
    assert (out1 / "report.csv").read_bytes() == (out8 / "report.csv").read_bytes()
    rep = json.loads((out1 / "report.json").read_text())
    assert [p["n"] for p in rep["points"]] == [24, 30]
    for p in rep["points"]:
        assert p["miss_one_count"] <= p["miss_all_count"]


def test_simulate_csv_has_fixed_header_and_9_digit_floats(workdir):
    cfg = write_json(workdir / "sim.json", {
        "params": {"n": 24, "num_users": 6},
        "decode": {"delta": 0.05},
        "trials": 30,
    })
    run("simulate", "--config", cfg, "--seed", 3, "--out", workdir)
    lines = (workdir / "report.csv").read_text().splitlines()
    assert lines[0] == ("n,trials,fp_count,fp_rate,fp_lo,fp_hi,"
                       "miss_one_count,miss_one_rate,miss_one_lo,miss_one_hi,"
                       "miss_all_count,miss_all_rate,miss_all_lo,miss_all_hi,"
                       "resamples")
    for cell in lines[1].split(","):
        digits = cell.split("e")[0].replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) <= 9


def test_capacity_subcommand(workdir):
    cfg = write_json(workdir / "cap.json", {
        "problem": {"coalition_size": 2, "x_size": 2, "y_size": 2,
                    "channel_class": {"kind": "boneh_shaw_fair"},
                    "objective": "detect_one"},
        "restarts": 6,
        "grid_resolution": 8,
    })
    assert run("capacity", "--config", cfg, "--seed", 0, "--out", workdir) == 0
    sol = json.loads((workdir / "capacity.json").read_text())
    assert sol["value"] == pytest.approx(0.25, abs=1e-3)
    table = np.asarray(sol["worst_channel"]["table"])
    assert table.size == 8


# runs the CLI in a child held to a 2 GB address space
_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from fptrace.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_oversize_capacity_grid_is_refused_before_it_is_built(workdir):
    # (10^6 + 1)^3, about 10^18 grid laws: this ran without end
    cfg = write_json(workdir / "cap.json", {
        "problem": {"coalition_size": 2, "x_size": 2, "y_size": 2, "s_size": 3,
                    "channel_class": {"kind": "boneh_shaw_fair"}},
        "grid_resolution": 10**6,
    })
    src = str(Path(fptrace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "capacity", "--config", cfg, "--out", str(workdir)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 3, out.stderr
    assert out.stderr == (
        "budget exceeded: a capacity grid of resolution 1000000 would hold "
        "1000003000003000001 laws, over the cap of 100000\n"
    )
    assert not (workdir / "capacity.json").exists()


def test_exponent_sweep_subcommand(workdir):
    cfg = write_json(workdir / "exp.json", {
        "problem": {"coalition_size": 2, "x_size": 2, "y_size": 2,
                    "channel_class": {"kind": "boneh_shaw_fair"},
                    "objective": "detect_one"},
        "rates": [0.22, 0.24, 0.30],
        "restarts": 2,
    })
    assert run("exponent", "--config", cfg, "--seed", 0, "--out", workdir) == 0
    lines = (workdir / "exponent_sweep.csv").read_text().splitlines()
    assert lines[0] == "K,L,R,value,restarts,gap"
    values = [float(row.split(",")[3]) for row in lines[1:]]
    assert values == sorted(values, reverse=True)
    assert values[-1] == 0.0


def test_exponent_maxmin_subcommand(workdir):
    cfg = write_json(workdir / "exp.json", {
        "problem": {"coalition_size": 2, "x_size": 2, "y_size": 2,
                    "channel_class": {"kind": "boneh_shaw_fair"},
                    "objective": "detect_one"},
        "rate": 0.2,
        "restarts": 1,
    })
    assert run("exponent", "--config", cfg, "--seed", 0, "--out", workdir) == 0
    sol = json.loads((workdir / "exponent.json").read_text())
    # below the feasibility floor of the chosen law the program is empty and
    # the exponent is reported as inf (the miss event cannot occur at all)
    assert sol["value"] == "inf" or sol["value"] >= 0.0
    assert "p_w" in sol["input_law"]


def test_exit_code_2_on_config_errors(workdir):
    assert run("capacity", "--config", workdir / "missing.json",
               "--out", workdir) == 2
    bad = write_json(workdir / "bad.json", {
        "problem": {"coalition_size": 2, "x_size": 2, "y_size": 2,
                    "channel_class": {"kind": "nope"}},
    })
    assert run("capacity", "--config", bad, "--out", workdir) == 2
    nogen = write_json(workdir / "att.json", {"coalition": [0, 1]})
    assert run("attack", "--config", nogen, "--out", workdir) == 2


def test_exit_code_3_on_budget(workdir):
    write_json(workdir / "gen.json", {"params": {"n": 30, "num_users": 12}})
    run("gen", "--config", workdir / "gen.json", "--seed", 2, "--out", workdir)
    write_json(workdir / "att.json", {"coalition": [0, 3]})
    run("attack", "--config", workdir / "att.json", "--seed", 2, "--out", workdir)
    tight = write_json(workdir / "dec.json",
                       {"decode": {"delta": 0.05, "k_max": 3, "budget": 5},
                        "decoder": "mpmi"})
    assert run("decode", "--config", tight, "--out", workdir) == 3


def test_gen_requires_config(workdir):
    assert run("gen", "--out", workdir) == 2


def test_exit_code_2_on_infeasible_codebook(workdir, capsys):
    cfg = write_json(workdir / "gen.json", {"params": {
        "n": 16, "num_users": 4, "d1": [[0.0, 1.0]], "distortion_cap": 0.1}})
    assert run("gen", "--config", cfg, "--out", workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith("InfeasibleError: ") and err.count("\n") == 1


@pytest.mark.parametrize("name, bad", [
    ("rm_perm", [0] * 16), ("rm_perm", [2, 0, 1]), ("rm_perm", list(range(16))),
    ("rp_perm", [1, 0, 3, 2]), ("rp_perm", list(range(4))),
])
def test_exit_code_2_on_keyfile_with_bad_permutation(workdir, capsys, name, bad):
    # any permutation is refused, the identity too: no book carries one
    gen_cfg = write_json(workdir / "gen.json", {"params": {"n": 16, "num_users": 4}})
    assert run("gen", "--config", gen_cfg, "--seed", 3, "--out", workdir) == 0
    key_path = workdir / "codebook_key.json"
    key = json.loads(key_path.read_text())
    key[name] = bad
    key_path.write_text(json.dumps(key))
    capsys.readouterr()
    att_cfg = write_json(workdir / "att.json", {"coalition": [0, 1]})
    assert run("attack", "--config", att_cfg, "--out", workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err and err.count("\n") == 1


FAIR_K2 = {"coalition_size": 2, "x_size": 2, "y_size": 2,
           "channel_class": {"kind": "boneh_shaw_fair"}}
SIM = {"params": {"n": 24, "num_users": 6}, "decode": {"delta": 0.05}}


@pytest.mark.parametrize("command,payload", [
    ("exponent", {"problem": FAIR_K2, "rates": ["abc"]}),
    ("exponent", {"problem": dict(FAIR_K2, channel_class={})}),
    ("capacity", {"problem": dict(FAIR_K2, channel_class={})}),
    ("exponent", {"problem": FAIR_K2, "rates": [0.2], "restarts": "x"}),
    ("capacity", {"problem": FAIR_K2, "restarts": "x"}),
    ("capacity", {"problem": dict(FAIR_K2, coalition_size="x")}),
    ("capacity", {"problem": 5}),
    ("exponent", {"problem": FAIR_K2, "rates": [0.2], "input_law": {}}),
    ("simulate", dict(SIM, params=[1, 2])),
    ("simulate", dict(SIM, trials="many")),
    ("simulate", [1, 2]),
    # a coalition is a size or a list of distinct integer users, no coercion
    ("simulate", dict(SIM, coalition=[3, 3])),
    ("simulate", dict(SIM, coalition=[0, True])),
    ("simulate", dict(SIM, coalition=[0, 1.5])),
    ("simulate", dict(SIM, coalition=2.0)),
    ("simulate", dict(SIM, coalition=True)),
    ("attack", {"coalition": [3, 3]}),
    ("attack", {"coalition": [0, True]}),
    ("attack", {"coalition": [0, 1.5]}),
    ("attack", {"coalition": 2.0}),
    ("attack", {"coalition": True}),
])
def test_malformed_config_values_exit_2_with_one_line(workdir, capsys, command, payload):
    if command == "attack":  # with a book, so only the config can fail
        book = write_json(workdir / "gen.json", SIM)
        assert run("gen", "--config", book, "--out", workdir) == 0
        capsys.readouterr()
    cfg = write_json(workdir / "cfg.json", payload)
    assert run(command, "--config", cfg, "--out", workdir) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("decode,field", [
    ({"delta": 0.1, "k_max": 2.5}, "k_max"),
    ({"delta": float("nan")}, "delta"),
])
def test_bad_decode_values_exit_2_with_one_line(workdir, capsys, decode, field):
    write_json(workdir / "gen.json", {"params": {"n": 24, "num_users": 5}})
    assert run("gen", "--config", workdir / "gen.json", "--seed", 4, "--out", workdir) == 0
    write_json(workdir / "att.json", {"coalition": [0, 2]})
    assert run("attack", "--config", workdir / "att.json", "--seed", 4, "--out", workdir) == 0
    cfg = write_json(workdir / "dec.json", {"decode": decode, "decoder": "mpmi"})
    capsys.readouterr()
    assert run("decode", "--config", cfg, "--out", workdir) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} ") and err.count("\n") == 1
