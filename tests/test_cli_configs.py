"""Malformed config values end in exit 2 or 3 with one stderr line.

One explicit test per value that once escaped as a traceback, then a
property test: any single value of a valid config, for every subcommand,
replaced by a value of the wrong kind or range, exits 0, 2 or 3, and a
failing run prints exactly one stderr line and no traceback.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fptrace.cli import main

FAIR_K2 = {"coalition_size": 2, "x_size": 2, "y_size": 2,
           "channel_class": {"kind": "boneh_shaw_fair"}}
MARKING_CHANNEL = {"k": 2, "x_size": 2, "y_size": 2, "class": "boneh_shaw",
                   "shape": [2, 2, 2], "table": [1.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.0, 1.0]}

# one valid, fast config per subcommand (several for the richer ones)
VALID = {
    "gen": [
        {"params": {"n": 16, "num_users": 4, "s_size": 1, "x_size": 2, "w_size": 1,
                    "k_nom": 2}, "seed": 1},
        {"params": {"n": 16, "num_users": 4, "s_size": 2, "p_host": [0.5, 0.5],
                    "d1": [[0, 1], [1, 0]], "distortion_cap": 0.6,
                    "target_x_given_sw": [[[0.5, 0.5]], [[0.5, 0.5]]]}},
        {"params": {"n": 16, "num_users": 4, "s_size": 1, "x_size": 2, "w_size": 2,
                    "p_host": [1.0], "target_w_type": [8, 8],
                    "target_x_given_sw": [0.5, 0.5, 0.25, 0.75]}},
    ],
    "attack": [
        {"coalition": [0, 1], "seed": 1},
        {"coalition": [0, 1], "attack": MARKING_CHANNEL},
    ],
    "decode": [{"decode": {"delta": 0.05, "k_max": 2}, "decoder": "mpmi"}],
    "simulate": [{"params": {"n": 16, "num_users": 4}, "decode": {"delta": 0.05},
                  "trials": 2, "coalition": 2}],
    "capacity": [
        {"problem": FAIR_K2, "restarts": 1, "grid_resolution": 2},
        {"problem": dict(FAIR_K2, channel_class={
            "kind": "hull", "shape": [2, 2, 2],
            "vertices": [[1.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.0, 1.0],
                         [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0]]}),
         "restarts": 1, "grid_resolution": 2},
        {"problem": dict(FAIR_K2, d1=[[0, 1]], d1_cap=0.3), "restarts": 1,
         "grid_resolution": 2},
    ],
    "exponent": [
        {"problem": FAIR_K2, "rates": [0.2, 0.3], "restarts": 1},
        {"problem": FAIR_K2, "rate": 0.3, "restarts": 1},
        {"problem": FAIR_K2, "rates": [0.3], "restarts": 1, "user": 0,
         "input_law": {"p_w": [1.0], "p_x_given_sw": [[[0.5, 0.5]]]}},
    ],
}
# small values only: a wrong kind or range, never a large size
MUTANTS = ["x", None, -1, 0, 1, 2, 0.5, -0.5, math.nan, math.inf, -math.inf, True,
           [], [1], {}, {"a": 1}]


def run(*argv):
    return main([str(a) for a in argv])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    """One artifact directory per subcommand; attack and decode get a book,
    decode a pirated copy too."""
    root = tmp_path_factory.mktemp("cli")
    out = {}
    for command in VALID:
        out[command] = root / command
        out[command].mkdir()
    book = write_json(root / "book.json", {"params": {"n": 16, "num_users": 4}})
    for command in ("attack", "decode"):
        assert run("gen", "--config", book, "--seed", 1, "--out", out[command]) == 0
    att = write_json(root / "att.json", {"coalition": [0, 1]})
    assert run("attack", "--config", att, "--seed", 1, "--out", out["decode"]) == 0
    return out


def expect_one_line(capsys, code, want=(2,)):
    err = capsys.readouterr().err
    assert code in want, err
    assert "Traceback" not in err and err.count("\n") == 1, err
    return err


def test_gen_non_numeric_p_host_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"params": {"n": 16, "num_users": 4, "p_host": "x"}})
    err = expect_one_line(capsys, run("gen", "--config", cfg, "--out", tmp_path))
    assert err.startswith("config error: p_host")


def test_gen_bool_in_p_host_exits_2(tmp_path, capsys):
    # once read as the host law [1.0, 0.0], and gen exited 0
    cfg = write_json(tmp_path / "c.json", {"params": {
        "n": 16, "num_users": 4, "s_size": 2, "p_host": [True, 0.0]}})
    err = expect_one_line(capsys, run("gen", "--config", cfg, "--out", tmp_path))
    assert err.startswith("config error: p_host")


def test_gen_target_law_of_the_wrong_length_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"params": {
        "n": 16, "num_users": 4, "s_size": 1, "x_size": 2, "w_size": 1, "p_host": [1.0],
        "target_w_type": [16], "target_x_given_sw": [0.5, 0.5, 0.1]}})
    expect_one_line(capsys, run("gen", "--config", cfg, "--out", tmp_path))


def test_gen_non_numeric_distortion_cap_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"params": {
        "n": 16, "num_users": 4, "d1": [[0, 1]], "distortion_cap": "a"}})
    err = expect_one_line(capsys, run("gen", "--config", cfg, "--out", tmp_path))
    assert "distortion_cap" in err


def test_gen_distortion_cap_without_d1_exits_2(tmp_path, capsys):
    # once accepted, never enforced, and written into the header
    cfg = write_json(tmp_path / "c.json", {"params": {
        "n": 16, "num_users": 4, "distortion_cap": 0.5}})
    err = expect_one_line(capsys, run("gen", "--config", cfg, "--out", tmp_path))
    assert err.strip() == "config error: d1 and distortion_cap come together"


def test_capacity_refuses_a_payoff_key(tmp_path, capsys):
    # refused, not ignored: an ignored "simple" would solve detect-one
    cfg = write_json(tmp_path / "c.json", dict(VALID["capacity"][0], payoff="simple"))
    err = expect_one_line(capsys, run("capacity", "--config", cfg, "--out", tmp_path))
    assert err.strip().endswith('set the problem\'s objective to "simple"')


def test_capacity_zero_grid_resolution_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"problem": FAIR_K2, "grid_resolution": 0})
    err = expect_one_line(capsys, run("capacity", "--config", cfg, "--out", tmp_path))
    assert "grid_resolution" in err


def test_exponent_nan_rate_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"problem": FAIR_K2, "rate": "nan", "restarts": 1})
    err = expect_one_line(capsys, run("exponent", "--config", cfg, "--out", tmp_path))
    assert "rate" in err
    assert not (tmp_path / "exponent.json").exists()


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(cfg, path, value):
    if not path:
        return value
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("command", sorted(VALID))
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_single_bad_value_exits_cleanly(dirs, capsys, command, data):
    base = data.draw(st.sampled_from(VALID[command]))
    path = data.draw(st.sampled_from(list(_paths(base))))
    cfg = _replace(base, path, data.draw(st.sampled_from(MUTANTS)))
    out = dirs[command]
    capsys.readouterr()
    code = run(command, "--config", write_json(out / "cfg.json", cfg), "--out", out)
    if code != 0:
        expect_one_line(capsys, code, want=(2, 3))


# --- integers are refused, never truncated; unknown names are refused -------

SIM = VALID["simulate"][0]
CAPACITY = VALID["capacity"][0]
SWEEP = VALID["exponent"][0]
PROBES = {
    "simulate-trials": ("simulate", dict(SIM, trials=2.5)),
    "simulate-seed": ("simulate", dict(SIM, seed=1.5)),
    "simulate-bool-trials": ("simulate", dict(SIM, trials=True)),
    "simulate-n_sweep": ("simulate", dict(SIM, n_sweep=[16.5])),
    "capacity-restarts": ("capacity", dict(CAPACITY, restarts=0.5)),
    "capacity-grid_resolution": ("capacity", dict(CAPACITY, grid_resolution=2.5)),
    "exponent-restarts": ("exponent", dict(VALID["exponent"][1], restarts=2.5)),
    "sweep-restarts": ("exponent", dict(SWEEP, restarts=1.5)),
    "sweep-user": ("exponent", dict(SWEEP, user=0.5)),
    "sweep-subset": ("exponent", dict(SWEEP, subset=[0.5, 1])),
    "problem-sizes": ("capacity", dict(CAPACITY, problem=dict(
        FAIR_K2, coalition_size=2.5, x_size=2.9, num_timeshare=True))),
    "params-n": ("gen", {"params": {"n": 16.7, "num_users": 4}}),
    "params-num_users": ("gen", {"params": {"n": 16, "num_users": 4.2}}),
    "params-target_w_type": ("gen", {"params": dict(VALID["gen"][2]["params"],
                                                   target_w_type=[8.5, 8.5])}),
    "channel-k": ("attack", {"coalition": [0, 1], "attack": dict(MARKING_CHANNEL, k=2.5)}),
    "decode-decoder": ("decode", {"decode": {"delta": 0.05}, "decoder": "bogus"}),
    "capacity-payoff": ("capacity", dict(CAPACITY, payoff="bogus")),
    "attack-name": ("attack", {"coalition": [0, 1], "attack": "bogus"}),
    "sweep-memoryless": ("exponent", dict(SWEEP, memoryless="false")),
}


def _exits_2(dirs, capsys, command, cfg):
    out = dirs[command]
    capsys.readouterr()
    code = run(command, "--config", write_json(out / "cfg.json", cfg), "--out", out)
    expect_one_line(capsys, code)


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_truncated_or_unknown_values_exit_2(dirs, capsys, probe):
    _exits_2(dirs, capsys, *PROBES[probe])


def _value(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


# every integer leaf of the valid configs; d1 is a real-valued table that
# happens to be written with integers
INT_KEYS = [
    (command, i, path)
    for command in sorted(VALID)
    for i, cfg in enumerate(VALID[command])
    for path in _paths(cfg)
    if type(_value(cfg, path)) is int and "d1" not in path
]
# every enumerated key: the names in the valid configs, and the keys they
# leave at their default
NAME_KEYS = [
    (command, i, path)
    for command in sorted(VALID)
    for i, cfg in enumerate(VALID[command])
    for path in _paths(cfg)
    if isinstance(_value(cfg, path), str)
] + [
    ("attack", 0, ("attack",)),
    ("simulate", 0, ("attack",)),
    ("simulate", 0, ("decoder",)),
    ("capacity", 0, ("payoff",)),
    ("capacity", 0, ("problem", "objective")),
    ("exponent", 0, ("memoryless",)),
    ("exponent", 0, ("problem", "objective")),
]


def _ids(keys):
    return [f"{c}-{i}-{'.'.join(map(str, p))}" for c, i, p in keys]


# every real-valued leaf of the valid configs: the floats, and the d1 costs
# written as integers
REAL_KEYS = [
    (command, i, path)
    for command in sorted(VALID)
    for i, cfg in enumerate(VALID[command])
    for path in _paths(cfg)
    if type(_value(cfg, path)) is float or "d1" in path and type(_value(cfg, path)) is int
]


def _real_mutants(cfg, path):
    """A numeric string, NaN and both infinities for a real leaf, and a bool
    for a scalar leaf, a rates entry and the first entry of each table."""
    out = [str(_value(cfg, path)), math.nan, math.inf, -math.inf]
    first = not any(k for k in path if isinstance(k, int))
    return out + [True] if first or path[-2] == "rates" else out


REAL_CASES = [(c, i, p, v) for c, i, p in REAL_KEYS for v in _real_mutants(VALID[c][i], p)]


@pytest.mark.parametrize("command,index,path,value", REAL_CASES, ids=[
    f"{c}-{i}-{'.'.join(map(str, p))}-{v!r}" for c, i, p, v in REAL_CASES])
def test_real_keys_refuse_strings_non_finite_values_and_bools(dirs, capsys, command, index,
                                                              path, value):
    _exits_2(dirs, capsys, command, _replace(VALID[command][index], path, value))


@pytest.mark.parametrize("command,index,path", INT_KEYS, ids=_ids(INT_KEYS))
@settings(max_examples=3, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.one_of(st.booleans(), st.floats().filter(lambda v: not v.is_integer())))
def test_integer_keys_refuse_floats_and_bools(dirs, capsys, command, index, path, value):
    _exits_2(dirs, capsys, command, _replace(VALID[command][index], path, value))


@pytest.mark.parametrize("command,index,path", NAME_KEYS, ids=_ids(NAME_KEYS))
def test_enumerated_keys_refuse_unknown_names(dirs, capsys, command, index, path):
    _exits_2(dirs, capsys, command, _replace(VALID[command][index], path, "bogus"))


# --- artifact files are checked like configs ---------------------------------

ARTIFACTS = ("codebook_header.json", "codebook_key.json", "codebook.jsonl", "pirate.json")
DECODE = VALID["decode"][0]


@pytest.fixture(scope="module")
def book(dirs):
    """The gen and attack artifacts of one valid run, as text by file name."""
    return {name: (dirs["decode"] / name).read_text() for name in ARTIFACTS}


def _decode_with(tmp_path, book, **texts):
    for name in ARTIFACTS:
        (tmp_path / name).write_text(texts.get(name, book[name]))
    return run("decode", "--config", write_json(tmp_path / "cfg.json", DECODE),
               "--out", tmp_path)


def _first_row(book, **changes):
    lines = book["codebook.jsonl"].splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), **changes))
    return "\n".join(lines) + "\n"


def _without(book, name, key):
    doc = json.loads(book[name])
    del doc[key]
    return json.dumps(doc)


ARTIFACT_CASES = {
    # once accepted: 1 of 4 users, "m": 0.7 read as user 0, "y" of 0.5 read as 0
    "rows-missing-users": ("codebook.jsonl", lambda b: b["codebook.jsonl"].splitlines()[0]),
    "rows-fractional-user": ("codebook.jsonl", lambda b: _first_row(b, m=0.7)),
    "pirate-fractional-y": ("pirate.json", lambda b: json.dumps(
        dict(json.loads(b["pirate.json"]), y=[0.5] * 16))),
    # once a KeyError or JSONDecodeError traceback with exit 1
    "key-without-seed": ("codebook_key.json", lambda b: _without(b, "codebook_key.json", "seed")),
    "header-not-json": ("codebook_header.json", lambda b: "{not json"),
    "key-not-json": ("codebook_key.json", lambda b: "[1, 2"),
    "pirate-without-y": ("pirate.json", lambda b: _without(b, "pirate.json", "y")),
}


@pytest.mark.parametrize("case", sorted(ARTIFACT_CASES))
def test_bad_artifact_exits_2_with_one_line(tmp_path, capsys, book, case):
    name, make = ARTIFACT_CASES[case]
    capsys.readouterr()
    expect_one_line(capsys, _decode_with(tmp_path, book, **{name: make(book)}))
    assert not (tmp_path / "decode.json").exists()


@pytest.mark.parametrize("name,key", [("pirate.json", "y"), ("codebook_key.json", "host")])
def test_a_bool_in_an_artifact_table_exits_2(tmp_path, capsys, book, name, key):
    # y once read the bool as symbol 1; the host reported symbol 1 out of range
    doc = json.loads(book[name])
    doc[key][0] = True
    capsys.readouterr()
    err = expect_one_line(capsys, _decode_with(tmp_path, book, **{name: json.dumps(doc)}))
    assert f"{key} must be 1-D nonnegative integers" in err


def test_valid_artifacts_decode(tmp_path, capsys, book):
    assert _decode_with(tmp_path, book) == 0


def _mutate_artifact(data, book):
    """One artifact with one value replaced by a mutant, or one key deleted."""
    name = data.draw(st.sampled_from(ARTIFACTS))
    if name == "codebook.jsonl":
        lines = book[name].splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        doc = json.loads(lines[i])
    else:
        doc = json.loads(book[name])
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = _value(doc, path[:-1]) if path else None
    if isinstance(parent, dict) and data.draw(st.booleans()):
        doc = copy.deepcopy(doc)
        del _value(doc, path[:-1])[path[-1]]
    else:
        doc = _replace(doc, path, data.draw(st.sampled_from(MUTANTS)))
    if name == "codebook.jsonl":
        lines[i] = json.dumps(doc)
        return name, "\n".join(lines) + "\n"
    return name, json.dumps(doc)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_single_bad_artifact_value_exits_cleanly(tmp_path, capsys, book, data):
    name, text = _mutate_artifact(data, book)
    capsys.readouterr()
    code = _decode_with(tmp_path, book, **{name: text})
    if code != 0:
        expect_one_line(capsys, code, want=(2, 3))


# --- params, problem and input_law readers ------------------------------------


def test_gen_takes_a_time_share_type_alone(tmp_path, capsys):
    # giving target_w_type once switched to the header reader and its keys
    cfg = write_json(tmp_path / "c.json",
                     {"params": {"n": 16, "num_users": 4, "target_w_type": [16]}})
    assert run("gen", "--config", cfg, "--out", tmp_path) == 0
    flat = {"params": {"n": 16, "num_users": 4, "target_x_given_sw": [0.25, 0.75]}}
    assert run("gen", "--config", write_json(tmp_path / "c.json", flat), "--out", tmp_path) == 0


@pytest.mark.parametrize("command,cfg", [
    ("capacity", dict(CAPACITY, problem=dict(FAIR_K2, num_timeshares=2))),
    ("exponent", dict(VALID["exponent"][2], input_law=dict(
        VALID["exponent"][2]["input_law"], p_s_tilde=[[1.0]]))),
], ids=["problem", "input_law"])
def test_unknown_key_inside_problem_or_input_law_exits_2(dirs, capsys, command, cfg):
    _exits_2(dirs, capsys, command, cfg)


@pytest.mark.parametrize("key,value", [
    ("memoryless", True), ("user", 0), ("subset", [0]),
    ("input_law", {"p_w": [1.0], "p_x_given_sw": [[[0.5, 0.5]]]}),
])
def test_single_rate_exponent_refuses_sweep_only_keys(dirs, capsys, key, value):
    cfg = dict(VALID["exponent"][1], **{key: value})
    out = dirs["exponent"]
    (out / "exponent.json").unlink(missing_ok=True)
    capsys.readouterr()
    code = run("exponent", "--config", write_json(out / "cfg.json", cfg), "--out", out)
    assert key in expect_one_line(capsys, code)
    assert not (out / "exponent.json").exists()
