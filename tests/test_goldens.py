"""Golden SHA-256 hashes of tiny deterministic artifacts.

Each test runs one small end-to-end job and compares the hash of what it
writes with a recorded hash.  A numpy or scipy upgrade that changes
`choice`, `hypergeometric`, `linprog` or SLSQP output, or a refactor that
is not value-preserving, fails here loudly instead of drifting silently.
When such a change is intended, re-record the hash and say why in the
change log.

Recorded with numpy 2.4.6, scipy 1.17.1, Python 3.11, at one BLAS thread
(``conftest.py`` pins the count): SLSQP's iterates depend on it, so the
exponent hashes hold only at that count.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from fptrace import rng as rngmod
from fptrace.cli import main
from fptrace.codec import (
    CodeParams,
    build_codebook,
    draw_host,
    draw_timeshare,
)
from fptrace.decoders import DecodeConfig
from fptrace.games import (
    Distortion,
    FairMarking,
    GameProblem,
    Hull,
    InputLaw,
    Marking,
    memoryless_exponent_variant,
    pseudo_sphere_packing,
    solve_exponent_program,
)
from fptrace.games import exponents
from fptrace.games.exponents import _inner_floor, _sweep
from fptrace.simlab import ExperimentConfig, run_trial

FAIR_K2 = {
    "coalition_size": 2,
    "x_size": 2,
    "y_size": 2,
    "channel_class": {"kind": "boneh_shaw_fair"},
    "objective": "detect_one",
}

GOLDEN = {
    "simulate": "11a316b0487b6dcba356ac9558aaece9e871cc35c19a4834c61dafa91a212b7a",
    "capacity": "45f3adee24bd3d198dd697a759b95cf710e3dbbb1b799451b86aebf50430456c",
    "capacity_detect_all": "65bccf250035c87562f938c14c63658554cb4ea2c3c8567d08a1dfefd9e02463",
    "capacity_hull": "e8ec8267c07d896ce45446b3c31f053f3914a51921239b2df216a4c902433c77",
    "exponent_sweep": "f3fa5418a93e73cdbce9e057385f794b8f5ac5cc1d6fd7c693a256bdce2a320e",
    "operating_point": "d2899d9da8d4a347f9c0910ed0aa5df59270b4f3dcbbd7f4d0160f08baf8ab1c",
    "exponent_layouts": "03d1252c63563c2d399ed5a65d7d46491ae8591a7c77d8b428d8c7516d1bac24",
    "codebook_rows": "58c80c0f056e5a359828504c590dff840fa120d4fdcfdff20c91b9e1a7611b1a",
    "trial_miss_events": "a0c2fd2d6f70e3021aab34fb5644d14ccd2b263503775bd00aa7bae232601f27",
    "memoryless_sweep": "cd3c0053a3b0008b319c4cea78d0469a02ccc0d075633393d4f2be8f177676c9",
    "user_sweeps": "f0c86848b271992c177704d99719ba4ebaaa4c5e39fe6b10bb1a36cce92c2bb2",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(tmp_path, command, payload):
    cfg = tmp_path / f"{command}.json"
    cfg.write_text(json.dumps(payload))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_simulate_report_golden(tmp_path):
    _run(tmp_path, "simulate", {
        "params": {"n": 24, "num_users": 6, "s_size": 2, "w_size": 2},
        "decode": {"delta": 0.05},
        "coalition": 2,
        "trials": 40,
        "n_sweep": [20, 24],
        "seed": 3,
    })
    assert _sha((tmp_path / "report.csv").read_bytes()) == GOLDEN["simulate"]


def test_capacity_artifact_golden(tmp_path):
    _run(tmp_path, "capacity", {
        "problem": FAIR_K2, "restarts": 3, "grid_resolution": 4, "seed": 0,
    })
    assert _sha((tmp_path / "capacity.json").read_bytes()) == GOLDEN["capacity"]


def _lean_hull():
    """Two vertices, interleaving and a channel whose Y leans on user 0, so
    that detect-all's weakest part is user 1 alone."""
    lean = np.zeros((2, 2, 2))
    for x0, x1 in np.ndindex(2, 2):
        lean[x0, x1] = [0.9 - 0.7 * x0 - 0.1 * x1, 0.1 + 0.7 * x0 + 0.1 * x1]
    return {
        "kind": "hull",
        "shape": [2, 2, 2],
        "vertices": [[1.0, 0.0] + [0.5] * 4 + [0.0, 1.0], lean.ravel().tolist()],
    }


def _detect_all_problems():
    """Games of several parts, where the inner solve picks the weakest."""
    return {
        "capacity_detect_all": dict(FAIR_K2, objective="detect_all", num_timeshare=2),
        "capacity_hull": dict(FAIR_K2, objective="detect_all", channel_class=_lean_hull()),
    }


@pytest.mark.parametrize("name", ["capacity_detect_all", "capacity_hull"])
def test_capacity_detect_all_artifact_golden(tmp_path, name):
    _run(tmp_path, "capacity", {
        "problem": _detect_all_problems()[name], "restarts": 3, "grid_resolution": 4,
        "seed": 0,
    })
    assert _sha((tmp_path / "capacity.json").read_bytes()) == GOLDEN[name]


def test_exponent_sweep_golden(tmp_path):
    _run(tmp_path, "exponent", {
        "problem": FAIR_K2, "rates": [0.21, 0.23, 0.26], "restarts": 2, "seed": 0,
    })
    data = (tmp_path / "exponent_sweep.csv").read_bytes()
    assert _sha(data) == GOLDEN["exponent_sweep"]


def test_operating_point_search_golden(monkeypatch):
    problem = GameProblem(
        coalition_size=2, x_size=2, y_size=2, channel_class=FairMarking()
    )
    for name, value in (("_PSP_RESTARTS", 1), ("_ROUNDS", 1), ("_ASCENT_STEPS", 3)):
        monkeypatch.setattr(exponents, name, value)
    # the uniform start is infeasible at this rate (+inf) and is left at
    # once; the random start is finite and climbs to a non-uniform law
    out = solve_exponent_program(0.2, problem, restarts=2)
    law = out["input_law"]
    floats = np.concatenate([
        [out["value"]], out["history"], law.p_w, law.p_x_given_sw.ravel()
    ]).astype(np.float64)
    assert _sha(floats.tobytes()) == GOLDEN["operating_point"]


def _bernoulli_law(p0, s_size=1):
    return InputLaw(
        p_w=np.array([1.0]), p_x_given_sw=np.tile([p0, 1.0 - p0], (s_size, 1, 1))
    )


def _layout_cases():
    """(problem, law, subset, rate) on the per-cell and the orbit layouts."""
    def problem(family, **kw):
        return GameProblem(
            coalition_size=2, x_size=2, y_size=2, channel_class=family, **kw
        )

    host = problem(FairMarking(), s_size=2, p_host=np.array([0.6, 0.4]))
    yield host, _bernoulli_law(0.45, 2), (0,), 0.3
    yield host, _bernoulli_law(0.45, 2), (0, 1), 0.23
    yield problem(Marking()), _bernoulli_law(0.45), (0, 1), 0.23
    gen = np.random.default_rng(1)
    vertices = [gen.dirichlet(np.ones(2), size=(2, 2)) for _ in range(2)]
    yield problem(Hull(vertices)), _bernoulli_law(0.45), (0, 1), 0.04
    dist = problem(Distortion(
        np.array([[0, 0], [0, 1]]), np.array([[0.0, 1.0], [1.0, 0.0]]), 0.05
    ))
    floor, _ = _inner_floor(dist, _bernoulli_law(0.45), (0, 1), None)
    yield dist, _bernoulli_law(0.45), (0, 1), 0.7 * floor


def test_exponent_program_layouts_golden():
    digest = hashlib.sha256()
    for problem, law, subset, rate in _layout_cases():
        for solver in (pseudo_sphere_packing, memoryless_exponent_variant):
            val, vec, info = solver(
                rate, law, problem, subset=subset, restarts=2, seed=3,
                full_output=True,
            )
            digest.update(np.float64(val).tobytes())
            if vec is not None:
                digest.update(np.asarray(vec, dtype=np.float64).tobytes())
            digest.update(json.dumps(info, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN["exponent_layouts"]


def _sweep_digest(rates, law, problem, subset, user, memoryless):
    """Hash of every (index, rate, value, info) a two-restart sweep yields."""
    digest = hashlib.sha256()
    values = []
    for i, rate, val, info in _sweep(rates, law, problem, subset, user, memoryless, 2, 0):
        values.append(val)
        digest.update(np.array([i, rate, val], dtype=np.float64).tobytes())
        digest.update(json.dumps(info, sort_keys=True).encode())
    return values, digest.hexdigest()


def test_memoryless_sweep_golden():
    problem = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=Marking())
    values, digest = _sweep_digest(
        [0.05, 0.1, 0.15], _bernoulli_law(0.7), problem, (0, 1), None, True
    )
    assert values == [np.inf, 0.1376990780377283, 0.00892881371840103]
    assert digest == GOLDEN["memoryless_sweep"]


def test_user_sweeps_golden():
    # one fingerprint's marginal program, constrained then memoryless; the
    # last rate is past the inner floor
    problem = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=FairMarking())
    digest = hashlib.sha256()
    for memoryless in (False, True):
        _, part = _sweep_digest(
            [0.1, 0.05, 0.15], _bernoulli_law(0.3), problem, None, 0, memoryless
        )
        digest.update(part.encode())
    assert digest.hexdigest() == GOLDEN["user_sweeps"]


def _book(seed, n, m, s_size=1, w_size=1, x_size=2, p_host=None, tx=None, host=None):
    params = CodeParams(
        n=n, num_users=m, s_size=s_size, w_size=w_size, x_size=x_size,
        p_host=p_host, target_x_given_sw=tx,
    )
    if host is None:
        host = draw_host(params.p_host, n, rngmod.derive(seed, "host"))
    w = draw_timeshare(params, rngmod.derive(seed, "w"))
    return build_codebook(params, host, w, seed)


def _row_books():
    """Books over every small alphabet shape and each row-generation edge."""
    for s_size, w_size, x_size in itertools.product((1, 2, 3), (1, 2, 3), (2, 3, 5)):
        seed = 100 * s_size + 10 * w_size + x_size
        yield _book(seed, 30, 5, s_size, w_size, x_size)
    yield _book(7, 64, 4, x_size=200)  # int16 cache
    yield _book(8, 40, 5, s_size=3, p_host=np.array([0.7, 0.2, 0.1]))
    tx = np.array([[[0.5, 0.0, 0.5], [0.2, 0.3, 0.5]]])
    yield _book(9, 36, 5, w_size=2, x_size=3, tx=tx)  # symbol 1 never in cell 0
    # host symbol 1 never occurs, so both (1, w) cells have no positions
    yield _book(10, 32, 5, s_size=2, w_size=2, host=np.zeros(32, dtype=np.int64))


def test_codebook_rows_golden():
    digest = hashlib.sha256()
    for cb in _row_books():
        m = cb.params.num_users
        for u in reversed(range(m)):
            digest.update(cb.row(u).astype(np.int64).tobytes())
        mat = cb.rows()
        digest.update(str(mat.dtype).encode() + mat.tobytes())
        users = [m - 1, 0, m - 1, 1]
        fresh = type(cb)(cb.params, cb.host, cb.timeshare, cb.seed)
        block = fresh.row_block(users, known={0: mat[0]})
        digest.update(str(block.dtype).encode() + block.tobytes())
    assert digest.hexdigest() == GOLDEN["codebook_rows"]


def _miss_event_cases():
    """(config, blocklength) pairs: the perfbench ``simulate`` workload's
    trial config at seed 1, and the simulate report golden's config at each
    blocklength of its sweep."""
    bench = ExperimentConfig(
        params=CodeParams(n=256, num_users=1024, s_size=2, w_size=2),
        decode=DecodeConfig(delta=0.06),
        coalition=2,
        seed=1,
    )
    yield bench, 256
    small = ExperimentConfig(
        params=CodeParams(n=24, num_users=6, s_size=2, w_size=2),
        decode=DecodeConfig(delta=0.05),
        coalition=2,
        seed=3,
        n_sweep=(20, 24),
    )
    yield small, 20
    yield small, 24


def test_trial_miss_events_golden():
    # everything a trial decides about the coalition, over its first 200
    # trials: only the innocents' accusations are left out
    digest = hashlib.sha256()
    for cfg, n in _miss_event_cases():
        for i in range(200):
            rec = run_trial(cfg, i, n=n)
            caught = sorted(set(rec.accused) & set(rec.coalition))
            event = [rec.coalition, rec.resamples, rec.miss_one, rec.miss_all, caught]
            digest.update(json.dumps(event).encode())
    assert digest.hexdigest() == GOLDEN["trial_miss_events"]
