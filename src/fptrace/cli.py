"""Command-line workbench tying the library together.

Subcommands: gen, attack, decode, simulate, capacity, exponent.  Every
command reads its settings from a JSON file (--config), writes artifacts
into --out, and prints a one-line summary.  Exit codes: 0 on success, 2
for configuration problems and every other package error (an infeasible
construction, a stale outcome, ...), 3 when a search or allocation budget
is hit.  These failures print one line on stderr, not a traceback; a
malformed config value is a configuration problem.

The CLI passes each config value to the library as the JSON gave it, and
the library call that takes it refuses a bad one.  The CLI checks only its
own rules: the config is a JSON object with the keys a command needs (a
``problem``, and the ``attack`` command's ``coalition`` list), the
artifacts a command reads exist, ``decoder`` and a named attack are known
names, ``capacity`` gets no ``payoff`` key (the problem's ``objective``
picks the game), and a single-rate ``exponent`` gets no sweep-only key.
``report.csv`` takes its columns in the order of ``PointEstimate.as_row``.

``exponent`` with a ``rates`` list runs ``exponent_sweep`` (its private
per-rate loop, to read each rate's solver info); each rate is one solve
of the program, so a memoryless sweep gets the same repair as
``memoryless_exponent_variant``.  The two programs fit different attacks:
``"memoryless": true`` gives the exponent of a memoryless attack's miss
rate, while the default ``pseudo_sphere_packing`` holds the realized
channel inside the family and so does not bound the miss rate of
``simulate``'s attacks.  On the balanced binary K=2 code under
interleaving, user 0, at bar 0.12 they give 0.00886 and 0.0278, and
``simulate``'s measured miss-rate decay fits 0.0106 +- 0.0005.  The sweep
CSV's ``gap`` column is the rate less the least information a phase-1
solve reached (0 when no start ran phase 1); a rate that phase 1 proves
infeasible stops after its first phase 1.

All emitted floats carry 9 significant digits and tables use a fixed
column order, so repeated runs with the same seed produce byte-identical
CSV tables regardless of worker count or machine load (``report.json``
also records wall-clock seconds).
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .codec import CodeParams, build_codebook, draw_host, draw_timeshare, read_codebook, write_codebook
from .collusion import ChannelSpec, apply_memoryless, interleave
from .decoders import DecodeConfig, guilt_indices, mpmi_decode, threshold_decode
from .errors import BudgetExceededError, ConfigError, FptraceError, read_json, reading
from .games import (
    GameProblem,
    InputLaw,
    solve_capacity,
    solve_exponent_program,
)
from .games.exponents import _sweep
from .simlab import ExperimentConfig, _coalition_users, estimate

__all__ = ["main"]

SWEEP_COLUMNS = ("K", "L", "R", "value", "restarts", "gap")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _round9(obj):
    """Recursive 9-significant-digit canonicalization for JSON output."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}") if math.isfinite(obj) else _fmt(obj)
    if isinstance(obj, dict):
        return {str(k): _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round9(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _round9(obj.item())
    return obj


def _dump_json(payload, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(_round9(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _dump_csv(rows, columns, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _load_config(args) -> dict:
    if args.config is None:
        raise ConfigError("this command needs --config <json path>")
    cfg = read_json(args.config, "config")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _seed_of(args, cfg: dict):
    return cfg.get("seed", 0) if args.seed is None else args.seed


def _params_from(cfg: dict) -> CodeParams:
    with reading("config"):
        return CodeParams.from_dict(cfg["params"])


def _attack_from(cfg: dict):
    spec = cfg.get("attack", "interleaving")
    if spec == "interleaving":
        return spec
    if isinstance(spec, str):
        raise ConfigError(f"unknown named attack {spec!r}")
    return ChannelSpec.from_json(json.dumps(spec))


def _decode_config_from(cfg: dict) -> DecodeConfig:
    with reading("decode config"):
        return DecodeConfig(**cfg["decode"])


def _book_paths(out: Path) -> tuple:
    return out / "codebook.jsonl", out / "codebook_header.json", out / "codebook_key.json"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    params = _params_from(cfg)
    seed = _seed_of(args, cfg)
    gen = rngmod.derive(seed, "cli", "gen")
    s = draw_host(params.p_host, params.n, gen)
    w = draw_timeshare(params, gen)
    cb = build_codebook(params, s, w, seed=int(gen.integers(0, 2**62)))
    rows_path, header_path, key_path = _book_paths(args.out)
    write_codebook(cb, rows_path, header_path, key_path)
    print(f"wrote {rows_path} ({params.num_users} users, n={params.n})")
    return 0


def _read_book(out: Path):
    rows_path, header_path, key_path = _book_paths(out)
    for p in (rows_path, header_path, key_path):
        if not p.exists():
            raise ConfigError(f"missing codebook artifact {p}; run gen first")
    return read_codebook(rows_path, header_path, key_path)


def _cmd_attack(args) -> int:
    cfg = _load_config(args)
    cb = _read_book(args.out)
    coalition = cfg.get("coalition")
    if not isinstance(coalition, list) or not coalition:
        raise ConfigError('config needs a nonempty "coalition" list')
    coalition = list(_coalition_users(coalition, cb.params.num_users))
    rows = np.stack([cb.row(m) for m in coalition])
    attack = _attack_from(cfg)
    gen = rngmod.derive(_seed_of(args, cfg), "cli", "attack")
    if isinstance(attack, str):
        result = interleave(rows, gen, x_size=cb.params.x_size)
    else:
        result = apply_memoryless(rows, attack, gen)
    payload = {
        "coalition": coalition,
        "y": result.y.tolist(),
        "marking_ok": bool(result.marking_ok),
        "distortion": result.distortion,
        "distortion_ok": result.distortion_ok,
        "realized": json.loads(result.realized.to_json()),
    }
    path = args.out / "pirate.json"
    _dump_json(payload, path)
    print(f"wrote {path} (marking_ok={result.marking_ok})")
    return 0


def _cmd_decode(args) -> int:
    cfg = _load_config(args)
    cb = _read_book(args.out)
    pirate_path = args.out / "pirate.json"
    if not pirate_path.exists():
        raise ConfigError(f"missing {pirate_path}; run attack first")
    with reading("pirated copy"):
        y = read_json(pirate_path, "pirated copy")["y"]
    dcfg = _decode_config_from(cfg)
    name = cfg.get("decoder", "threshold")
    if name not in ("threshold", "mpmi"):
        raise ConfigError(f"unknown decoder {name!r}")
    decoder = mpmi_decode if name == "mpmi" else threshold_decode
    outcome = decoder(cb, y, dcfg)
    guilt = guilt_indices(cb, y, outcome)
    payload = {
        "accused": list(outcome.accused),
        "best_k": outcome.best_k,
        "score": outcome.score,
        "exact": outcome.exact,
        "mode": outcome.mode,
        "delta": outcome.delta,
        "rate": outcome.rate,
        "evaluated": outcome.evaluated,
        "guilt": {
            "coalition_index": guilt.coalition_index,
            "per_user": guilt.per_user,
        },
    }
    path = args.out / "decode.json"
    _dump_json(payload, path)
    print(f"wrote {path} (accused={list(outcome.accused)})")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    exp = ExperimentConfig(
        params=_params_from(cfg),
        decode=_decode_config_from(cfg),
        attack=_attack_from(cfg),
        coalition=cfg.get("coalition", 2),
        trials=cfg.get("trials", 1000),
        seed=_seed_of(args, cfg),
        decoder=cfg.get("decoder", "threshold"),
        n_sweep=cfg.get("n_sweep", ()),
    )
    report = estimate(exp, workers=args.workers)
    csv_path = args.out / "report.csv"
    rows = report.as_rows()
    _dump_csv(rows, tuple(rows[0]), csv_path)
    fits = {}
    for event in ("fp", "miss_one", "miss_all"):
        try:
            slope, stderr = report.exponents(event)
            fits[event] = {"slope": slope, "stderr": stderr}
        except FptraceError:
            fits[event] = None
    payload = {
        "seed": exp.seed,
        "trials": exp.trials,
        "points": rows,
        "exponent_fits": fits,
        "seconds": [p.seconds for p in report.points],
    }
    _dump_json(payload, args.out / "report.json")
    print(f"wrote {csv_path} ({len(report.points)} blocklengths x {exp.trials} trials)")
    return 0


def _cmd_capacity(args) -> int:
    cfg = _load_config(args)
    if "problem" not in cfg:
        raise ConfigError('config needs a "problem" object')
    problem = GameProblem.from_dict(cfg["problem"])
    if "payoff" in cfg:
        # refused, not ignored: an ignored "simple" would solve detect-one
        raise ConfigError("payoff is not a capacity key; "
                          'set the problem\'s objective to "simple"')
    solution = solve_capacity(
        problem, seed=_seed_of(args, cfg), restarts=cfg.get("restarts", 20),
        grid_resolution=cfg.get("grid_resolution", 16),
    )
    path = args.out / "capacity.json"
    _dump_json(json.loads(solution.to_json()), path)
    print(f"wrote {path} (value={_fmt(solution.value)})")
    return 0


def _cmd_exponent(args) -> int:
    cfg = _load_config(args)
    if "problem" not in cfg:
        raise ConfigError('config needs a "problem" object')
    problem = GameProblem.from_dict(cfg["problem"])
    seed = _seed_of(args, cfg)
    if "rates" not in cfg:
        for key in ("memoryless", "input_law", "subset", "user"):
            if key in cfg:
                raise ConfigError(f"{key} needs a rates sweep; a single rate solves one program")
        result = solve_exponent_program(
            cfg.get("rate", 0.0), problem, seed=seed, restarts=cfg.get("restarts", 4)
        )
        path = args.out / "exponent.json"
        _dump_json(
            {
                "value": result["value"],
                "input_law": result["input_law"].to_dict(),
                "history": result["history"],
                "converged": result["converged"],
            },
            path,
        )
        print(f"wrote {path} (value={_fmt(result['value'])})")
        return 0

    restarts = cfg.get("restarts", 6)
    law = InputLaw.from_dict(cfg["input_law"]) if "input_law" in cfg else problem.uniform_law()
    user, subset = cfg.get("user"), None
    if "user" not in cfg:
        subset = cfg.get("subset", range(problem.coalition_size))
    rows = [
        {
            "K": problem.coalition_size,
            "L": problem.num_timeshare,
            "R": rate,
            "value": val,
            "restarts": restarts,
            "gap": info.get("lowest_info_gap", 0.0) or 0.0,
        }
        for _, rate, val, info in _sweep(
            cfg["rates"], law, problem, subset, user, cfg.get("memoryless", False), restarts,
            seed,
        )
    ]
    path = args.out / "exponent_sweep.csv"
    _dump_csv(rows, SWEEP_COLUMNS, path)
    print(f"wrote {path} ({len(rows)} rates)")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fptrace",
        description="fingerprinting codes, collusion attacks, decoders and game solvers",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    common.add_argument("--workers", type=int, default=1, help="worker processes")
    common.add_argument("--config", type=Path, default=None, help="JSON settings file")
    common.add_argument("--out", type=Path, default=Path("."), help="artifact directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("gen", _cmd_gen, "realize a codebook (rows, header, keyfile)"),
        ("attack", _cmd_attack, "forge a pirated copy from a coalition"),
        ("decode", _cmd_decode, "accuse users from a pirated copy"),
        ("simulate", _cmd_simulate, "Monte Carlo error-rate sweep"),
        ("capacity", _cmd_capacity, "max-min game value"),
        ("exponent", _cmd_exponent, "divergence exponent program; a sweep with "
         '"memoryless": true is the exponent of a memoryless attack\'s miss rate, and the '
         "default holds the realized channel in the family, so it does not bound that rate; "
         "the sweep CSV's gap is the rate less the least information phase 1 reached (0 when "
         "no start ran phase 1), and a rate proved infeasible stops after its first phase 1"),
    ):
        p = sub.add_parser(name, parents=[common], help=doc, description=doc)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except FptraceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
