"""Randomized fingerprint code construction.

A codebook is a secret matrix of user rows, each drawn uniformly from the
conditional type class pinned down by the realized host sequence s and the
time-sharing sequence w: within every (s, w) cell the row carries an exact
prescribed composition of mark symbols.  Two secret randomizers can be
layered on top: a user-index permutation (who owns which row) and a letter
permutation (which hides the position structure; it enters scoring as a
permuted effective time-sharing sequence).  Rows are generated lazily from a
keyed per-row stream, so a codebook is reproducible from (params, seed)
alone and generation order never matters.  Each book builds its cell plan
(every cell's positions and sorted mark block) once; a row then costs one
stream derivation and one shuffle per cell, bit-identical to a fresh
:func:`sample_type_class` draw on that stream.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .errors import (ConfigError, InfeasibleError, float_array, int_array, int_at_least, pmf_rows,
                     read_json, real_at_least, reading, symbols)
from .types_core import JointType, quantize_pmf

__all__ = [
    "CodeParams",
    "Codebook",
    "draw_host",
    "draw_timeshare",
    "sample_type_class",
    "build_codebook",
    "apply_rp",
    "apply_rm",
    "write_codebook",
    "read_codebook",
]


@dataclass(frozen=True)
class CodeParams:
    """Static description of a fingerprint code.

    M = ``num_users`` users give the rate log2(M)/n.
    ``target_x_given_sw[s, w]`` is the mark distribution the rows must hit
    (after per-cell quantization) inside each (host, time-share) cell.
    ``d1``/``distortion_cap`` bound the average embedding distortion between
    host and marked copy; None disables the check.  ``target_w_type`` may be
    a JointType or a list of counts, and each table may be nested or flat.
    """

    n: int
    num_users: int
    s_size: int = 1
    x_size: int = 2
    w_size: int = 1
    k_nom: int = 2
    p_host: np.ndarray | None = None
    target_w_type: JointType | None = None
    target_x_given_sw: np.ndarray | None = None
    d1: np.ndarray | None = None
    distortion_cap: float | None = None

    def __post_init__(self) -> None:
        for name in ("n", "num_users", "s_size", "x_size", "w_size", "k_nom"):
            if not int_at_least(getattr(self, name), 1):
                raise ConfigError(f"{name} must be a positive integer")
        s, w, x = self.s_size, self.w_size, self.x_size
        p_host = np.full(s, 1.0 / s) if self.p_host is None else self.p_host
        object.__setattr__(self, "p_host", pmf_rows(p_host, "p_host", (s,)))

        wt = self.target_w_type
        if wt is None:
            wt = quantize_pmf(np.full(w, 1.0 / w), self.n)
        elif not isinstance(wt, JointType):
            # strict per count: 16.0 is refused, not read as 16
            if not isinstance(wt, (list, tuple, np.ndarray)) or not all(
                int_at_least(c, 0) for c in wt
            ):
                raise ConfigError(f"target_w_type must list integer counts: {wt!r}")
            wt = JointType((w,), wt)
        if wt.axes != (w,) or wt.n != self.n:
            raise ConfigError("target_w_type must be a type over W with total n")
        object.__setattr__(self, "target_w_type", wt)

        tx = self.target_x_given_sw
        if tx is None:
            tx = np.full((s, w, x), 1.0 / x)
        object.__setattr__(self, "target_x_given_sw", pmf_rows(tx, "target_x_given_sw", (s, w, x)))

        if self.d1 is not None:
            object.__setattr__(self, "d1", float_array(self.d1, "d1", (s, x)))
            if not real_at_least(self.distortion_cap, -math.inf):
                raise ConfigError(f"d1 needs a finite distortion_cap, not {self.distortion_cap!r}")

    @property
    def rate(self) -> float:
        return float(np.log2(self.num_users)) / self.n

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "num_users": self.num_users,
            "s_size": self.s_size,
            "x_size": self.x_size,
            "w_size": self.w_size,
            "k_nom": self.k_nom,
            "p_host": list(map(float, self.p_host)),
            "target_w_type": [int(c) for c in self.target_w_type.counts],
            "target_x_given_sw": self.target_x_given_sw.ravel().tolist(),
            "d1": None if self.d1 is None else self.d1.ravel().tolist(),
            "distortion_cap": self.distortion_cap,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CodeParams":
        """Params from ``to_dict`` output or a config's ``params`` object;
        every key but ``n`` and ``num_users`` may be left out."""
        with reading("code params"):
            return cls(**d)


def draw_host(p_host: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Memoryless host sequence, one symbol per position."""
    p_host = np.asarray(p_host, dtype=float)
    return rng.choice(len(p_host), size=n, p=p_host).astype(np.int64)


def draw_timeshare(params: CodeParams, rng: np.random.Generator) -> np.ndarray:
    """Time-sharing sequence drawn uniformly from its target type class."""
    return sample_type_class(params.target_w_type.counts, rng)


def sample_type_class(
    composition: np.ndarray,
    rng: np.random.Generator,
    cond_seq: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform draw from a (conditional) type class.

    Unconditional: ``composition[u]`` counts of symbol u; the draw is a
    uniformly random arrangement of that multiset.  Conditional:
    ``composition[c, u]`` prescribes the multiset inside each cell of
    ``cond_seq``; each cell is arranged independently and uniformly.  Row c
    totals must equal the number of positions carrying cell value c.
    """
    if cond_seq is None:
        comp = int_array(composition, "composition", 1)
        if comp.size == 0:
            raise ConfigError("composition must count at least one symbol")
        block = np.repeat(np.arange(comp.size), comp)
        return rng.permutation(block)
    comp = int_array(composition, "conditional composition (cells x symbols)", 2)
    cond_seq = symbols(cond_seq, "cond_seq", comp.shape[0])
    if np.any(comp.sum(axis=1) != np.bincount(cond_seq, minlength=comp.shape[0])):
        raise ConfigError("cell totals do not match the conditioning sequence")
    return _arrange(_cell_plan(cond_seq, comp), rng)


def _cell_plan(cond_seq: np.ndarray, comp: np.ndarray) -> tuple:
    """The fixed part of every conditional draw on ``cond_seq``.

    ``block`` lists the sorted mark block of each cell present, in
    increasing cell order, and ``spans`` holds each block's slice.  Position
    ``i`` reads ``block[gather[i]]``.
    """
    cells, have = np.unique(cond_seq, return_counts=True)
    block = np.repeat(np.tile(np.arange(comp.shape[1]), cells.size), comp[cells].ravel())
    ends = np.cumsum(have).tolist()
    spans = tuple(slice(a, b) for a, b in zip([0] + ends[:-1], ends))
    gather = np.argsort(np.argsort(cond_seq, kind="stable"))
    return block, spans, gather


def _arrange(plan: tuple, rng: np.random.Generator) -> np.ndarray:
    """One uniform arrangement of each cell's marks, put at its positions:
    the same draws as ``rng.permutation`` of each block in cell order."""
    block, spans, gather = plan
    out = block.copy()
    for span in spans:
        rng.shuffle(out[span])
    return out[gather]


@dataclass(frozen=True)
class Codebook:
    """Realized fingerprint code: host, time-sharing key, lazy user rows.

    Row m is reproduced on demand from the keyed stream (seed, "row", j)
    with j the prototype index held by user m, so any subset of rows can be
    regenerated deterministically and in any order.  ``rp_perm[m]`` is that
    prototype index (identity when no user permutation was applied);
    ``rm_perm`` is the secret letter permutation, exposed to scoring only
    through :meth:`effective_w`.
    """

    params: CodeParams
    host: np.ndarray
    timeshare: np.ndarray
    seed: int
    rp_perm: np.ndarray | None = None
    rm_perm: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = self.params
        if not int_at_least(self.seed, 0):
            raise ConfigError(f"the seed must be an integer >= 0, not {self.seed!r}")
        host = symbols(self.host, "host", p.s_size)
        w = symbols(self.timeshare, "timeshare", p.w_size)
        if host.shape != (p.n,) or w.shape != (p.n,):
            raise ConfigError("host/timeshare length must equal the blocklength")
        if not np.array_equal(np.bincount(w, minlength=p.w_size), p.target_w_type.counts):
            raise ConfigError("timeshare sequence is not in the target type class")
        host.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "timeshare", w)
        for name, size in (("rp_perm", p.num_users), ("rm_perm", p.n)):
            perm = getattr(self, name)
            if perm is None:
                continue
            perm = symbols(perm, name, size)
            if perm.shape != (size,) or not np.array_equal(np.sort(perm), np.arange(size)):
                raise ConfigError(f"{name} is not a permutation of {size} indices")
            object.__setattr__(self, name, perm)

    # -- derived geometry ---------------------------------------------------

    def effective_w(self) -> np.ndarray:
        """Time-sharing sequence as seen by row generation and scoring.

        The letter permutation relocates the prototype's position structure;
        equivalently the rows are cell-matched to w pulled back through the
        inverse permutation.  Scoring against (host, effective_w) is exactly
        scoring the prototype rows against the permuted pirate sequence.
        """
        if self.rm_perm is None:
            return self.timeshare
        return self.timeshare[np.argsort(self.rm_perm)]

    def _cells(self) -> tuple[np.ndarray, tuple]:
        """(per-cell mark compositions, cell plan).

        The plan holds each non-empty cell's positions and sorted mark
        block, so a row only shuffles the blocks (see :func:`_cell_plan`).
        """
        key = "cells"
        if key not in self._cache:
            p = self.params
            cid = self.host * p.w_size + self.effective_w()
            have = np.bincount(cid, minlength=p.s_size * p.w_size)
            comp = np.zeros((p.s_size * p.w_size, p.x_size), dtype=np.int64)
            flat_target = p.target_x_given_sw.reshape(-1, p.x_size)
            for c in np.flatnonzero(have):
                comp[c] = quantize_pmf(flat_target[c], int(have[c])).counts
            self._check_distortion(comp)
            self._cache[key] = (comp, _cell_plan(cid, comp))
        return self._cache[key]

    def _check_distortion(self, comp: np.ndarray) -> None:
        p = self.params
        if p.d1 is None:
            return
        per_cell = comp.reshape(p.s_size, p.w_size, p.x_size)
        cost = float(np.einsum("swx,sx->", per_cell, p.d1)) / p.n
        if cost > p.distortion_cap + 1e-12:
            raise InfeasibleError(
                f"target composition costs {cost:.6g} > cap {p.distortion_cap:.6g}; "
                "every row would violate the embedding budget"
            )

    # -- rows -----------------------------------------------------------------

    def _user(self, m) -> int:
        if not int_at_least(m, 0) or m >= self.params.num_users:
            raise ConfigError(f"user index {m!r} is not in 0..{self.params.num_users - 1}")
        return int(m)

    def row(self, m: int) -> np.ndarray:
        """Codeword of user m (applies the user-index permutation).

        The same draw as ``sample_type_class(comp, gen, cond_seq=cid)`` on
        the key stream, with the cell plan built once per book.
        """
        m = self._user(m)
        proto = m if self.rp_perm is None else int(self.rp_perm[m])
        plan = self._cells()[1]
        gen = rngmod.derive(self.seed, "row", proto)
        return _arrange(plan, gen)

    def rows(self) -> np.ndarray:
        """All user rows as an (M, n) matrix (cached, small integer type)."""
        if "rows" not in self._cache:
            mat = self.row_block(range(self.params.num_users))
            mat.setflags(write=False)
            self._cache["rows"] = mat
        return self._cache["rows"]

    def row_block(self, users, known=None) -> np.ndarray:
        """Rows of ``users`` as a matrix of the smallest type holding a mark:
        int8 up to 127 marks, int16 beyond.  Rows found in ``known`` (a
        mapping from user to row), or in the matrix once :meth:`rows` has
        built it, are copied, not generated again."""
        if "rows" in self._cache:
            return self._cache["rows"][[self._user(m) for m in users]]
        known = known or {}
        dtype = np.int8 if self.params.x_size <= 127 else np.int16
        out = np.empty((len(users), self.params.n), dtype=dtype)
        for i, m in enumerate(users):
            m = self._user(m)
            out[i] = known[m] if m in known else self.row(m)
        return out

    def cell_compositions(self) -> np.ndarray:
        """Realized per-(s, w) mark compositions, shape (S, W, X)."""
        comp = self._cells()[0]
        return comp.reshape(self.params.s_size, self.params.w_size, self.params.x_size)


def build_codebook(
    params: CodeParams, s: np.ndarray, w: np.ndarray, seed: int
) -> Codebook:
    """Construct the codebook for a realized host and time-share sequence.

    Raises InfeasibleError if the quantized per-cell composition already
    breaks the embedding distortion cap (then no draw could succeed).
    """
    cb = Codebook(params=params, host=s, timeshare=w, seed=seed)
    cb._cells()  # force composition + distortion feasibility check
    return cb


def apply_rp(
    cb: Codebook,
    rng: np.random.Generator | None = None,
    perm: np.ndarray | None = None,
) -> Codebook:
    """Layer a secret user-index permutation over a codebook.

    ``perm`` maps user -> prototype row.  With a generator, a uniform
    permutation is drawn.  Applying a permutation and then its inverse
    restores the original assignment.
    """
    m = cb.params.num_users
    if perm is None:
        if rng is None:
            raise ConfigError("apply_rp needs a generator or an explicit permutation")
        perm = rng.permutation(m)
    perm = replace(cb, rp_perm=perm, _cache={}).rp_perm  # validated by Codebook
    old = cb.rp_perm if cb.rp_perm is not None else np.arange(m)
    return replace(cb, rp_perm=old[perm], _cache={})


def apply_rm(
    cb: Codebook,
    rng: np.random.Generator | None = None,
    perm: np.ndarray | None = None,
) -> Codebook:
    """Layer a secret letter permutation over a codebook.

    The identity permutation leaves the codebook unchanged.  Scoring code
    must pair rows and pirate output with :meth:`Codebook.effective_w`.
    """
    n = cb.params.n
    if perm is None:
        if rng is None:
            raise ConfigError("apply_rm needs a generator or an explicit permutation")
        perm = rng.permutation(n)
    perm = replace(cb, rm_perm=perm, _cache={}).rm_perm  # validated by Codebook
    old = cb.rm_perm if cb.rm_perm is not None else np.arange(n)
    return replace(cb, rm_perm=perm[old], _cache={})


# ---------------------------------------------------------------------------
# persistence: public row file + header, secret keyfile


def _seed_fingerprint(seed: int) -> str:
    return hashlib.sha256(str(int(seed)).encode()).hexdigest()[:16]


def write_codebook(cb: Codebook, rows_path, header_path, key_path) -> None:
    """Write rows as JSONL, public header and secret keyfile as JSON.

    The header carries the code parameters and a fingerprint of the seed
    (for pairing with the right keyfile); the seed itself, the permutations
    and the host/time-share sequences live only in the keyfile.
    """
    header = {
        "format": "fptrace-codebook-v1",
        "params": cb.params.to_dict(),
        "seed_fingerprint": _seed_fingerprint(cb.seed),
    }
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=1)
        fh.write("\n")
    with open(rows_path, "w") as fh:
        for m in range(cb.params.num_users):
            fh.write(json.dumps({"m": m, "x": cb.row(m).tolist()}))
            fh.write("\n")
    key = {
        "seed": int(cb.seed),
        "host": cb.host.tolist(),
        "timeshare": cb.timeshare.tolist(),
        "rp_perm": None if cb.rp_perm is None else cb.rp_perm.tolist(),
        "rm_perm": None if cb.rm_perm is None else cb.rm_perm.tolist(),
    }
    with open(key_path, "w") as fh:
        json.dump(key, fh)
        fh.write("\n")


def read_codebook(rows_path, header_path, key_path) -> Codebook:
    """Rebuild a codebook from its three files, validating consistency:
    the row file must list each user once, with the row of the keyed
    stream."""
    header = read_json(header_path, "codebook header")
    key = read_json(key_path, "codebook keyfile")
    with reading("codebook header"):
        if header["format"] != "fptrace-codebook-v1":
            raise ConfigError("unrecognized codebook header format")
        params = CodeParams.from_dict(header["params"])
        fingerprint = header["seed_fingerprint"]
    with reading("codebook keyfile"):
        cb = Codebook(params, key["host"], key["timeshare"], key["seed"], key["rp_perm"],
                      key["rm_perm"])
        if _seed_fingerprint(cb.seed) != fingerprint:
            raise ConfigError("keyfile does not match codebook header")
    users = []
    with reading("codebook rows"), open(rows_path) as fh:
        for line in filter(str.strip, fh):
            rec = json.loads(line)
            if not np.array_equal(cb.row(rec["m"]), symbols(rec["x"], "row marks", params.x_size)):
                raise ConfigError(f"row {rec['m']} does not match the keyed stream")
            users.append(rec["m"])
    if len(users) != params.num_users or len(set(users)) != len(users):
        raise ConfigError(f"the row file must list each of the {params.num_users} users once")
    return cb
