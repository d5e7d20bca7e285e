"""Codebook construction: exact compositions, keyed determinism, randomizers."""

import itertools
import json
import math

import numpy as np
import pytest

from fptrace import rng as rngmod
from fptrace.codec import (
    CodeParams,
    apply_rm,
    apply_rp,
    build_codebook,
    draw_host,
    draw_timeshare,
    read_codebook,
    sample_type_class,
    write_codebook,
)
from fptrace.errors import ConfigError, InfeasibleError
from fptrace.types_core import JointType, Sequence, joint_type, quantize_pmf


def small_params(n=12, m=5, s_size=2, w_size=2, x_size=2, seed=0):
    rng = np.random.default_rng(seed)
    tx = rng.dirichlet(np.ones(x_size), size=(s_size, w_size))
    wt = quantize_pmf(rng.dirichlet(np.ones(w_size)), n)
    return CodeParams(
        n=n,
        num_users=m,
        s_size=s_size,
        x_size=x_size,
        w_size=w_size,
        p_host=rng.dirichlet(np.ones(s_size)),
        target_w_type=wt,
        target_x_given_sw=tx,
    )


def fresh_codebook(seed=123, **kw):
    params = small_params(**kw)
    s = draw_host(params.p_host, params.n, rngmod.derive(seed, "host"))
    w = draw_timeshare(params, rngmod.derive(seed, "w"))
    return build_codebook(params, s, w, seed)


# ---------------------------------------------------------------------------
# parameters


def test_rate_is_log2_of_the_user_count_over_n():
    p = CodeParams(n=20, num_users=8)
    assert p.rate == pytest.approx(3 / 20)


def test_params_validation():
    with pytest.raises(ConfigError):
        CodeParams(n=10, num_users=4, p_host=np.array([0.5, 0.6]), s_size=2)
    with pytest.raises(ConfigError):
        CodeParams(n=10, num_users=4, target_x_given_sw=np.ones((1, 1, 2)))
    with pytest.raises(ConfigError):
        CodeParams(n=10, num_users=4, d1=np.zeros((1, 2)))  # cap missing


def test_params_dict_roundtrip():
    p = small_params()
    q = CodeParams.from_dict(p.to_dict())
    assert q.n == p.n and q.num_users == p.num_users
    assert np.allclose(q.target_x_given_sw, p.target_x_given_sw)
    assert np.array_equal(q.target_w_type.counts, p.target_w_type.counts)


# ---------------------------------------------------------------------------
# composition exactness


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rows_have_exact_conditional_composition(seed):
    cb = fresh_codebook(seed=seed, n=24, m=6)
    p = cb.params
    comp = cb.cell_compositions()
    cid = cb.host * p.w_size + cb.effective_w()
    for m in range(p.num_users):
        x = cb.row(m)
        for s in range(p.s_size):
            for w in range(p.w_size):
                got = np.bincount(x[cid == s * p.w_size + w], minlength=p.x_size)
                assert np.array_equal(got, comp[s, w])


def test_cell_compositions_quantize_per_cell_targets():
    cb = fresh_codebook(seed=9, n=30)
    p = cb.params
    cid = cb.host * p.w_size + cb.effective_w()
    have = np.bincount(cid, minlength=p.s_size * p.w_size)
    comp = cb.cell_compositions().reshape(-1, p.x_size)
    flat = p.target_x_given_sw.reshape(-1, p.x_size)
    for c in np.flatnonzero(have):
        want = quantize_pmf(flat[c], int(have[c])).counts
        assert np.array_equal(comp[c], want)


def test_timeshare_respects_target_type():
    params = small_params(n=16, w_size=3)
    w = draw_timeshare(params, np.random.default_rng(0))
    assert np.array_equal(
        np.bincount(w, minlength=3), params.target_w_type.counts
    )


# ---------------------------------------------------------------------------
# keyed determinism


def _loop_draw(comp, gen, cid):
    """Reference conditional draw: each present cell in increasing order,
    one permutation of its sorted mark block written at its positions."""
    out = np.empty(cid.size, dtype=np.int64)
    for c in np.flatnonzero(np.bincount(cid)):
        out[cid == c] = gen.permutation(np.repeat(np.arange(comp.shape[1]), comp[c]))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_rows_equal_the_reference_loop_on_their_key_stream(seed):
    cb = fresh_codebook(seed=seed, n=20 + 7 * seed, s_size=1 + seed % 3,
                        w_size=1 + seed // 3, x_size=(2, 3, 5)[seed % 3])
    cb = apply_rm(apply_rp(cb, rngmod.derive(seed, "rp")), rngmod.derive(seed, "rm"))
    p = cb.params
    cid = cb.host * p.w_size + cb.effective_w()
    comp = cb.cell_compositions().reshape(-1, p.x_size)
    for m in range(p.num_users):
        want = _loop_draw(comp, rngmod.derive(cb.seed, "row", int(cb.rp_perm[m])), cid)
        assert np.array_equal(cb.row(m), want)
        got = sample_type_class(comp, rngmod.derive(cb.seed, "row", int(cb.rp_perm[m])), cid)
        assert np.array_equal(got, want)


def test_codebook_is_reproducible_and_order_free():
    a = fresh_codebook(seed=77)
    b = fresh_codebook(seed=77)
    # row regeneration in scrambled order matches bulk materialization
    order = [3, 0, 4, 1, 2]
    for m in order:
        assert np.array_equal(a.row(m), b.rows()[m])
    assert np.array_equal(a.rows(), b.rows())


@pytest.mark.parametrize("user", [2.0, True, np.True_, "1", None, -1, 5])
def test_row_rejects_a_bad_user_index(user):
    cb = fresh_codebook(seed=4)
    with pytest.raises(ConfigError):
        cb.row(user)
    with pytest.raises(ConfigError):
        cb.row_block([0, user])
    with pytest.raises(ConfigError):
        cb.row_block([user], known={1: cb.row(1)})
    assert np.array_equal(cb.row(np.int64(1)), cb.row(1))


def test_different_seeds_differ():
    a = fresh_codebook(seed=1, n=40)
    b = fresh_codebook(seed=2, n=40)
    assert not np.array_equal(a.rows(), b.rows())


# ---------------------------------------------------------------------------
# uniformity over the type class


def test_single_cell_draws_are_uniform_over_class():
    # one cell, composition (2,2) over n=4: six arrangements, chi-square
    comp = np.array([2, 2])
    gen = rngmod.derive(42, "uniformity")
    hits = {}
    draws = 6000
    for _ in range(draws):
        x = tuple(sample_type_class(comp, gen))
        hits[x] = hits.get(x, 0) + 1
    assert len(hits) == 6
    expected = draws / 6
    chi2 = sum((c - expected) ** 2 / expected for c in hits.values())
    assert chi2 < 25.7  # dof=5, far tail


@pytest.mark.parametrize("composition, cond_seq", [
    (np.array([[2, 0], [1, 1]]), np.array([0, 0, 1, -1])),  # negative cell
    (np.array([[2, 0], [1, 1]]), np.array([[0, 0], [1, 1]])),  # 2-D cells
    (np.array([[3, -1], [1, 1]]), np.array([0, 0, 1, 1])),  # negative count
    (np.array([], dtype=np.int64), None),  # no symbols
    (np.array([1.5, 0.5]), None),  # fractional counts
    (np.array([[1.5, 1.5], [1, 1]]), np.array([0, 0, 1, 1])),
    (np.array([[2, 2]]), np.array([0.5, 0, 0, 0])),  # fractional cell id
])
def test_sampler_rejects_malformed_input(composition, cond_seq):
    with pytest.raises(ConfigError):
        sample_type_class(composition, np.random.default_rng(0), cond_seq=cond_seq)


def test_sampler_accepts_integral_float_counts():
    want = sample_type_class(np.array([2, 1]), np.random.default_rng(0))
    got = sample_type_class(np.array([2.0, 1.0]), np.random.default_rng(0))
    assert np.array_equal(got, want)


def test_conditional_sampler_validates_cell_totals():
    with pytest.raises(ConfigError):
        sample_type_class(
            np.array([[1, 1], [1, 0]]),  # cell 1 prescribes 1 symbol for 2 slots
            np.random.default_rng(0),
            cond_seq=np.array([0, 0, 1, 1]),
        )


# ---------------------------------------------------------------------------
# randomizers


def test_apply_rp_roundtrip_and_row_relabeling():
    cb = fresh_codebook(seed=5)
    m = cb.params.num_users
    perm = np.array([2, 0, 1, 4, 3])
    shuffled = apply_rp(cb, perm=perm)
    for u in range(m):
        assert np.array_equal(shuffled.row(u), cb.row(perm[u]))
    back = apply_rp(shuffled, perm=np.argsort(perm))
    assert np.array_equal(back.rows(), cb.rows())


def test_apply_rp_draws_uniform_permutation():
    cb = fresh_codebook(seed=6)
    out = apply_rp(cb, rng=np.random.default_rng(0))
    assert sorted(out.rp_perm.tolist()) == list(range(cb.params.num_users))


def test_apply_rm_identity_is_noop():
    cb = fresh_codebook(seed=8)
    same = apply_rm(cb, perm=np.arange(cb.params.n))
    assert np.array_equal(same.effective_w(), cb.effective_w())
    assert np.array_equal(same.rows(), cb.rows())


def test_apply_rm_preserves_composition_and_type_invariance():
    cb = fresh_codebook(seed=11, n=20)
    p = cb.params
    gen = rngmod.derive(99, "rm")
    out = apply_rm(cb, rng=gen)
    # rows still carry the exact composition against (host, effective_w)
    cid = out.host * p.w_size + out.effective_w()
    comp = out.cell_compositions().reshape(-1, p.x_size)
    x = out.row(0)
    for c in range(comp.shape[0]):
        got = np.bincount(x[cid == c], minlength=p.x_size)
        assert np.array_equal(got, comp[c])
    # scores built from joint types are invariant under a common relabeling
    # of positions, which is what makes the letter permutation transparent
    y = rngmod.derive(1, "y").integers(0, 2, p.n)
    pi = rngmod.derive(2, "pi").permutation(p.n)
    base = joint_type(
        [
            Sequence.of(x, p.x_size),
            Sequence.of(y, 2),
            Sequence.of(out.host, p.s_size),
            Sequence.of(out.effective_w(), p.w_size),
        ]
    )
    permuted = joint_type(
        [
            Sequence.of(x[pi], p.x_size),
            Sequence.of(y[pi], 2),
            Sequence.of(out.host[pi], p.s_size),
            Sequence.of(out.effective_w()[pi], p.w_size),
        ]
    )
    assert np.array_equal(base.counts, permuted.counts)


def test_apply_rm_composes():
    cb = fresh_codebook(seed=13)
    n = cb.params.n
    p1 = np.random.default_rng(1).permutation(n)
    p2 = np.random.default_rng(2).permutation(n)
    once = apply_rm(apply_rm(cb, perm=p1), perm=p2)
    w_eff = cb.timeshare[np.argsort(p1)][np.argsort(p2)]
    assert np.array_equal(once.effective_w(), w_eff)


# ---------------------------------------------------------------------------
# distortion budget


def test_infeasible_distortion_raises():
    # hamming cost, cap 0: any nonzero mark mass away from the host breaks it
    params = CodeParams(
        n=8,
        num_users=3,
        s_size=2,
        x_size=2,
        target_x_given_sw=np.broadcast_to(
            np.array([0.5, 0.5]), (2, 1, 2)
        ).copy(),
        d1=np.array([[0.0, 1.0], [1.0, 0.0]]),
        distortion_cap=0.0,
    )
    s = np.zeros(8, dtype=int)
    w = np.zeros(8, dtype=int)
    with pytest.raises(InfeasibleError):
        build_codebook(params, s, w, seed=0)


def test_feasible_distortion_passes_and_matches_check():
    params = CodeParams(
        n=10,
        num_users=2,
        s_size=2,
        x_size=2,
        target_x_given_sw=np.broadcast_to(np.array([0.8, 0.2]), (2, 1, 2)).copy(),
        d1=np.array([[0.0, 1.0], [0.0, 1.0]]),  # cost of printing symbol 1
        distortion_cap=0.35,
    )
    s = np.array([0] * 5 + [1] * 5)
    w = np.zeros(10, dtype=int)
    cb = build_codebook(params, s, w, seed=3)
    x = cb.row(0)
    value = params.d1[s, x].mean()
    assert value <= params.distortion_cap
    assert value == pytest.approx(np.mean(x == 1))


# ---------------------------------------------------------------------------
# persistence


def test_codebook_file_roundtrip(tmp_path):
    cb = apply_rm(
        apply_rp(fresh_codebook(seed=21), rng=rngmod.derive(21, "rp")),
        rng=rngmod.derive(21, "rm"),
    )
    rows = tmp_path / "code.jsonl"
    header = tmp_path / "code.json"
    key = tmp_path / "key.json"
    write_codebook(cb, rows, header, key)
    back = read_codebook(rows, header, key)
    assert np.array_equal(back.rows(), cb.rows())
    assert np.array_equal(back.effective_w(), cb.effective_w())
    # seed never leaks into the public header
    import json as _json

    public = _json.loads(header.read_text())
    assert "seed" not in public
    assert public["seed_fingerprint"] != str(cb.seed)


def test_codebook_reader_rejects_tampering(tmp_path):
    cb = fresh_codebook(seed=31)
    rows = tmp_path / "code.jsonl"
    header = tmp_path / "code.json"
    key = tmp_path / "key.json"
    write_codebook(cb, rows, header, key)
    lines = rows.read_text().splitlines()
    first = lines[0].replace('"x": [', '"x": [', 1)
    import json as _json

    rec = _json.loads(lines[0])
    rec["x"][0] = 1 - rec["x"][0]
    lines[0] = _json.dumps(rec)
    rows.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError):
        read_codebook(rows, header, key)


def test_codebook_reader_rejects_wrong_keyfile(tmp_path):
    a = fresh_codebook(seed=41)
    b = fresh_codebook(seed=42)
    write_codebook(a, tmp_path / "a.jsonl", tmp_path / "a.json", tmp_path / "a.key")
    write_codebook(b, tmp_path / "b.jsonl", tmp_path / "b.json", tmp_path / "b.key")
    with pytest.raises(ConfigError):
        read_codebook(tmp_path / "a.jsonl", tmp_path / "a.json", tmp_path / "b.key")


@pytest.mark.parametrize("name, bad", [("rm_perm", [0] * 12), ("rm_perm", [2, 0, 1])])
def test_codebook_reader_rejects_bad_permutations(tmp_path, name, bad):
    paths = tmp_path / "c.jsonl", tmp_path / "c.json", tmp_path / "c.key"
    write_codebook(fresh_codebook(seed=51), *paths)
    key = json.loads(paths[2].read_text())
    key[name] = bad
    paths[2].write_text(json.dumps(key))
    with pytest.raises(ConfigError):
        read_codebook(*paths)


def test_randomizers_reject_non_permutations():
    cb = fresh_codebook(seed=52)
    for bad in ([0, 0, 1, 2, 3], [0, 1, 2], [-1, 0, 1, 2, 3], [0, 1, 2, 3, 9]):
        with pytest.raises(ConfigError):
            apply_rp(cb, perm=bad)
    with pytest.raises(ConfigError):
        apply_rm(cb, perm=[0] * cb.params.n)


def test_draw_host_matches_law():
    p = np.array([0.2, 0.8])
    s = draw_host(p, 20000, np.random.default_rng(3))
    assert abs(np.mean(s == 1) - 0.8) < 0.02


@pytest.mark.parametrize("field,value", [
    ("n", 16.7), ("num_users", 4.2), ("k_nom", True), ("w_size", 1.0), ("s_size", "1"),
    ("target_w_type", [16.0]), ("target_w_type", [True]),
])
def test_params_from_dict_refuses_non_integers(field, value):
    d = CodeParams(n=16, num_users=4).to_dict()
    with pytest.raises(ConfigError):
        CodeParams.from_dict(dict(d, **{field: value}))


def test_params_from_dict_refuses_fractional_time_share_counts():
    # [8.5, 8.5] once truncated to a valid [8, 8]
    d = CodeParams(n=16, num_users=4, w_size=2).to_dict()
    with pytest.raises(ConfigError, match="target_w_type"):
        CodeParams.from_dict(dict(d, target_w_type=[8.5, 8.5]))


# ---------------------------------------------------------------------------
# the codebook files are checked like configs


def _book_files(tmp_path, seed=61):
    paths = tmp_path / "c.jsonl", tmp_path / "c.json", tmp_path / "c.key"
    write_codebook(fresh_codebook(seed=seed), *paths)
    return paths


def test_codebook_reader_refuses_a_row_file_missing_users(tmp_path):
    paths = _book_files(tmp_path)
    lines = paths[0].read_text().splitlines()
    paths[0].write_text(lines[0] + "\n")  # 1 of 5 users
    with pytest.raises(ConfigError, match="each of the 5 users once"):
        read_codebook(*paths)


def test_codebook_reader_refuses_a_fractional_user_index(tmp_path):
    paths = _book_files(tmp_path)
    lines = paths[0].read_text().splitlines()
    rec = json.loads(lines[0])
    rec["m"] = 0.7  # once read as user 0
    paths[0].write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    with pytest.raises(ConfigError, match="0.7"):
        read_codebook(*paths)


def test_codebook_reader_refuses_a_row_of_bools(tmp_path):
    paths = _book_files(tmp_path)
    lines = paths[0].read_text().splitlines()
    rec = json.loads(lines[0])
    rec["x"] = [bool(v) for v in rec["x"]]  # once equal to the keyed row
    paths[0].write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    with pytest.raises(ConfigError, match="row marks must be 1-D nonnegative integers"):
        read_codebook(*paths)


def test_codebook_reader_refuses_a_keyfile_without_seed_or_a_header_not_json(tmp_path):
    paths = _book_files(tmp_path)
    key = json.loads(paths[2].read_text())
    del key["seed"]
    paths[2].write_text(json.dumps(key))
    with pytest.raises(ConfigError, match="seed"):
        read_codebook(*paths)
    paths = _book_files(tmp_path)
    paths[1].write_text("{not json")
    with pytest.raises(ConfigError, match="codebook header"):
        read_codebook(*paths)


def test_params_take_a_time_share_type_alone_and_flat_or_nested_tables():
    alone = CodeParams.from_dict({"n": 16, "num_users": 4, "target_w_type": [16]})
    assert alone.target_w_type.counts.tolist() == [16]
    nested = dict(n=16, num_users=4, s_size=2, w_size=2, target_w_type=[8, 8],
                  target_x_given_sw=[[[0.5, 0.5], [0.25, 0.75]], [[1, 0], [0, 1]]],
                  d1=[[0, 1], [1, 0]], distortion_cap=1.0)
    flat = dict(nested, target_x_given_sw=np.ravel(nested["target_x_given_sw"]).tolist(),
                d1=[0, 1, 1, 0])
    a, b = CodeParams.from_dict(nested), CodeParams.from_dict(flat)
    assert np.array_equal(a.target_x_given_sw, b.target_x_given_sw)
    assert np.array_equal(a.d1, b.d1) and a.d1.shape == (2, 2)
    with pytest.raises(ConfigError, match="shape"):
        CodeParams.from_dict(dict(nested, d1=[[0, 1, 1, 0]]))  # 2-D but not (S, X)
