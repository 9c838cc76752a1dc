import csv
import io
import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from stencilpipe import cli, kernel
from stencilpipe.cli import (RunConfig, _config_from_args, build_parser, main,
                             parse_span)
from stencilpipe.perfmodel import ModelFormatError, load_network_model
from stencilpipe.pipeline import PipelineDeadlock
from stencilpipe.transport import parse_rankfile, tcp_endpoint
from tests.conftest import free_ports


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_parse_span_grammar():
    assert parse_span("1:4") == [1, 2, 3, 4]
    assert parse_span("0:8:2") == [0, 2, 4, 6, 8]
    assert parse_span("2,8,16") == [2, 8, 16]
    with pytest.raises(ValueError):
        parse_span("1:10:0")
    for empty in ("4:1", "8:1:2", ",", ""):
        with pytest.raises(ValueError, match="no values"):
            parse_span(empty)


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", "12", "--block", "12,6,6", "--sweep-t", "4:1"],
    ["sweep", "--grid", "12", "--block", "12,6,6", "--sweep-t", ","],
    ["model", "--op", "bound", "--machine", "istanbul", "--t-range", "8:1"]])
def test_empty_span_is_config_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "config error" in err and "no values" in err
    assert out == ""


@pytest.mark.parametrize("argv,named", [
    (["solve", "--grid", "8", "--block", "8,4"], "--block '8,4': expected 3 "),
    (["dist", "--grid", "8", "--block", "4,4,4", "--topo", "2,1"],
     "--topo '2,1': expected 3 "),
    (["solve", "--grid", "8", "--block", "a,4,4"], "--block 'a,4,4': invalid "),
    (["sweep", "--grid", "8", "--block", "8,8,8", "--sweep-t", "1,x"],
     "--sweep-t '1,x': invalid "),
    (["model", "--op", "bound", "--machine", "istanbul", "--t-range", "1:y"],
     "--t-range '1:y': invalid "),
], ids=["block_short", "topo_short", "block_word", "sweep_t_word", "t_range"])
def test_bad_list_flag_is_config_error_naming_the_flag(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {named}") and err.count("\n") == 1


def test_config_hash_stable_and_sensitive():
    def digest(rc):
        return rc.run().digest()

    a, b = RunConfig(), RunConfig()
    assert digest(a) == digest(b)
    assert digest(RunConfig(d_u=7)) != digest(a)


# config hashes of fixed runs: a change to the digest text, or to what a
# flag or config key resolves to, shows here.  A solve and a dist on 1,1,1
# of the same flags are one run and share a hash.
_SOLVE_12 = ["solve", "--grid", "12", "--block", "12,4,4", "--t", "2"]
_DIST_2 = ["dist", "--topo", "2,1,1", "--block", "8,8,8", "--t", "1",
           "--T", "2"]
_RING_40 = ["--grid", "40", "--block", "20,8,8", "--t", "2", "--T", "2",
            "--mode", "compressed", "--init", "random_ring"]
PINNED_HASHES = {
    "solve": (_SOLVE_12 + ["--T", "1", "--passes", "3"],
              ["0ab4999f7cdc80be"]),
    "solve_compressed": (_SOLVE_12 + ["--T", "2", "--mode", "compressed",
                                      "--passes", "1", "--init",
                                      "random_ring"],
                         ["6c85ba8148d36f56"]),
    "sweep": (["sweep", "--grid", "12", "--block", "12,4,4", "--sweep-t",
               "0,1,2", "--sweep-T", "1,2"],
              ["", "", "b0473dd2aa8ac369", "dc3d32b322ebcb5a",
               "c2e9b40958a0098a", "40c9829ca7c02800"]),
    "dist": (_DIST_2 + ["--grid", "16", "--cycles", "3"],
             ["fa2b60180560a330"] * 2),
    "dist_weak": (_DIST_2 + ["--grid", "8", "--cycles", "3", "--scaling",
                             "weak"],
                  ["1ab54b3435ff27db"] * 2),
    "solve_ring": (["solve", *_RING_40, "--passes", "3"],
                   ["ddb6ea3981c26e7b"]),
    "dist_one_rank": (["dist", "--topo", "1,1,1", *_RING_40, "--cycles", "3"],
                      ["ddb6ea3981c26e7b"]),
}


@pytest.mark.parametrize("name", PINNED_HASHES)
def test_config_hashes_are_pinned(name, capsys):
    argv, hashes = PINNED_HASHES[name]
    code, out, err = run_cli(argv + ["--json"], capsys)
    assert code == 0, err
    assert [row["config_hash"] for row in json.loads(out)] == hashes


def test_dist_counts_cycles_and_has_no_passes_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_DIST_2 + ["--grid", "16", "--passes", "3"])
    assert exc.value.code == 2
    assert "--passes" in capsys.readouterr().err
    # a config file's passes key is the cycle count
    cfg = tmp_path / "run.cfg"
    cfg.write_text("passes = 3\n")
    code, out, err = run_cli(_DIST_2 + ["--grid", "16", "--config", str(cfg),
                                        "--json"], capsys)
    assert code == 0, err
    rows = json.loads(out)
    assert [row["config_hash"] for row in rows] == ["fa2b60180560a330"] * 2
    assert all(row["messages"] == 3 for row in rows)


def test_solve_verify_reports_bitwise_match(capsys):
    code, out, _ = run_cli(["solve", "--grid", "16", "--t", "2",
                            "--block", "16,8,8", "--passes", "2", "--verify"],
                           capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["verified"] == "bitwise match"
    assert float(row["mlups"]) > 0


def test_solve_documented_example_invocation(capsys):
    # the README's first example, verbatim
    code, out, _ = run_cli(["solve", "--grid", "60", "--t", "3", "--T", "1",
                            "--passes", "2", "--block", "60,20,20",
                            "--verify"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["verified"] == "bitwise match"


def test_solve_rejects_bad_config(capsys):
    code, _, err = run_cli(["solve", "--grid", "16", "--block", "32,8,8"],
                           capsys)
    assert code == 2
    assert "config error" in err


def test_a_pipeline_thread_that_cannot_start_is_a_config_error():
    # a child whose stack limit exceeds the address space: glibc sizes a new
    # thread's stack by that limit, so mapping it fails and the driver cannot
    # start position 1's thread; the child starts no other thread
    if kernel.BACKEND != "c":
        pytest.skip("no compiled driver: the walker starts no thread")
    huge = 1 << 47
    hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
    if hard != resource.RLIM_INFINITY and hard < huge:
        pytest.skip(f"the hard stack limit {hard} is too low to raise")
    # the limit is read when the process starts: set it, then exec the CLI;
    # one BLAS thread, since numpy's BLAS would start its others at import
    child = ("import os, resource, sys; resource.setrlimit(resource.RLIMIT_"
             f"STACK, ({huge}, {hard})); os.execv(sys.executable, "
             "[sys.executable, '-m', 'stencilpipe.cli', *sys.argv[1:]])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", child, "solve", "--grid", "12", "--block",
         "12,4,4", "--t", "2", "--passes", "1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("config error: [Errno ")
    assert "could not start the thread of pipeline position 1" in done.stderr


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nx = 16\nny = 16\nnz = 16\nt = 2\nbx = 16\nby = 8\n"
                   "bz = 8\npasses = 2\n")
    code, out, _ = run_cli(["solve", "--config", str(cfg), "--verify"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["t"] == "2" and row["nx"] == "16"
    # flags override file values
    code2, out2, _ = run_cli(["solve", "--config", str(cfg), "--t", "1",
                              "--verify"], capsys)
    (row2,) = rows_of(out2)
    assert row2["t"] == "1"


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_factor = 9\n")
    code, _, err = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 2


def test_snapshot_determinism_same_hash(tmp_path, capsys):
    outs = []
    for name in ("a.grid", "b.grid"):
        path = tmp_path / name
        code, out, _ = run_cli(["solve", "--grid", "16", "--t", "2", "--T", "1",
                                "--mode", "compressed", "--block", "16,8,8",
                                "--passes", "2", "--out", str(path)], capsys)
        assert code == 0
        (row,) = rows_of(out)
        outs.append((row["config_hash"], path.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_output_row_roundtrips_through_config_file(tmp_path, capsys):
    # a run can be reproduced from the config fields embedded in its output
    first = tmp_path / "first.grid"
    code, out, _ = run_cli(["solve", "--grid", "16", "--n", "2", "--t", "2",
                            "--mode", "compressed", "--block", "16,8,8",
                            "--passes", "2", "--out", str(first)], capsys)
    assert code == 0
    (row,) = rows_of(out)
    cfg_file = tmp_path / "replay.cfg"
    cfg_file.write_text("".join(
        f"{k} = {row[k]}\n" for k in RunConfig().as_dict()))
    second = tmp_path / "second.grid"
    code2, out2, _ = run_cli(["solve", "--config", str(cfg_file),
                              "--out", str(second)], capsys)
    assert code2 == 0
    (row2,) = rows_of(out2)
    assert row2["config_hash"] == row["config_hash"]
    assert second.read_bytes() == first.read_bytes()


def test_sweep_emits_row_per_combination(capsys):
    code, out, _ = run_cli(["sweep", "--grid", "12", "--block", "12,6,6",
                            "--passes", "2", "--sweep-t", "1,2",
                            "--sweep-du", "0:2"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 6  # 2 thread counts x 3 d_u values
    bad = [r for r in rows if r["status"].startswith("config_error")]
    good = [r for r in rows if r["status"] == "ok"]
    assert len(bad) == 2 and len(good) == 4  # d_u=0 violates d_u >= d_l


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
@pytest.mark.parametrize("span", [("--sweep-t", "0,1"), ("--sweep-du", "0,3")],
                         ids=["t", "du"])
def test_sweep_sizes_the_configs_it_refuses(span, mode, capsys):
    # the preflight sizes every (t, T) of the sweep, valid or not: a config
    # that the pipeline refuses is a config_error row, not a failed sweep
    code, out, err = run_cli(["sweep", "--grid", "12", "--block", "12,6,6",
                              "--mode", mode, *span], capsys)
    assert code == 0 and err == ""
    assert [r["status"].partition(":")[0] for r in rows_of(out)] == [
        "config_error", "ok"]


_WAIT_COLUMNS = ("pred_wait_s", "succ_wait_s", "wait_share")


def test_solve_row_reports_its_wait(capsys):
    # summed over positions; the share is of wall seconds times positions
    argv = ["solve", "--grid", "24", "--block", "24,4,4", "--passes", "4",
            "--json"]
    code, out, err = run_cli(argv + ["--t", "2"], capsys)
    assert code == 0, err
    (row,) = json.loads(out)
    assert row["pred_wait_s"] >= 0 and row["succ_wait_s"] >= 0
    assert 0 <= row["wait_share"] <= 1
    waits = row["pred_wait_s"] + row["succ_wait_s"]
    assert row["wait_share"] == pytest.approx(
        waits / (2 * row["wall_seconds"]), abs=1e-4 + 1e-6 / row["wall_seconds"])
    code, out, err = run_cli(argv + ["--t", "1", "--T", "2"], capsys)
    assert code == 0, err
    (row,) = json.loads(out)
    assert [row[k] for k in _WAIT_COLUMNS] == [0, 0, 0]


def test_sweep_config_error_row_leaves_the_wait_columns_empty(capsys):
    code, out, err = run_cli(["sweep", "--grid", "12", "--block", "12,6,6",
                              "--sweep-du", "0,3", "--t", "2", "--json"],
                             capsys)
    assert code == 0, err
    bad, good = json.loads(out)
    assert list(bad) == list(good)  # one CSV header fits both
    assert [bad[k] for k in _WAIT_COLUMNS] == ["", "", ""]
    assert 0 <= good["wait_share"] <= 1


def test_model_baseline_csv(capsys):
    code, out, _ = run_cli(["model", "--op", "baseline", "--machine",
                            "nehalem_ep", "--machine", "nehalem_ex"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert [float(r["baseline_mlups"]) for r in rows] == [1187.5, 493.75]


def test_model_cycles_json(capsys):
    code, out, _ = run_cli(["model", "--op", "cycles", "--machine", "istanbul",
                            "--levels", "L3", "--json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    assert row["cycles_min"] == 26.0
    assert row["bandwidth_min_GBps"] == 12.8


def test_model_multihalo_curve_shape(capsys):
    code, out, _ = run_cli(["model", "--op", "multihalo",
                            "--L", "10:400:10", "--h", "2,8,16,32"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 40 * 4
    by_h = {}
    for r in rows:
        by_h.setdefault(int(r["h"]), {})[int(r["L"])] = float(r["multihalo"])
    # aggregation pays at small L, washes out at large L
    assert by_h[32][10] > 1.0
    for h in (2, 8, 16, 32):
        assert 0.95 <= by_h[h][400] <= 1.05


def test_model_scalability_auto_bj(capsys):
    code, out, _ = run_cli(["model", "--op", "scalability", "--machine",
                            "nehalem_ep", "--t-range", "1:5"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert rows[0]["scales"] == "True"
    assert rows[-1]["scales"] == "False"


def test_model_unknown_machine_is_config_error(capsys):
    code, _, err = run_cli(["model", "--op", "baseline", "--machine",
                            "/nonexistent/machine.model"], capsys)
    assert code == 2


def test_bench_cli_row(capsys):
    code, out, _ = run_cli(["bench", "--kernel", "update", "--elements",
                            "100000", "--threads", "1", "--reps", "2"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["kernel"] == "update"
    assert float(row["bandwidth_Bps"]) > 0


def test_dist_inprocess_verify(tmp_path, capsys):
    code, out, _ = run_cli(["dist", "--topo", "2,1,1", "--grid", "24",
                            "--t", "2", "--block", "12,8,8", "--cycles", "2",
                            "--out-dir", str(tmp_path), "--verify"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 2
    assert all(r["verified"] == "bitwise match" for r in rows)
    assert all(0 <= float(r["wait_s"]) <= float(r["transfer_s"]) for r in rows)
    assert (tmp_path / "rank_0.grid").exists()
    assert (tmp_path / "rank_1.grid").exists()


def test_dist_impulse_init_verifies(capsys):
    # solve, sweep and dist share the init rules; the impulse sits on the
    # corner the four ranks share
    code, out, err = run_cli(["dist", "--topo", "2,2,1", "--grid", "24",
                              "--t", "2", "--block", "12,8,8", "--cycles",
                              "2", "--init", "impulse", "--verify"], capsys)
    assert code == 0, err
    assert [r["verified"] for r in rows_of(out)] == ["bitwise match"] * 4


def test_solve_and_dist_verify_with_a_nonzero_ring(capsys):
    # a ring unlike the zero pad below it: a compressed pass that read the
    # pad where it should read the ring would fail the oracle
    code, out, err = run_cli(["solve", "--grid", "24", "--t", "2",
                              "--block", "24,8,8", "--mode", "compressed",
                              "--passes", "4", "--init", "random_ring",
                              "--verify"], capsys)
    assert code == 0, err
    assert rows_of(out)[0]["verified"] == "bitwise match"
    code, out, err = run_cli(["dist", "--topo", "2,2,1", "--grid", "24",
                              "--t", "2", "--block", "12,8,8", "--mode",
                              "compressed", "--cycles", "3", "--init",
                              "random_ring", "--verify"], capsys)
    assert code == 0, err
    assert [r["verified"] for r in rows_of(out)] == ["bitwise match"] * 4


def test_dist_rejects_a_negative_cycle_count(capsys):
    # -1 cycles would compare the initial grid with itself and verify
    code, out, err = run_cli(["dist", "--topo", "2,1,1", "--grid", "12",
                              "--block", "6,6,6", "--cycles", "-1",
                              "--verify"], capsys)
    assert code == 2 and out == ""
    assert err == "config error: pass count must be >= 0, got -1\n"


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("argv", [
    ["solve", "--grid", "12", "--block", "12,6,6"],
    ["dist", "--topo", "2,1,1", "--grid", "12", "--block", "6,6,6"]],
    ids=["solve", "dist"])
def test_seed_outside_the_generator_range_is_config_error(argv, seed, capsys):
    code, out, err = run_cli(argv + ["--seed", seed], capsys)
    assert code == 2 and out == ""
    assert err == f"config error: seed must lie in [0, 2**64), got {seed}\n"


def test_dist_rejects_mismatched_topology(capsys):
    code, _, err = run_cli(["dist", "--topo", "2,1,1", "--grid", "25",
                            "--t", "2", "--block", "12,8,8"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv,dims", [
    (["solve", "--grid", "0"], (0, 0, 0)),
    (["solve", "--grid", "-4", "--block", "1,1,1"], (-4, -4, -4)),
    (["solve", "--grid", "8", "--ny", "0", "--block", "1,1,1"], (8, 0, 8)),
    (["dist", "--topo", "2,1,1", "--grid", "0"], (0, 0, 0)),
    (["sweep", "--grid", "0", "--sweep-t", "1,2"], (0, 0, 0)),
], ids=["solve", "solve_negative", "solve_ny", "dist", "sweep"])
def test_grid_extent_below_one_is_config_error(argv, dims, capsys):
    # named before the block is compared with the grid it does not fit
    assert run_cli(argv, capsys) == (
        2, "", f"config error: grid dimensions must be >= 1, got {dims}\n")


# Grid bytes each run holds: a grid of interior n^3 at pad p stores
# (n + 2 + p)^3 doubles, a compressed engine 6 n^2 face doubles beside it,
# and each --verify reference sweep an n^3 temporary.
PREFLIGHT_RUNS = {
    # the pair, the --verify oracle pair and its temporary:
    # (4 * 14^3 + 12^3) * 8
    "solve": (["solve", "--grid", "12", "--block", "12,6,6", "--verify"],
              101632),
    # the largest pad of the sweep, h = 2, and its engine's faces:
    # (16^3 + 6 * 12^2) * 8
    "sweep": (["sweep", "--grid", "12", "--block", "12,6,6", "--mode",
               "compressed", "--sweep-t", "1,2"], 39680),
    # two ranks of 7x12x12 (6 owned + 1 halo), each a pair:
    # 4 * 9*14*14 * 8, plus assemble_global's grid, the oracle pair and its
    # temporary, (3 * 14^3 + 12^3) * 8
    "dist": (["dist", "--topo", "2,1,1", "--grid", "12", "--block", "6,6,6",
              "--verify"], 56448 + 79680),
}


@pytest.mark.parametrize("run", PREFLIGHT_RUNS, ids=list(PREFLIGHT_RUNS))
@pytest.mark.parametrize("available", ["fits", "short", "absent"])
def test_memory_preflight(run, available, monkeypatch, capsys):
    argv, need = PREFLIGHT_RUNS[run]
    free = {"fits": need, "short": need - 1, "absent": None}[available]
    monkeypatch.setattr(cli, "mem_available", lambda: free)
    if available != "short":
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out
        return

    def no_grid(*_a, **_k):
        raise AssertionError("a grid was allocated before the preflight")

    for name in ("create_grid", "run_pipelined", "run_distributed_inprocess"):
        monkeypatch.setattr(cli, name, no_grid)
    assert run_cli(argv, capsys) == (
        2, "", f"config error: the run's grids need {need} B but only "
               f"{need - 1} B of memory are available\n")


def test_memory_preflight_counts_the_oracles_temporary(monkeypatch, capsys):
    # each reference sweep of --verify allocates an interior-sized
    # temporary: memory for the pair, the oracle pair and four sets of
    # faces, 4 * (34^3 + 6 * 32^2) * 8 B, is not enough for the pair, the
    # oracle pair and that temporary, (4 * 34^3 + 32^3) * 8 B
    def no_grid(*_a, **_k):
        raise AssertionError("a grid was allocated before the preflight")

    monkeypatch.setattr(cli, "mem_available", lambda: 1454336)
    monkeypatch.setattr(cli, "create_grid", no_grid)
    assert run_cli(["solve", "--grid", "32", "--block", "32,8,8",
                    "--verify"], capsys) == (
        2, "", "config error: the run's grids need 1519872 B but only "
               "1454336 B of memory are available\n")


def test_memory_preflight_of_a_tcp_rank_counts_its_own_grids(
        tmp_path, monkeypatch, capsys):
    def no_connect(*_args):
        raise AssertionError("a rank connected before the preflight")

    monkeypatch.setattr(cli, "tcp_endpoint", no_connect)
    monkeypatch.setattr(cli, "mem_available", lambda: 28223)
    rankfile = tmp_path / "ranks.txt"
    rankfile.write_text("0 127.0.0.1 1\n1 127.0.0.1 2\n")
    # rank 1's pair of 7x12x12 cells: 2 * 9*14*14 * 8 B
    assert run_cli(["dist", "--topo", "2,1,1", "--grid", "12", "--block",
                    "6,6,6", "--ranks", "2", "--rank", "1", "--rankfile",
                    str(rankfile)], capsys) == (
        2, "", "config error: the run's grids need 28224 B but only 28223 B "
               "of memory are available\n")


@pytest.mark.parametrize("rank", ["2", "-1"])
def test_tcp_rank_outside_the_topology_is_config_error(rank, tmp_path,
                                                        monkeypatch, capsys):
    def no_connect(*_args):
        raise AssertionError("a rank outside the topology connected")

    monkeypatch.setattr(cli, "tcp_endpoint", no_connect)
    rankfile = tmp_path / "ranks.txt"
    rankfile.write_text("0 127.0.0.1 1\n1 127.0.0.1 2\n")
    assert run_cli(["dist", "--topo", "2,1,1", "--grid", "12", "--block",
                    "6,6,6", "--ranks", "2", "--rank", rank, "--rankfile",
                    str(rankfile)], capsys) == (
        2, "", f"config error: rank {rank} outside 0..1\n")


@pytest.mark.parametrize("text", ["0 127.0.0.1\n1 127.0.0.1 2\n",
                                  "0 127.0.0.1 1\n2 127.0.0.1 2\n",
                                  "x 127.0.0.1 1\n1 127.0.0.1 2\n"],
                         ids=["no_port", "not_dense", "non_integer_rank"])
def test_malformed_rankfile_is_config_error(text, tmp_path, monkeypatch,
                                            capsys):
    def no_connect(*_args):
        raise AssertionError("a rank connected with a malformed rankfile")

    monkeypatch.setattr(cli, "tcp_endpoint", no_connect)
    rankfile = tmp_path / "ranks.txt"
    rankfile.write_text(text)
    code, out, err = run_cli(["dist", "--topo", "2,1,1", "--grid", "8",
                              "--block", "4,4,4", "--ranks", "2", "--rank",
                              "0", "--rankfile", str(rankfile)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error: rankfile") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--rank", "5"], ["--ranks", "9"],
                                   ["--rank", "5", "--ranks", "9"]])
def test_dist_rank_flags_need_a_rankfile(flags, monkeypatch, capsys):
    def no_run(*_args):
        raise AssertionError("ranks ran in process despite --rank/--ranks")

    monkeypatch.setattr(cli, "run_distributed_inprocess", no_run)
    code, out, err = run_cli(["dist", "--topo", "2,1,1", "--grid", "8",
                              "--block", "4,4,4", "--cycles", "1", *flags],
                             capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "--rank and --ranks need --rankfile" in err


def test_mem_available_reads_meminfo(tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:        8000000 kB\n"
                       "MemFree:          100000 kB\n"
                       "MemAvailable:    4000000 kB\n")
    assert cli.mem_available(meminfo) == 4000000 * 1024
    meminfo.write_text("MemTotal:        8000000 kB\n")  # kernels before 3.14
    assert cli.mem_available(meminfo) is None
    assert cli.mem_available(tmp_path / "absent") is None


# ---------------------------------------------------------------------------
# provenance: equal stamps mean equal output
# ---------------------------------------------------------------------------

DIST_VARIANTS = {
    "topo_x": ["--topo", "2,1,1"],
    "topo_y": ["--topo", "1,2,1"],
    "cycles": ["--topo", "2,1,1", "--cycles", "3"],
    "weak": ["--topo", "2,1,1", "--scaling", "weak"],
    "topo_x_again": ["--topo", "2,1,1"],
}


@pytest.fixture(scope="module")
def dist_runs(tmp_path_factory):
    """Each variant's exit code, CSV rows and rank snapshot bytes."""
    runs = {}
    for name, extra in DIST_VARIANTS.items():
        out = tmp_path_factory.mktemp(name)
        code = main(["dist", "--grid", "24", "--block", "8,8,8", "--verify",
                     "--out-dir", str(out / "grids"),
                     "--csv", str(out / "rows.csv"), *extra])
        rows = rows_of((out / "rows.csv").read_text())
        files = {p.name: p.read_bytes()
                 for p in sorted((out / "grids").iterdir())}
        runs[name] = (code, rows, files)
    return runs


def test_dist_stamp_covers_topology_cycles_and_scaling(dist_runs):
    stamps = {}
    for name, (code, rows, _files) in dist_runs.items():
        assert code == 0
        assert all(r["verified"] == "bitwise match" for r in rows)
        assert len({r["config_hash"] for r in rows}) == 1
        stamps[name] = rows[0]["config_hash"]
    distinct = [stamps[k] for k in ("topo_x", "topo_y", "cycles", "weak")]
    assert len(set(distinct)) == 4
    assert stamps["topo_x_again"] == stamps["topo_x"]


def test_dist_weak_scaling_gives_each_rank_the_grid_extent(dist_runs):
    # --grid 24 on 2,1,1: weak scaling solves 48x24x24, strong 24x24x24;
    # both verify bitwise against the oracle of that global grid
    headers = {name: [f.split(b"\n", 1)[0] for f in files.values()]
               for name, (_code, _rows, files) in dist_runs.items()}
    assert headers["weak"] == [b"24 24 24"] * 2
    assert headers["topo_x"] == [b"12 24 24"] * 2


def test_dist_equal_stamps_write_identical_rank_files(dist_runs):
    runs = list(dist_runs.values())
    pairs = 0
    for i, (_c, rows_i, files_i) in enumerate(runs):
        for _c2, rows_j, files_j in runs[i + 1:]:
            if rows_i[0]["config_hash"] == rows_j[0]["config_hash"]:
                assert files_i == files_j
                pairs += 1
    assert pairs >= 1


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
def test_watchdog_must_be_finite_and_positive(budget, monkeypatch, capsys):
    def no_run(*_a, **_k):
        raise AssertionError("a run started despite the bad watchdog")

    monkeypatch.setattr(cli, "run_pipelined", no_run)
    code, _, err = run_cli(["solve", "--grid", "16", "--block", "16,8,8",
                            "--t", "2", "--sync", "barrier",
                            "--watchdog", budget], capsys)
    assert code == 2
    assert err.startswith("config error:") and "watchdog" in err


@pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
def test_dist_watchdog_must_be_finite_and_positive(budget, monkeypatch,
                                                   capsys):
    def no_run(*_a, **_k):
        raise AssertionError("a run started despite the bad watchdog")

    monkeypatch.setattr(cli, "run_distributed_inprocess", no_run)
    code, _, err = run_cli(["dist", "--topo", "2,1,1", "--grid", "12",
                            "--block", "6,6,6", "--watchdog", budget], capsys)
    assert code == 2
    assert err.startswith("config error:") and "watchdog" in err


def test_dist_watchdog_bounds_a_tcp_rank_wait(tmp_path, capsys):
    # the peer connects and then stays silent: rank 0 gives up at its 0.5 s
    # watchdog, not the 30 s default, and exits with a transport error
    addresses = [("127.0.0.1", p) for p in free_ports(2)]
    rankfile = tmp_path / "ranks.txt"
    rankfile.write_text("".join(f"{r} {host} {port}\n"
                                for r, (host, port) in enumerate(addresses)))
    codes, peer = [], []
    done = threading.Event()

    def rank0():
        codes.append(main(["dist", "--topo", "2,1,1", "--grid", "12",
                           "--block", "6,6,6", "--ranks", "2", "--rank", "0",
                           "--rankfile", str(rankfile), "--watchdog", "0.5"]))

    def silent_rank1():
        peer.append(tcp_endpoint(1, addresses))
        done.wait(timeout=30)
        peer[0].close()

    ts = [threading.Thread(target=f, daemon=True)
          for f in (rank0, silent_rank1)]
    for t in ts:
        t.start()
    ts[0].join(timeout=20)
    done.set()
    ts[1].join(timeout=20)
    assert codes == [3] and not any(t.is_alive() for t in ts)
    assert "timed out" in capsys.readouterr().err


def _deadlock(*_a, **_k):
    raise PipelineDeadlock("no pipeline progress for 0.1s; counters = [3, 1]")


@pytest.mark.parametrize("argv,target", [
    (["solve", "--grid", "12", "--block", "12,6,6"], "run_pipelined"),
    (["sweep", "--grid", "12", "--block", "12,6,6", "--sweep-t", "1,2"],
     "run_pipelined"),
    (["dist", "--topo", "2,1,1", "--grid", "12", "--block", "6,6,6"],
     "run_distributed_inprocess"),
], ids=["solve", "sweep", "dist"])
def test_pipeline_deadlock_exits_run_error(argv, target, monkeypatch, capsys):
    monkeypatch.setattr(cli, target, _deadlock)
    code, _, err = run_cli(argv, capsys)
    assert code == 4
    assert err == ("run error: no pipeline progress for 0.1s; "
                   "counters = [3, 1]\n")


def _raises(exc):
    def run(*_a, **_k):
        raise exc
    return run


@pytest.mark.parametrize("exc,code,err", [
    (MemoryError("Unable to allocate 7.11 PiB for an array"), 2,
     "config error: Unable to allocate 7.11 PiB for an array\n"),
    (MemoryError(), 2, "config error: out of memory\n"),
    (KeyError("faces"), 5, "internal error: KeyError: 'faces'\n"),
    (RuntimeError("two\nlines"), 5, "internal error: RuntimeError: two lines\n"),
], ids=["memory", "memory_bare", "key", "multiline"])
def test_unexpected_errors_exit_with_their_own_code(exc, code, err,
                                                    monkeypatch, capsys):
    # never 1, which means that --verify found a mismatch; no traceback
    monkeypatch.setattr(cli, "run_pipelined", _raises(exc))
    assert run_cli(["solve", "--grid", "12", "--block", "12,6,6"],
                   capsys) == (code, "", err)


def test_tcp_handshake_mismatch_exits_transport_error(tmp_path, capsys):
    rankfile = tmp_path / "ranks.txt"
    rankfile.write_text("".join(f"{r} 127.0.0.1 {p}\n"
                                for r, p in enumerate(free_ports(2))))
    codes = [None, None]

    def rank(r):
        codes[r] = main(["dist", "--topo", "2,1,1", "--grid", "12",
                         "--block", "6,6,6", "--ranks", "2", "--rank", str(r),
                         "--rankfile", str(rankfile),
                         "--du", ("3", "4")[r]])

    ts = [threading.Thread(target=rank, args=(r,), daemon=True)
          for r in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=60)
    assert codes == [3, 3]
    assert "config hash mismatch" in capsys.readouterr().err


def test_dist_rankfile_rejects_verify(tmp_path, monkeypatch, capsys):
    # a TCP rank holds only its subdomain: --verify would be skipped silently
    def no_connect(*_args):
        raise AssertionError("a rank connected despite --verify")

    monkeypatch.setattr(cli, "tcp_endpoint", no_connect)
    rankfile = tmp_path / "ranks.txt"
    rankfile.write_text("0 127.0.0.1 1\n1 127.0.0.1 2\n")
    code, out, err = run_cli(["dist", "--topo", "2,1,1", "--grid", "12",
                              "--block", "6,6,6", "--ranks", "2", "--rank",
                              "0", "--rankfile", str(rankfile), "--verify"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "--verify" in err and "--rankfile" in err


# ---------------------------------------------------------------------------
# flat text files: config, model and rankfile share one line reader
# ---------------------------------------------------------------------------

def _read_config(path):
    return _config_from_args(build_parser().parse_args(
        ["solve", "--config", str(path)]))


# per kind: reader, good file, check of what it read, error, and a line
# whose value does not convert, which the error names
FLAT_FILES = {
    "config": (_read_config, "# run\n\npasses = 4  # even\nt = 2\n",
               lambda rc: (rc.passes, rc.t, rc.nx) == (4, 2, 60), ValueError,
               "nx = abc"),
    "model": (lambda p: load_network_model(str(p)),
              "# net\n\nlatency_s = 2e-6  # one way\nbandwidth_Bps = 3e9\n"
              "node_perf_lups = 1e9\n",
              lambda net: (net.latency_s, net.bandwidth_Bps) == (2e-6, 3e9),
              ModelFormatError, "bandwidth_Bps = fast"),
    "rankfile": (lambda p: parse_rankfile(p.read_text()),
                 "# ranks\n\n0 127.0.0.1 4000  # head\n1 127.0.0.1 4001\n",
                 lambda r: r == [("127.0.0.1", 4000), ("127.0.0.1", 4001)],
                 ValueError, "2 127.0.0.1 port"),
}


@pytest.mark.parametrize("kind", FLAT_FILES)
def test_flat_files_skip_comments_and_name_bad_lines(kind, tmp_path):
    read, good, check, error, bad_value = FLAT_FILES[kind]
    path = tmp_path / kind
    path.write_text(good)
    assert check(read(path))
    bad_line = good.count("\n") + 1
    # a malformed line names its number; a bad value its number and key
    # (the whole line in a rankfile, which has no keys)
    for bad, named in (("malformed", ""),
                       (bad_value, bad_value.partition(" =")[0])):
        path.write_text(good + bad + "\n")
        with pytest.raises(error, match=rf"line {bad_line}\b.*{named}"):
            read(path)
