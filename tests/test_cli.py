import csv
import io
import json
import socket
import sys
import threading

import pytest

from stencilpipe import cli
from stencilpipe.cli import (RunConfig, _config_from_args, build_parser, main,
                             parse_span)
from stencilpipe.halo import run_digest
from stencilpipe.perfmodel import ModelFormatError, load_network_model
from stencilpipe.pipeline import PipelineDeadlock
from stencilpipe.transport import TransportError, parse_rankfile


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


def test_config_hash_stable_and_sensitive():
    def digest(rc):
        return run_digest(rc.pipeline_config(), (rc.nx, rc.ny, rc.nz),
                          rc.passes, rc.seed, rc.init)

    a, b = RunConfig(), RunConfig()
    assert digest(a) == digest(b)
    assert digest(RunConfig(d_u=7)) != digest(a)


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


def test_dist_rejects_mismatched_topology(capsys):
    code, _, err = run_cli(["dist", "--topo", "2,1,1", "--grid", "25",
                            "--t", "2", "--block", "12,8,8"], capsys)
    assert code == 2


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


def _free_ports(count):
    socks = [socket.socket() for _ in range(count)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def test_tcp_handshake_mismatch_exits_transport_error(tmp_path, capsys):
    rankfile = tmp_path / "ranks.txt"
    rankfile.write_text("".join(f"{r} 127.0.0.1 {p}\n"
                                for r, p in enumerate(_free_ports(2))))
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


FLAT_FILES = {
    "config": (_read_config, "# run\n\npasses = 4  # even\nt = 2\n",
               lambda rc: (rc.passes, rc.t, rc.nx) == (4, 2, 60), ValueError),
    "model": (lambda p: load_network_model(str(p)),
              "# net\n\nlatency_s = 2e-6  # one way\nbandwidth_Bps = 3e9\n"
              "node_perf_lups = 1e9\n",
              lambda net: (net.latency_s, net.bandwidth_Bps) == (2e-6, 3e9),
              ModelFormatError),
    "rankfile": (lambda p: parse_rankfile(p.read_text()),
                 "# ranks\n\n0 127.0.0.1 4000  # head\n1 127.0.0.1 4001\n",
                 lambda r: r == [("127.0.0.1", 4000), ("127.0.0.1", 4001)],
                 TransportError),
}


@pytest.mark.parametrize("kind", FLAT_FILES)
def test_flat_files_skip_comments_and_name_bad_lines(kind, tmp_path):
    read, good, check, error = FLAT_FILES[kind]
    path = tmp_path / kind
    path.write_text(good)
    assert check(read(path))
    bad_line = good.count("\n") + 1
    path.write_text(good + "malformed\n")
    with pytest.raises(error, match=rf"line {bad_line}\b"):
        read(path)
