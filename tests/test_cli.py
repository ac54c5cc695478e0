import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertswarm import covert, gkae, graphs, swarm
from covertswarm.cli import main


TABLE_SWARM = {
    "L": 4, "V_max": 20.0, "theta_max": math.pi / 100, "dt": 0.1,
    "r_rep": 300.0, "r_ali": 0.0, "r_att": 500.0, "X_size": 500.0,
    "duration": 60.0, "seed": 0,
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def sim_config(tmp_path):
    return write_json(tmp_path / "sim.json", TABLE_SWARM)


def tiny_swarm(duration=4.0, L=3):
    cfg = dict(TABLE_SWARM)
    cfg.update({"L": L, "duration": duration})
    return cfg


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Small trained checkpoint plus its dataset directory."""
    root = tmp_path_factory.mktemp("trained")
    ds_cfg = write_json(root / "ds.json", {
        "swarm": tiny_swarm(), "n_trajectories": 5, "d_tilde": 100.0,
        "scale": 500.0, "burn_in_s": 0.0,
    })
    assert main(["dataset", "--config", ds_cfg, "--out", str(root / "data"),
                 "--quiet"]) == 0
    tr_cfg = write_json(root / "train.json", {
        "tau": 3, "epochs_phase1": 15, "epochs_phase2": 10, "lr": 3e-3, "seed": 1,
    })
    ckpt = root / "model.json"
    assert main(["train", "--data", str(root / "data"), "--config", tr_cfg,
                 "--out", str(ckpt), "--quiet"]) == 0
    return {"root": root, "ckpt": str(ckpt), "ds_cfg": ds_cfg, "tr_cfg": tr_cfg}


# --- simulate -------------------------------------------------------------------

def test_simulate_writes_table_sized_csv(tmp_path, sim_config):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", sim_config, "--out", str(out),
                 "--quiet"]) == 0
    times, pos, _ = swarm.load_trajectory_csv(out)
    assert pos.shape == (601, 4, 3)
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config_digest"].startswith("sha256:")


def test_simulate_missing_config_exit_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv"), "--quiet"]) == 2


def test_simulate_invalid_config_exit_2(tmp_path):
    cfg = write_json(tmp_path / "bad.json", {**TABLE_SWARM, "V_max": -1.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                 "--quiet"]) == 2


def test_simulate_unwritable_out_exit_3(tmp_path, sim_config, capsys):
    out = tmp_path / "missing_dir" / "o.csv"
    assert main(["simulate", "--config", sim_config, "--out", str(out),
                 "--quiet"]) == 3
    # the message names the path given, not the temporary file beside it
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_simulate_seed_override_reproducible(tmp_path):
    cfg = write_json(tmp_path / "s.json", tiny_swarm(duration=2.0))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--seed", "7",
                 "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "7",
                 "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- dataset --------------------------------------------------------------------

def test_dataset_split_80_20(tmp_path):
    cfg = write_json(tmp_path / "d.json", {
        "swarm": tiny_swarm(duration=2.0), "n_trajectories": 10,
        "d_tilde": 100.0, "scale": 500.0,
    })
    out = tmp_path / "data"
    assert main(["dataset", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    train_files = sorted((out / "train").glob("*.json"))
    test_files = sorted((out / "test").glob("*.json"))
    assert len(train_files) == 8 and len(test_files) == 2
    seq = graphs.load_sequence_json(train_files[0])
    assert seq.normalized and seq.threshold == 100.0
    assert seq.n_nodes == 3


def test_dataset_threshold_honored(tmp_path):
    cfg = write_json(tmp_path / "d.json", {
        "swarm": tiny_swarm(duration=1.0), "n_trajectories": 2,
        "d_tilde": 37.0, "scale": 500.0,
    })
    out = tmp_path / "data"
    assert main(["dataset", "--config", cfg, "--out", str(out), "--n", "2",
                 "--quiet"]) == 0
    seq = graphs.load_sequence_json(sorted((out / "train").glob("*.json"))[0])
    assert seq.threshold == 37.0
    pos = seq.features * 500.0
    expected = graphs.adjacency_from_positions(pos[0], 37.0)
    np.testing.assert_array_equal(seq.adjacency[0], expected)


def test_dataset_reseeded_determinism(tmp_path):
    cfg = write_json(tmp_path / "d.json", {
        "swarm": tiny_swarm(duration=1.0), "n_trajectories": 3,
        "d_tilde": 100.0, "scale": 500.0,
    })
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert main(["dataset", "--config", cfg, "--out", str(out), "--seed", "3",
                     "--quiet"]) == 0
        outs.append(sorted((out / "train").glob("*.json")))
    for a, b in zip(*outs):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("burn_in", [0.55, -5.0, -0.1])
def test_dataset_bad_burn_in_exit_2(tmp_path, capsys, burn_in):
    cfg = write_json(tmp_path / "d.json", {
        "swarm": tiny_swarm(duration=2.0), "n_trajectories": 2,
        "d_tilde": 100.0, "scale": 500.0, "burn_in_s": burn_in,
    })
    out = tmp_path / "data"
    assert main(["dataset", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "burn_in_s" in err and "whole multiple of dt" in err and err.count("\n") == 1
    assert not list(out.glob("*/*.json"))


def test_dataset_burn_in_drops_the_first_frames(tmp_path):
    cfg = write_json(tmp_path / "d.json", {
        "swarm": tiny_swarm(duration=2.0), "n_trajectories": 2,
        "d_tilde": 100.0, "scale": 500.0, "burn_in_s": 0.5,
    })
    out = tmp_path / "data"
    assert main(["dataset", "--config", cfg, "--out", str(out), "--seed", "4",
                 "--quiet"]) == 0
    seq = graphs.load_sequence_json(out / "train" / "seq_0000.json")
    traj = swarm.simulate(swarm.SwarmConfig(**{**tiny_swarm(duration=2.0), "seed": 4}))
    assert seq.n_frames == 16 and seq.times[0] == 0.0
    np.testing.assert_array_equal(seq.features, traj.positions[5:] / 500.0)


# --- train ----------------------------------------------------------------------

def test_train_outputs(trained):
    ckpt = gkae.load_checkpoint(trained["ckpt"])
    assert ckpt.L == 3
    assert ckpt.meta["epochs_phase1"] == 15
    assert ckpt.meta["d_tilde"] == 100.0
    loss_csv = trained["root"] / "model_loss.csv"
    lines = loss_csv.read_text().splitlines()
    assert lines[0] == "epoch,phase,L_grec,L_rec,L_pred,total"
    assert len(lines) == 1 + 15 + 10
    manifest = json.loads(
        (trained["root"] / "model.json.manifest.json").read_text())
    assert manifest["command"] == "train"


def test_train_resume_dims_mismatch_exit_2(tmp_path, trained):
    other = gkae.build_model(5, d_out=3)
    bad_ckpt = tmp_path / "other.json"
    gkae.save_checkpoint(other, bad_ckpt)
    code = main(["train", "--data", str(trained["root"] / "data"),
                 "--config", trained["tr_cfg"], "--out", str(tmp_path / "m.json"),
                 "--resume", str(bad_ckpt), "--quiet"])
    assert code == 2
    assert not (tmp_path / "m.json").exists()


def test_train_divergence_exit_4(tmp_path, trained):
    cfg = write_json(tmp_path / "t.json",
                     {"tau": 3, "epochs_phase1": 30, "epochs_phase2": 0, "lr": 1e80})
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(trained["root"] / "data"),
                     "--config", cfg, "--out", str(tmp_path / "m.json"), "--quiet"])
    assert code == 4
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, flag", [("train", "--out"), ("train", "--loss-csv"),
                                           ("eval-covert", "--out")])
def test_missing_output_directory_exit_3_before_any_work(tmp_path, trained, capsys,
                                                         monkeypatch, command, flag):
    def reached(*args, **kwargs):
        raise AssertionError("ran before checking the output directories")
    for module, name in [(gkae, "train"), (swarm, "simulate_batch"),
                         (gkae, "load_checkpoint"), (graphs, "load_sequence_json")]:
        monkeypatch.setattr(module, name, reached)
    if command == "train":
        argv = ["train", "--data", str(trained["root"] / "data"),
                "--config", trained["tr_cfg"]]
    else:
        argv = ["eval-covert", "--checkpoint", trained["ckpt"],
                "--config", eval_config(tmp_path, [0.5], [4])]
    missing = tmp_path / "missing" / "o.csv"
    outs = {"--out": str(tmp_path / "o.csv"), flag: str(missing)}
    assert main(argv + [a for kv in outs.items() for a in kv] + ["--quiet"]) == 3
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not (tmp_path / "o.csv").exists()


def set_at(*keys, value):
    """An edit that sets doc[k0][k1]... = value."""
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value
    return edit


def two_d_features(doc):
    for f in doc["frames"]:
        f["X"] = [x[:2] for x in f["X"]]


# One edit of the second training file each, and a word its message must hold:
# malformed values first, then values that disagree with the first file.
BAD_SEQUENCE_EDITS = {
    "A=0.5": (set_at("frames", 2, "A", 0, 1, value=0.5), " A "),
    "A=7": (set_at("frames", 2, "A", 0, 1, value=7), " A "),
    "NaN in X": (set_at("frames", 2, "X", 1, 2, value=math.nan), " X "),
    "NaN t": (set_at("frames", 2, "t", value=math.nan), " t "),
    "ragged X": (set_at("frames", 2, "X", value=[[0.0, 0.0, 0.0]] * 4), " X "),
    "NaN offset": (set_at("offset", value=[0.0, math.nan, 0.0]), "offset"),
    "scale": (set_at("scale", value=1000.0), "scale/offset"),
    "offset": (set_at("offset", value=[5.0, 0.0, 0.0]), "scale/offset"),
    "D_tilde": (set_at("D_tilde", value=37.0), "D_tilde"),
    "dt": (set_at("dt", value=0.2), "dt"),
    "2-D features": (two_d_features, "feature dimension"),
}


def train_rejects(tmp_path, capsys, data, resume=None):
    """Run train on data; assert exit 2 with one stderr line and no output
    left, and return that line."""
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_json(tmp_path / "t.json", {"tau": 3, "epochs_phase1": 2, "epochs_phase2": 2})
    argv = ["train", "--data", str(data), "--config", cfg, "--out", str(out / "m.json"),
            "--quiet"]
    if resume:
        argv += ["--resume", str(resume)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(out.iterdir())
    return err


@pytest.mark.parametrize("case", BAD_SEQUENCE_EDITS)
def test_train_rejects_malformed_or_mixed_sequences_exit_2(tmp_path, capsys, trained,
                                                           case):
    edit, word = BAD_SEQUENCE_EDITS[case]
    data = tmp_path / "data"
    data.mkdir()
    for src in sorted((trained["root"] / "data" / "train").glob("*.json")):
        (data / src.name).write_bytes(src.read_bytes())
    doc = json.loads((data / "seq_0001.json").read_text())
    edit(doc)
    write_json(data / "seq_0001.json", doc)
    err = train_rejects(tmp_path, capsys, data)
    assert "seq_0001.json" in err and word in err


def test_train_resume_with_other_norm_exit_2(tmp_path, capsys, trained):
    doc = json.loads(Path(trained["ckpt"]).read_text())
    doc["norm"]["scale"] = 1000.0
    resume = write_json(tmp_path / "other_norm.json", doc)
    err = train_rejects(tmp_path, capsys, trained["root"] / "data", resume=resume)
    assert "norm" in err


def diverging_checkpoint(trained, tmp_path):
    """The trained checkpoint with K scaled to spectral radius 1e12, so that a
    30-step rollout overflows although every parameter is finite."""
    doc = json.loads(Path(trained["ckpt"]).read_text())
    K = np.array(doc["params"]["K"])
    doc["params"]["K"] = (K * 1e12 / np.abs(np.linalg.eigvals(K)).max()).tolist()
    return write_json(tmp_path / "diverging.json", doc)


# --- predict --------------------------------------------------------------------

@pytest.fixture()
def truth_csv(tmp_path):
    traj = swarm.simulate(swarm.SwarmConfig(**tiny_swarm(duration=6.0)))
    path = tmp_path / "truth.csv"
    swarm.save_trajectory_csv(traj, path)
    return str(path)


def test_predict_writes_errors_per_second(tmp_path, trained, truth_csv):
    out = tmp_path / "pred.csv"
    assert main(["predict", "--checkpoint", trained["ckpt"],
                 "--trajectory", truth_csv, "--horizon-s", "3",
                 "--out", str(out), "--quiet"]) == 0
    times, pred, _ = swarm.load_trajectory_csv(out)
    assert pred.shape == (30, 3, 3)
    assert times[0] == 0.1  # prediction frames start one step after the observed one
    err_lines = (tmp_path / "pred_errors.csv").read_text().splitlines()
    assert err_lines[0] == "delta_t_s,eps_pred,eps_pred_norm"
    assert len(err_lines) == 1 + 3 + 1  # three checks plus the mean row
    assert err_lines[-1].startswith("mean,")


def test_predict_baseline_columns(tmp_path, trained):
    # 20 m/s along x: the constant-velocity line through frames 0 and 1
    # meets every check frame
    pos = np.zeros((21, 3, 3))
    pos[:, :, 0] = 100.0 + 2.0 * np.arange(21)[:, None]
    pos[:, :, 1:] = [[100.0, 100.0], [250.0, 100.0], [400.0, 100.0]]
    truth = tmp_path / "line.csv"
    swarm.save_trajectory_csv(swarm.Trajectory(pos, np.zeros_like(pos), 0.1), truth)
    assert main(["predict", "--checkpoint", trained["ckpt"], "--trajectory", str(truth),
                 "--horizon-s", "2", "--out", str(tmp_path / "pred.csv"),
                 "--baseline", "--quiet"]) == 0
    lines = (tmp_path / "pred_errors.csv").read_text().splitlines()
    assert lines[0] == "delta_t_s,eps_pred,eps_pred_norm,eps_cv,eps_cv_norm"
    assert len(lines) == 1 + 2 + 1
    assert all(float(line.split(",")[3]) < 1e-12 for line in lines[1:])


def test_predict_replay_self_is_zero_error(tmp_path, trained, truth_csv):
    # feeding the truth back as the prediction gives exactly zero error
    times, pos, vel = swarm.load_trajectory_csv(truth_csv)
    shifted = swarm.Trajectory(pos[1:], vel[1:], 0.1)
    replay = tmp_path / "replay.csv"
    swarm.save_trajectory_csv(shifted, replay)
    out = tmp_path / "pred.csv"
    assert main(["predict", "--checkpoint", trained["ckpt"],
                 "--trajectory", truth_csv, "--horizon-s", "3",
                 "--out", str(out), "--replay", str(replay), "--quiet"]) == 0
    rows = (tmp_path / "pred_errors.csv").read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        assert float(fields[1]) == 0.0


def test_predict_forecast_equals_the_library_rollout_bit_for_bit(tmp_path, trained,
                                                                 truth_csv):
    # predict and the library path (build_snapshot, normalize_snapshot,
    # rollout_predict) must give the same forecast
    out = tmp_path / "pred.csv"
    assert main(["predict", "--checkpoint", trained["ckpt"], "--trajectory", truth_csv,
                 "--horizon-s", "3", "--out", str(out), "--quiet"]) == 0
    model = gkae.load_checkpoint(trained["ckpt"])
    _, truth, _ = swarm.load_trajectory_csv(truth_csv)
    graph = graphs.normalize_snapshot(
        graphs.build_snapshot(truth[0], model.meta["d_tilde"]), model.norm)
    np.testing.assert_array_equal(swarm.load_trajectory_csv(out)[1],
                                  gkae.rollout_predict(model, graph, 30))


def test_predict_uav_count_mismatch_exit_2(tmp_path, trained):
    traj = swarm.simulate(swarm.SwarmConfig(**tiny_swarm(duration=2.0, L=5)))
    path = tmp_path / "truth5.csv"
    swarm.save_trajectory_csv(traj, path)
    code = main(["predict", "--checkpoint", trained["ckpt"],
                 "--trajectory", str(path), "--horizon-s", "1",
                 "--out", str(tmp_path / "p.csv"), "--quiet"])
    assert code == 2
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("interval, reason", [
    (0.15, "multiple of dt"), (0.04, "multiple of dt"), (5.0, "longer than the horizon")])
def test_predict_bad_report_interval_exit_2(tmp_path, trained, truth_csv, capsys,
                                            interval, reason):
    out = tmp_path / "p.csv"
    assert main(["predict", "--checkpoint", trained["ckpt"], "--trajectory", truth_csv,
                 "--horizon-s", "3", "--report-interval-s", str(interval),
                 "--out", str(out), "--quiet"]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon", [2.55, 0.04, -1.0])
def test_predict_horizon_not_multiple_of_dt_exit_2(tmp_path, trained, truth_csv, capsys,
                                                   horizon):
    # 2.55 s used to round to 25 steps and predict 2.5 s without a word
    out = tmp_path / "p.csv"
    assert main(["predict", "--checkpoint", trained["ckpt"], "--trajectory", truth_csv,
                 "--horizon-s", str(horizon), "--report-interval-s", "0.1",
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "horizon" in err and "whole multiple of dt" in err and err.count("\n") == 1
    assert not out.exists()


@functools.cache
def truth_rows():
    """Rows of a valid 3-UAV, 21-frame trajectory CSV, split into fields."""
    traj = swarm.simulate(swarm.SwarmConfig(**tiny_swarm(duration=2.0)))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "truth.csv"
        swarm.save_trajectory_csv(traj, path)
        return tuple(tuple(line.split(",")) for line in path.read_text().splitlines()[1:])


@st.composite
def corrupted_rows(draw):
    rows = [list(r) for r in truth_rows()]
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["swap", "drop", "duplicate", "replace"]))
    if kind == "swap":
        j = draw(st.integers(0, len(rows) - 2))
        j += j >= i
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(i, rows[i])
    else:
        # the last token is longer than the csv module's field size limit
        rows[i][draw(st.integers(0, 7))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "", "x", "1e999", "9" * 200_000]))
    return rows


@given(rows=corrupted_rows())
@settings(max_examples=60, deadline=None)
def test_predict_rejects_corrupt_trajectory_csv(trained, rows):
    with tempfile.TemporaryDirectory() as d:
        truth = Path(d) / "truth.csv"
        truth.write_text("\n".join(",".join(r) for r in [swarm.CSV_HEADER] + rows) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["predict", "--checkpoint", trained["ckpt"],
                         "--trajectory", str(truth), "--horizon-s", "1",
                         "--out", str(Path(d) / "pred.csv"), "--quiet"])
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert [p.name for p in Path(d).iterdir()] == ["truth.csv"]


# --- eval-covert ----------------------------------------------------------------

def eval_config(tmp_path, lambdas, n_grid, runs=6):
    return write_json(tmp_path / "eval.json", {
        "swarm": tiny_swarm(duration=4.0),
        "burn_in_s": 0.0,
        "covert": {"P_det": 1e-6, "lambda": 0.5, "horizon_s": 3.0,
                   "report_interval_s": 1.0, "runs": runs, "seed": 5},
        "ground": {"P_max": 20.0, "eta": 1.0, "area": 500.0},
        "lambda_grid": lambdas,
        "n_grid": n_grid,
    })


def test_eval_covert_grid_rows_and_monotonicity(tmp_path, trained):
    cfg = eval_config(tmp_path, [0.5, 0.6, 0.9], [5, 10])
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"],
                 "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,N,L,H,P_det,eps_mean"
    assert len(lines) == 1 + 3 * 2  # lambda grid x N grid, single L
    rows = [line.split(",") for line in lines[1:]]
    by_n = {}
    for lam, n, L, H, p_det, eps in rows:
        by_n.setdefault(int(n), []).append((float(lam), float(p_det)))
    for n, vals in by_n.items():
        vals.sort()
        dets = [p for _, p in vals]
        assert dets == sorted(dets)  # monotone in lambda
    report = json.loads((tmp_path / "agg_report.json").read_text())
    assert len(report["cells"]) == 6


@pytest.mark.parametrize("l_grid", [[7], [3, 3], []], ids=["other_L", "repeated", "empty"])
def test_eval_covert_mismatched_l_grid_exit_2(tmp_path, trained, capsys, l_grid):
    # the checkpoint fixes L = 3; a repeated entry would redo every run
    doc = json.loads(Path(eval_config(tmp_path, [0.5], [5])).read_text())
    doc["l_grid"] = l_grid
    cfg = write_json(tmp_path / "eval.json", doc)
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"],
                 "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("lambdas, n_grid", [([], [5]), ([0.5], []), ([0.5], [5, 0])],
                         ids=["no_lambda", "no_N", "zero_N"])
def test_eval_covert_bad_grid_exit_2(tmp_path, trained, capsys, lambdas, n_grid):
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"],
                 "--config", eval_config(tmp_path, lambdas, n_grid),
                 "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_eval_covert_nominal_power_matches_the_engine(tmp_path, trained):
    # use_nominal_power: every node transmits at its own link-target power,
    # and each cell equals the library engine run on the same inputs
    doc = json.loads(Path(eval_config(tmp_path, [0.5, 0.9], [6, 4], runs=3)).read_text())
    doc["use_nominal_power"] = True
    cfg = write_json(tmp_path / "eval.json", doc)
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(out), "--quiet"]) == 0
    model = gkae.load_checkpoint(trained["ckpt"])
    cov = covert.CovertConfig(P_det=1e-6, lambda_=0.5, horizon_s=3.0,
                              report_interval_s=1.0, runs=3, seed=5)
    checks = np.arange(10, 31, 10)
    nets, nominals, trues, preds = [], [], [], []
    for r in range(3):
        traj = swarm.simulate(swarm.SwarmConfig(**{**tiny_swarm(), "seed": 5 + r}))
        snap = graphs.normalize_snapshot(
            graphs.build_snapshot(traj.positions[0], model.meta["d_tilde"]), model.norm)
        pred = gkae.rollout_predict(model, snap, 30)
        net = covert.GroundNetwork.uniform_random(
            6, 500.0, np.random.default_rng([5, r, 1]), P_max=20.0, eta=1.0)
        nets.append(net)
        nominals.append(covert.nominal_powers(net))
        trues.append(traj.positions[checks])
        preds.append(pred[checks - 1])
    assert not all((nom == 20.0).all() for nom in nominals)
    report = covert.detection_probability(nets, trues, preds, cov, nominals)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(float(lam), int(n), float(p)) for lam, n, _, _, p, _ in rows] == [
        (lam, n, report.cell(lam, n).p_det) for n in (6, 4) for lam in (0.5, 0.9)]


def test_eval_covert_negative_m_bar_exit_2(tmp_path, trained, capsys):
    # M_bar = -2 made every nominal power 0 W, so every cell reported P_det 0
    doc = json.loads(Path(eval_config(tmp_path, [0.5], [5], runs=2)).read_text())
    doc["use_nominal_power"] = True
    doc["ground"]["M_bar"] = -2
    cfg = write_json(tmp_path / "eval.json", doc)
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(tmp_path / "agg.csv"), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: M_bar must be an integer >= 0, got -2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["eval.json"]


@pytest.mark.parametrize("area", [0, -500])
def test_eval_covert_area_not_positive_exit_2(tmp_path, trained, capsys, area):
    # area 0 put every ground node at the origin; -500 failed inside numpy
    doc = json.loads(Path(eval_config(tmp_path, [0.5], [5], runs=2)).read_text())
    doc["ground"]["area"] = area
    cfg = write_json(tmp_path / "eval.json", doc)
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(tmp_path / "agg.csv"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: area must be finite and > 0, got {area:.1f}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["eval.json"]


def test_eval_covert_checks_the_ground_before_simulating(tmp_path, trained, capsys,
                                                         monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate_batch ran before the ground section was checked")

    monkeypatch.setattr(swarm, "simulate_batch", no_simulation)
    doc = json.loads(Path(eval_config(tmp_path, [0.5], [5], runs=2)).read_text())
    doc["ground"]["area"] = 0
    cfg = write_json(tmp_path / "eval.json", doc)
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(tmp_path / "agg.csv"), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: area must be finite and > 0, got 0.0\n"


def test_eval_covert_burn_in_matches_the_engine(tmp_path, trained):
    # after a 1 s burn-in, frame 10 is the start frame and frames 20, 30, 40
    # are the truth at the checks
    doc = json.loads(Path(eval_config(tmp_path, [0.5, 0.9], [6], runs=4)).read_text())
    doc["burn_in_s"] = 1.0
    cfg = write_json(tmp_path / "eval.json", doc)
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(out), "--quiet"]) == 0
    model = gkae.load_checkpoint(trained["ckpt"])
    cov = covert.CovertConfig(P_det=1e-6, lambda_=0.5, horizon_s=3.0,
                              report_interval_s=1.0, runs=4, seed=5)
    checks = np.arange(10, 31, 10)
    nets, trues, preds = [], [], []
    for r in range(4):
        traj = swarm.simulate(swarm.SwarmConfig(**{**tiny_swarm(), "seed": 5 + r}))
        snap = graphs.normalize_snapshot(
            graphs.build_snapshot(traj.positions[10], model.meta["d_tilde"]), model.norm)
        preds.append(gkae.rollout_predict(model, snap, 30)[checks - 1])
        trues.append(traj.positions[10 + checks])
        nets.append(covert.GroundNetwork.uniform_random(
            6, 500.0, np.random.default_rng([5, r, 1]), P_max=20.0, eta=1.0))
    report = covert.detection_probability(nets, trues, preds, cov)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(p) for *_, p, _ in rows] == [report.cell(lam, 6).p_det
                                               for lam in (0.5, 0.9)]
    np.testing.assert_allclose([float(e) for *_, e in rows], report.eps_mean, rtol=1e-9)


@pytest.mark.parametrize("burn_in", [0.55, -5.0])
def test_eval_covert_bad_burn_in_exit_2(tmp_path, trained, capsys, burn_in):
    # 0.55 s used to end in an IndexError; -5 s read frame -50 as the start
    doc = json.loads(Path(eval_config(tmp_path, [0.5], [5])).read_text())
    doc["burn_in_s"] = burn_in
    cfg = write_json(tmp_path / "eval.json", doc)
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "burn_in_s" in err and "whole multiple of dt" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("interval", [0.25, 0.04])
def test_eval_covert_report_interval_not_multiple_of_dt_exit_2(tmp_path, trained,
                                                                 capsys, interval):
    # 0.25 s is 2.5 steps of dt = 0.1 s; 0.04 s would round to zero steps
    doc = json.loads(Path(eval_config(tmp_path, [0.5], [5])).read_text())
    doc["covert"]["report_interval_s"] = interval
    cfg = write_json(tmp_path / "eval.json", doc)
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(out), "--quiet"]) == 2
    assert "multiple of dt" in capsys.readouterr().err
    assert not out.exists()


def test_eval_covert_non_object_checkpoint_exit_2(tmp_path, capsys):
    ckpt = tmp_path / "list.json"
    ckpt.write_text("[1, 2]")
    cfg = eval_config(tmp_path, [0.5], [5])
    assert main(["eval-covert", "--checkpoint", str(ckpt), "--config", cfg,
                 "--out", str(tmp_path / "agg.csv"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed checkpoint") and err.count("\n") == 1


def test_eval_covert_audit_csv(tmp_path, trained):
    cfg = eval_config(tmp_path, [0.5], [4], runs=3)
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"],
                 "--config", cfg, "--out", str(out), "--audit", "--quiet"]) == 0
    audit = (tmp_path / "agg_audit.csv").read_text().splitlines()
    assert audit[0] == "run,delta_t,node,P_true,P_pred,detected"
    assert len(audit) == 1 + 3 * 3 * 4


@pytest.mark.parametrize("horizon, interval", [(2.5, 1.0), (3.0, 7.0)])
def test_eval_covert_horizon_not_multiple_of_report_interval_exit_2(
        tmp_path, trained, capsys, horizon, interval):
    # 2.5 s with 1 s reports would check at 1 s and 2 s only but print H=2.5
    doc = json.loads(Path(eval_config(tmp_path, [0.5], [5])).read_text())
    doc["covert"].update(horizon_s=horizon, report_interval_s=interval)
    cfg = write_json(tmp_path / "eval.json", doc)
    out = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "not a whole multiple of the report interval" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_diverging_rollout_exit_4(tmp_path, trained, truth_csv, capsys):
    ckpt = diverging_checkpoint(trained, tmp_path)
    pred = tmp_path / "pred.csv"
    assert main(["predict", "--checkpoint", ckpt, "--trajectory", truth_csv,
                 "--horizon-s", "3", "--out", str(pred), "--quiet"]) == 4
    agg = tmp_path / "agg.csv"
    assert main(["eval-covert", "--checkpoint", ckpt,
                 "--config", eval_config(tmp_path, [0.5], [5], runs=2),
                 "--out", str(agg), "--quiet"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("not finite" in line for line in err)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "diverging.json", "eval.json", "truth.csv"]


def test_eval_covert_failed_write_leaves_no_outputs(tmp_path, trained, monkeypatch):
    def fail_midway(self, path):
        with open(path, "w") as fh:
            fh.write("run,delta_t")
        assert not (tmp_path / "agg_audit.csv").exists()  # partial bytes go to a .tmp
        raise OSError("disk full")

    monkeypatch.setattr(covert.DetectionReport, "save_summary_csv", fail_midway)
    cfg = eval_config(tmp_path, [0.5], [4], runs=2)
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(tmp_path / "agg.csv"), "--audit", "--quiet"]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.json"]


# --- config keys and checkpoint shapes ------------------------------------------

FUZZ_SWARM = {**tiny_swarm(duration=2.0), "Z_min": 50.0, "preserve_vertical": False}

# A small valid config of each command, with a key of every JSON type it
# reads, and the keys it cannot do without.
FUZZ_CONFIGS = {
    "simulate": FUZZ_SWARM,
    "dataset": {"swarm": FUZZ_SWARM, "n_trajectories": 2, "d_tilde": 100.0,
                "offset": [0.0, 0.0, 0.0], "burn_in_s": 0.0},
    "train": {"tau": 3, "epochs_phase1": 1, "epochs_phase2": 1, "lr": 3e-3, "window": 4},
    "eval-covert": {
        "swarm": FUZZ_SWARM, "burn_in_s": 0.0,
        "covert": {"lambda": 0.5, "horizon_s": 1.0, "runs": 2},
        "ground": {"P_max": 20.0, "M_bar": 3, "area": 500.0},
        "lambda_grid": [0.5], "n_grid": [5], "l_grid": [3], "use_nominal_power": False},
}
FUZZ_REQUIRED = {"dataset": ["swarm", "n_trajectories"], "eval-covert": ["swarm"]}


def wrong_json_values(value):
    """Values of another JSON type than value's."""
    if isinstance(value, bool):
        return [0, "false", None]
    if isinstance(value, int):
        return [True, float(value), "3"]
    if isinstance(value, float):  # json.load reads NaN, Infinity and 1e400
        return [False, "1.0", [value], math.nan, math.inf]
    if isinstance(value, list):
        return [value[0], [True], [value[0] + 0.5]] if isinstance(value[0], int) \
            else [value[0], [True], [str(value[0])], [math.nan]]
    return [[], "x", None]  # a section


def config_mutations():
    """(command, key path, value) for every way to break one key of a fuzz
    config: drop a required key (value None), add an unknown key, give a key
    a value of the wrong JSON type (a section a non-object), make the
    whole file a non-object (an empty path), or give the dataset offset
    other than 3 entries."""
    # 4 entries were written into every file; 2 failed only after the
    # output directories were made
    out = [("dataset", ("offset",), value) for value in ([0, 0, 0, 5], [0, 0])]
    for command, doc in FUZZ_CONFIGS.items():
        out += [(command, (key,), None) for key in FUZZ_REQUIRED.get(command, [])]
        out += [(command, (), value) for value in ([], "x", None)]
        for section in [()] + [(k,) for k, v in doc.items() if isinstance(v, dict)]:
            keys = doc[section[0]] if section else doc
            out.append((command, section + ("not_a_key",), 1.0))
            out += [(command, section + (k,), wrong)
                    for k, v in keys.items() for wrong in wrong_json_values(v)]
    return out


def run_with_config(command, doc, trained, d):
    """main's exit code and stderr for command on config doc, writing into d."""
    cfg = write_json(d / "cfg.json", doc)
    args = {"simulate": ["--out", str(d / "traj.csv")],
            "dataset": ["--out", str(d / "data")],
            "train": ["--data", str(trained["root"] / "data"), "--out", str(d / "m.json")],
            "eval-covert": ["--checkpoint", trained["ckpt"], "--out", str(d / "agg.csv")]}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, *args[command], "--quiet"])
    return code, err.getvalue()


@pytest.mark.parametrize("command, section, key, where", [
    ("dataset", None, "burnin_s", "dataset config"),
    ("eval-covert", None, "lamda_grid", "eval-covert config"),
    ("eval-covert", None, "use_nominal_powr", "eval-covert config"),
    ("eval-covert", "covert", "horizn_s", "covert section"),
    # lambda has one spelling: next to "lambda", "lambda_" was silently dropped
    ("eval-covert", "covert", "lambda_", "covert section"),
    ("eval-covert", "ground", "aera", "ground section"),
    ("train", None, "epoch_phase1", "train config"),
])
def test_unknown_config_key_exit_2(tmp_path, trained, command, section, key, where):
    # a misspelt key used to leave its default silently in force
    doc = json.loads(json.dumps(FUZZ_CONFIGS[command]))
    (doc[section] if section else doc)[key] = 1.0
    assert run_with_config(command, doc, trained, tmp_path) == \
        (2, f"error: unknown key '{key}' in the {where}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", sorted(FUZZ_CONFIGS))
def test_fuzz_configs_are_valid(tmp_path, trained, command):
    assert run_with_config(command, FUZZ_CONFIGS[command], trained, tmp_path) == (0, "")


@given(mutation=st.sampled_from(config_mutations()))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_malformed_config_fails_cleanly(trained, mutation):
    # a value of the wrong type used to be coerced: "false" switched nominal
    # powers on, true ran 1 run and [25.9] evaluated 25 nodes
    command, path, value = mutation
    doc = json.loads(json.dumps(FUZZ_CONFIGS[command]))
    parent = doc[path[0]] if len(path) > 1 else doc
    if not path:
        doc = value
    elif value is None and path[-1] in FUZZ_REQUIRED.get(command, []):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as d:
        code, err = run_with_config(command, doc, trained, Path(d))
        assert code == 2, mutation
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        if path:  # the message names the key, and its section when it has one
            assert repr(path[-1]) in err, err
            where = f"{path[0]} section" if len(path) > 1 else f"{command} config"
            assert where in err, err
        assert [p.name for p in Path(d).iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("section, key, text", [
    ("ground", "gamma_t", "NaN"),     # with nominal powers: exit 0, every P_det 0
    ("swarm", "r_ali", "NaN"),        # ran as if the alignment band were empty
    ("swarm", "duration", "Infinity"),  # an OverflowError traceback
    ("swarm", "X_size", "1e400"),     # json.load reads 1e400 as inf
    ("ground", "eta", "NaN"),         # "all runs must use the same ... eta"
    ("covert", "P_det", "-Infinity"),
])
def test_eval_covert_non_finite_config_number_exit_2(tmp_path, trained, section, key, text):
    doc = json.loads(json.dumps(FUZZ_CONFIGS["eval-covert"]))
    doc["use_nominal_power"] = True
    doc[section][key] = "@"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace('"@"', text))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["eval-covert", "--config", str(cfg), "--checkpoint", trained["ckpt"],
                     "--out", str(tmp_path / "agg.csv"), "--quiet"])
    shown = {"1e400": "Infinity"}.get(text, text)
    assert (code, err.getvalue()) == (
        2, f"error: {key!r} in the {section} section must be a finite number, got {shown}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _set_K_columns(doc, n):
    doc["params"]["K"] = [row[:n] for row in doc["params"]["K"]]


def _set_graph_encoder_inputs(doc, n):
    layer = doc["params"]["graph_encoder"][0]
    layer["W_self"] = [row[:n] for row in layer["W_self"]]
    layer["W_neigh"] = [row[:n] for row in layer["W_neigh"]]


@pytest.mark.parametrize("corrupt, field", [
    (lambda doc: _set_K_columns(doc, 7), "K"),
    (lambda doc: doc["dims"].update(latent=9), "K"),
    (lambda doc: doc["params"]["koopman_decoder"][1].update(activation="relu"),
     "koopman_decoder[1]"),
    (lambda doc: _set_graph_encoder_inputs(doc, 2), "graph_encoder[0]"),
    (lambda doc: doc["dims"].update(node_dim=5), "graph_encoder"),
    (lambda doc: doc["params"]["graph_decoder"].pop(), "graph_decoder"),
    (lambda doc: doc["dims"].update(L=3.5), "dims.L"),
    (lambda doc: doc["dims"].update(latent="8"), "dims.latent"),
], ids=["K_8x7", "latent_9", "unknown_activation", "encoder_input", "node_dim",
        "decoder_output", "fractional_L", "string_latent"])
@pytest.mark.parametrize("command", ["predict", "eval-covert"])
def test_checkpoint_with_broken_shapes_exit_2(tmp_path, trained, truth_csv, capsys,
                                              corrupt, field, command):
    # these used to fail only inside the rollout, with numpy's message
    doc = json.loads(Path(trained["ckpt"]).read_text())
    corrupt(doc)
    ckpt = write_json(tmp_path / "bad.json", doc)
    args = {"predict": ["--trajectory", truth_csv, "--horizon-s", "3",
                        "--out", str(tmp_path / "pred.csv")],
            "eval-covert": ["--config", eval_config(tmp_path, [0.5], [5], runs=2),
                            "--out", str(tmp_path / "agg.csv")]}[command]
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, "--checkpoint", ckpt, *args, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {field}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["predict", "eval-covert", "train"])
def test_checkpoint_with_a_nan_parameter_exit_2(tmp_path, trained, truth_csv, capsys,
                                                command):
    # loading used to accept it: predict and eval-covert then failed in the
    # rollout (exit 4), train --resume after all of phase 1, as a diverged
    # phase-2 loss
    doc = json.loads(Path(trained["ckpt"]).read_text())
    doc["params"]["koopman_decoder"][0]["b"][0] = math.nan
    ckpt = write_json(tmp_path / "nan.json", doc)
    if command == "train":
        err = train_rejects(tmp_path, capsys, trained["root"] / "data", resume=ckpt)
    else:
        args = {"predict": ["--trajectory", truth_csv, "--horizon-s", "3",
                            "--out", str(tmp_path / "pred.csv")],
                "eval-covert": ["--config", eval_config(tmp_path, [0.5], [5], runs=2),
                                "--out", str(tmp_path / "agg.csv")]}[command]
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main([command, "--checkpoint", ckpt, *args, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert err == "error: checkpoint koopman_decoder[0].b is not finite\n"


@functools.cache
def checkpoint_mutations(ckpt):
    """Every way to break one field of the checkpoint the model needs (not
    meta): drop a key, drop the last entry of a list of numbers or rows (a
    wrong shape), or put NaN or a string in place of a number."""
    out = []

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                out.append(("drop", path + (k,)))
                walk(v, path + (k,))
        elif isinstance(node, list):
            if node and not isinstance(node[0], dict):
                out.append(("shorten", path))
            for i, v in enumerate(node):
                walk(v, path + (i,))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.extend([("nan", path), ("string", path)])

    doc = json.loads(Path(ckpt).read_text())
    for key in ("version", "dims", "norm", "params"):
        out.append(("drop", (key,)))
        walk(doc[key], (key,))
    return tuple(out)


def mutated_checkpoint(ckpt, kind, path):
    doc = json.loads(Path(ckpt).read_text())
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "shorten":
        parent[key].pop()
    else:
        parent[key] = math.nan if kind == "nan" else "x"
    return doc


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_mutated_checkpoint_fails_cleanly(trained, data):
    kind, path = data.draw(st.sampled_from(checkpoint_mutations(trained["ckpt"])))
    command = data.draw(st.sampled_from(["predict", "eval-covert"]))
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        ckpt = write_json(d / "ckpt.json", mutated_checkpoint(trained["ckpt"], kind, path))
        if command == "predict":
            truth = d / "truth.csv"
            truth.write_text("\n".join(",".join(r) for r in
                                       [swarm.CSV_HEADER] + list(truth_rows())) + "\n")
            args = ["--trajectory", str(truth), "--horizon-s", "1",
                    "--out", str(d / "pred.csv")]
        else:
            args = ["--config", eval_config(d, [0.5], [5], runs=2),
                    "--out", str(d / "agg.csv")]
        before = sorted(p.name for p in d.iterdir())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--checkpoint", ckpt, *args, "--quiet"])
        assert code in (2, 3, 4), (kind, path, code)
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
        assert sorted(p.name for p in d.iterdir()) == before


# --- cross-command determinism -----------------------------------------------------

def test_pipeline_reseeded_byte_identical(tmp_path):
    for name in ("r1", "r2"):
        root = tmp_path / name
        root.mkdir()
        ds = write_json(root / "ds.json", {
            "swarm": tiny_swarm(duration=3.0), "n_trajectories": 4,
            "d_tilde": 100.0, "scale": 500.0,
        })
        tr = write_json(root / "tr.json",
                        {"tau": 3, "epochs_phase1": 8, "epochs_phase2": 6,
                         "lr": 3e-3, "seed": 2})
        assert main(["dataset", "--config", ds, "--out", str(root / "data"),
                     "--seed", "11", "--quiet"]) == 0
        assert main(["train", "--data", str(root / "data"), "--config", tr,
                     "--out", str(root / "m.json"), "--quiet"]) == 0
    a, b = tmp_path / "r1", tmp_path / "r2"
    assert (a / "m.json").read_bytes() == (b / "m.json").read_bytes()
    assert (a / "m_loss.csv").read_bytes() == (b / "m_loss.csv").read_bytes()
