import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertswarm import cli, covert, gkae, graphs, swarm
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


@pytest.mark.parametrize("made_before", [[], ["data"], ["data", "data/train"]],
                         ids=["none", "out", "out and train"])
def test_dataset_failure_removes_the_directories_it_made(tmp_path, capsys, made_before):
    # d_tilde is checked only when the first sequence is built: the three
    # directories were made by then and used to stay behind, empty
    cfg = write_json(tmp_path / "d.json", {
        "swarm": tiny_swarm(duration=1.0), "n_trajectories": 2, "d_tilde": -1.0})
    for d in made_before:
        (tmp_path / d).mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(["dataset", "--config", cfg, "--out", str(tmp_path / "data"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == "error: threshold must be >= 0, got -1.0\n"
    assert sorted(tmp_path.rglob("*")) == before


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


def test_train_writes_the_same_bits_on_one_and_two_blas_threads(tmp_path):
    # On two OpenBLAS threads phase 2 runs its anchor blocks on a thread
    # pool, each on one BLAS thread; on one thread it runs them in turn.
    # The same bits need products that do not depend on the BLAS thread
    # count.
    ds_cfg = write_json(tmp_path / "ds.json", {
        "swarm": tiny_swarm(duration=480.0), "n_trajectories": 5, "d_tilde": 100.0,
        "scale": 500.0, "burn_in_s": 0.0})
    assert main(["dataset", "--config", ds_cfg, "--out", str(tmp_path / "data"),
                 "--quiet"]) == 0
    tau = 30
    frames = [graphs.load_sequence_json(p).n_frames
              for p in (tmp_path / "data" / "train").glob("*.json")]
    assert sum(n - tau for n in frames) * tau >= gkae._POOL_MIN_ROWS  # the pool runs
    tr_cfg = write_json(tmp_path / "train.json", {
        "tau": tau, "epochs_phase1": 2, "epochs_phase2": 2, "lr": 3e-3, "seed": 1})
    src = str(Path(gkae.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"model_{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "covertswarm.cli", "train", "--data",
                        str(tmp_path / "data"), "--config", tr_cfg, "--out", str(out),
                        "--quiet"], env=env, check=True)
        loss_csv = tmp_path / f"model_{threads}_loss.csv"
        outputs.append([out.read_bytes(), loss_csv.read_bytes()])
    assert outputs[0] == outputs[1]


def test_train_resume_dims_mismatch_exit_2(tmp_path, trained, capsys):
    other = gkae.build_model(5, d_out=3)
    bad_ckpt = tmp_path / "other.json"
    gkae.save_checkpoint(other, bad_ckpt)
    code = main(["train", "--data", str(trained["root"] / "data"),
                 "--config", trained["tr_cfg"], "--out", str(tmp_path / "m.json"),
                 "--resume", str(bad_ckpt), "--quiet"])
    assert code == 2
    # refused before the first epoch, naming the first file that does not fit
    first = trained["root"] / "data" / "train" / "seq_0000.json"
    assert capsys.readouterr().err == (f"error: {first}: node count and feature dimension "
                                       "(L, d) = (3, 3), model expects (5, 3)\n")
    assert not (tmp_path / "m.json").exists()


def test_train_divergence_exit_4(tmp_path, trained):
    cfg = write_json(tmp_path / "t.json",
                     {"tau": 3, "epochs_phase1": 30, "epochs_phase2": 0, "lr": 1e80})
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(trained["root"] / "data"),
                     "--config", cfg, "--out", str(tmp_path / "m.json"), "--quiet"])
    assert code == 4
    assert not (tmp_path / "m.json").exists()


def test_train_phase2_divergence_exit_4(tmp_path, trained, capsys):
    # one Adam step of 1e150 sends K far enough that the next latent
    # forecast overflows
    cfg = write_json(tmp_path / "t.json",
                     {"tau": 3, "epochs_phase1": 0, "epochs_phase2": 5, "lr": 1e150})
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(trained["root"] / "data"),
                     "--config", cfg, "--out", str(tmp_path / "m.json"), "--quiet"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: phase 2 loss diverged at epoch ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


@pytest.mark.parametrize("command, flag", [("train", "--out"), ("train", "--loss-csv"),
                                           ("eval-covert", "--out"), ("dataset", "--out")])
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
    elif command == "eval-covert":
        argv = ["eval-covert", "--checkpoint", trained["ckpt"],
                "--config", eval_config(tmp_path, [0.5], [4])]
    else:  # dataset used to make the missing parents of its --out
        argv = ["dataset", "--config", write_json(tmp_path / "d.json", {
            "swarm": tiny_swarm(duration=1.0), "n_trajectories": 2})]
    missing = tmp_path / "missing" / "o.csv"
    outs = {"--out": str(tmp_path / "o.csv"), flag: str(missing)}
    before = sorted(tmp_path.iterdir())
    assert main(argv + [a for kv in outs.items() for a in kv] + ["--quiet"]) == 3
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert sorted(tmp_path.iterdir()) == before


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
    # header values of the wrong JSON type: bool() read "false" as true,
    # float() read true as 1.0 and the string "0.1" as 0.1
    "normalized string": (set_at("normalized", value="false"),
                          "'normalized' must be true or false"),
    "normalized 1": (set_at("normalized", value=1), "'normalized' must be true or false"),
    "dt true": (set_at("dt", value=True), "dt must be a number"),
    "dt string": (set_at("dt", value="0.1"), "dt must be a number"),
    "D_tilde true": (set_at("D_tilde", value=True), "threshold must be a number"),
    "D_tilde string": (set_at("D_tilde", value="100"), "threshold must be a number"),
    "D_tilde inf": (set_at("D_tilde", value=math.inf), "threshold must be finite"),
    "scale true": (set_at("scale", value=True), "scale must be a number"),
    "scale string": (set_at("scale", value="500"), "scale must be a number"),
    # NormalizationSpec read a true in the offset as 1.0 and "5" as 5.0
    "offset true": (set_at("offset", value=[0.0, True, 0.0]), "offset must hold numbers"),
    "offset string": (set_at("offset", value=["5", 0.0, 0.0]), "offset must hold numbers"),
    # the frames read a true as 1.0 (1 in A) and a numeric string as its number
    "X true": (set_at("frames", 2, "X", 1, 2, value=True), "frames field X must hold numbers"),
    "X string": (set_at("frames", 2, "X", 1, 2, value="0.5"),
                 "frames field X must hold numbers"),
    "A true": (set_at("frames", 2, "A", 0, 1, value=True), "frames field A must hold numbers"),
    "A string": (set_at("frames", 2, "A", 0, 1, value="1"), "frames field A must hold numbers"),
    "t true": (set_at("frames", 2, "t", value=True), "frames field t must hold numbers"),
    "t string": (set_at("frames", 2, "t", value="0.2"), "frames field t must hold numbers"),
    # 4 entries loaded and normalized with the first 3
    "offset of 4": (set_at("offset", value=[0.0, 0.0, 0.0, 5.0]),
                    "offset must have shape (3,), got (4,)"),
    "offset of 2": (set_at("offset", value=[0.0, 0.0]), "offset must have shape (3,), got (2,)"),
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


def test_library_trained_checkpoint_forecasts_at_its_threshold(tmp_path):
    # gkae.train did not record the threshold, so predict graphed the start
    # frame of a library-trained model at the 100 m default: here two edges
    # of about 75 m that training at 50 m never saw
    positions = np.array([[0.0, 0.0, 100.0], [75.0, 0.0, 100.0], [0.0, 75.0, 100.0]]) \
        + np.arange(40)[:, None, None] * np.array([2.0, 1.0, 0.0])
    seq = graphs.normalize(graphs.sequence_from_positions(positions, 50.0, 0.1))
    model = gkae.build_model(3, seed=1)
    gkae.train(model, [seq], gkae.TrainConfig(tau=3, epochs_phase1=2, epochs_phase2=2))
    gkae.save_checkpoint(model, tmp_path / "m.json")
    truth = tmp_path / "truth.csv"
    swarm.save_trajectory_csv(swarm.Trajectory(positions, np.zeros_like(positions), 0.1),
                              truth)
    out = tmp_path / "pred.csv"
    assert main(["predict", "--checkpoint", str(tmp_path / "m.json"), "--trajectory",
                 str(truth), "--horizon-s", "3", "--out", str(out), "--quiet"]) == 0
    graph = graphs.normalize_snapshot(graphs.build_snapshot(positions[0], 50.0), model.norm)
    assert not graph.adjacency.any()
    np.testing.assert_array_equal(swarm.load_trajectory_csv(out)[1],
                                  gkae.rollout_predict(model, graph, 30))


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


def test_eval_covert_swarm_l_other_than_the_checkpoints_exit_2(tmp_path, trained, capsys):
    # the config's L was silently replaced by the checkpoint's 3
    doc = json.loads(Path(eval_config(tmp_path, [0.5], [5], runs=2)).read_text())
    doc["swarm"]["L"] = 6
    cfg = write_json(tmp_path / "eval.json", doc)
    out = tmp_path / "agg.csv"
    argv = ["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
            "--out", str(out), "--quiet"]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: swarm L 6 must be 3, the checkpoint's UAV count\n"
    assert not out.exists()
    del doc["swarm"]["L"]  # an omitted L is the checkpoint's
    write_json(tmp_path / "eval.json", doc)
    assert main(argv) == 0
    assert [line.split(",")[2] for line in out.read_text().splitlines()] == ["L", "3"]


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
    # the networks built one run at a time, stacked into one (R, N, 3) network
    net = covert.GroundNetwork(np.stack([n.positions for n in nets]), P_max=20.0, eta=1.0)
    report = covert.detection_probability(net, trues, preds, cov, nominals)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(float(lam), int(n), float(p)) for lam, n, _, _, p, _ in rows] == [
        (lam, n, report.cell(lam, n).p_det) for n in (6, 4) for lam in (0.5, 0.9)]


def test_eval_covert_capped_nominal_powers_warn_once(tmp_path, trained):
    # P_max 1e-10 W caps most nodes of every run: one warning counts them,
    # where one per capped node and run was given
    doc = json.loads(Path(eval_config(tmp_path, [0.5, 0.9], [6, 4], runs=4)).read_text())
    doc["use_nominal_power"] = True
    doc["ground"]["P_max"] = 1e-10
    cfg = write_json(tmp_path / "eval.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                     "--out", str(tmp_path / "agg.csv"), "--quiet"]) == 0
    assert len(caught) == 1 and caught[0].category is RuntimeWarning
    capped = re.fullmatch(r"(\d+) of 24 nodes require more than P_max=1e-10 W, "
                          r"up to \S+ W; capped", str(caught[0].message))
    assert capped and int(capped[1]) > 4


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
    # the networks built one run at a time, stacked into one (R, N, 3) network
    net = covert.GroundNetwork(np.stack([n.positions for n in nets]), P_max=20.0, eta=1.0)
    report = covert.detection_probability(net, trues, preds, cov)
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
    text = (tmp_path / "agg_audit.csv").read_bytes().decode()
    assert "\r" not in text  # csv.writer used to end its lines with \r\n
    audit = text.splitlines()
    assert audit[0] == "run,delta_t,node,P_true,P_pred,detected"
    assert len(audit) == 1 + 3 * 3 * 4
    rows = [line.split(",") for line in audit[1:]]
    # one row per (run, check, node), checks every report interval of 1 s
    assert [row[:3] for row in rows] == [[str(r), f"{c + 1}", str(n)]
                                         for r in range(3) for c in range(3) for n in range(4)]
    # a node is flagged when its true bound falls below lambda = 0.5 times its predicted one
    assert all(row[5] == str(int(float(row[3]) < 0.5 * float(row[4]))) for row in rows)


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
    save_table = graphs.save_table

    def fail_midway(path, header, rows):
        if header[0] != "run":  # the cells CSV, written before the report and the audit
            return save_table(path, header, rows)
        with open(path, "w") as fh:
            fh.write("run,delta_t")
        assert not (tmp_path / "agg_audit.csv").exists()  # partial bytes go to a .tmp
        raise OSError("disk full")

    monkeypatch.setattr(graphs, "save_table", fail_midway)
    cfg = eval_config(tmp_path, [0.5], [4], runs=2)
    assert main(["eval-covert", "--checkpoint", trained["ckpt"], "--config", cfg,
                 "--out", str(tmp_path / "agg.csv"), "--audit", "--quiet"]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.json"]


def test_dataset_out_of_memory_exit_3(tmp_path, capsys, monkeypatch):
    # it ended in a traceback and left data/ behind; nothing is allocated here
    def no_memory(*args):
        raise MemoryError("Unable to allocate 24.0 TiB for an array")

    monkeypatch.setattr(swarm, "simulate_batch", no_memory)
    cfg = write_json(tmp_path / "d.json", {"swarm": tiny_swarm(), "n_trajectories": 2})
    assert main(["dataset", "--config", cfg, "--out", str(tmp_path / "data"),
                 "--quiet"]) == 3
    assert capsys.readouterr().err == "error: Unable to allocate 24.0 TiB for an array\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]


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
    """main's exit code and stderr for command on config doc (a str is the
    file's text), writing into d."""
    cfg = d / "cfg.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    args = {"simulate": ["--out", str(d / "traj.csv")],
            "dataset": ["--out", str(d / "data")],
            "train": ["--data", str(trained["root"] / "data"), "--out", str(d / "m.json")],
            "eval-covert": ["--checkpoint", trained["ckpt"], "--out", str(d / "agg.csv")]}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), *args[command], "--quiet"])
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


@pytest.mark.parametrize("command", sorted(FUZZ_CONFIGS))
def test_malformed_config_json_names_its_file(tmp_path, trained, command):
    # the message was json's alone, naming neither the file nor what it is
    assert run_with_config(command, '{"L": 4,', trained, tmp_path) == (2, (
        f"error: malformed config file {tmp_path / 'cfg.json'}: Expecting property name "
        "enclosed in double quotes: line 1 column 9 (char 8)\n"))
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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


def _flatten_graph_encoder_weights(doc):
    """Make the first graph layer's weights their first rows and its bias
    as long: 1-D arrays of matching shapes."""
    layer = doc["params"]["graph_encoder"][0]
    layer["W_self"], layer["W_neigh"] = layer["W_self"][0], layer["W_neigh"][0]
    layer["b"] = layer["b"][:len(layer["W_self"])]


def checkpoint_args(command, tmp_path, truth_csv):
    """The arguments besides --checkpoint of a small predict or eval-covert run."""
    return {"predict": ["--trajectory", truth_csv, "--horizon-s", "3",
                        "--out", str(tmp_path / "pred.csv")],
            "eval-covert": ["--config", eval_config(tmp_path, [0.5], [5], runs=2),
                            "--out", str(tmp_path / "agg.csv")]}[command]


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
    # a traceback: the layer took its input count from a second axis it lacked
    (_flatten_graph_encoder_weights, "graph_encoder[0]"),
], ids=["K_8x7", "latent_9", "unknown_activation", "encoder_input", "node_dim",
        "decoder_output", "fractional_L", "string_latent", "encoder_1d_weights"])
@pytest.mark.parametrize("command", ["predict", "eval-covert"])
def test_checkpoint_with_broken_shapes_exit_2(tmp_path, trained, truth_csv, capsys,
                                              corrupt, field, command):
    # these used to fail only inside the rollout, with numpy's message
    doc = json.loads(Path(trained["ckpt"]).read_text())
    corrupt(doc)
    ckpt = write_json(tmp_path / "bad.json", doc)
    args = checkpoint_args(command, tmp_path, truth_csv)
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
        args = checkpoint_args(command, tmp_path, truth_csv)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main([command, "--checkpoint", ckpt, *args, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert err == "error: checkpoint koopman_decoder[0].b holds non-finite values\n"


@pytest.mark.parametrize("edit", [
    lambda doc: doc["meta"].update(d_tilde=-5.0),
    lambda doc: doc["meta"].update(d_tilde=math.nan),
    lambda doc: doc["meta"].update(d_tilde=math.inf),
    lambda doc: doc["meta"].update(d_tilde=True),
    lambda doc: doc["meta"].update(d_tilde="100"),
    lambda doc: doc.update(meta=[]),
], ids=["negative_d_tilde", "nan_d_tilde", "inf_d_tilde", "bool_d_tilde", "string_d_tilde",
        "list_meta"])
@pytest.mark.parametrize("command", ["predict", "eval-covert"])
def test_checkpoint_with_a_bad_meta_exit_2(tmp_path, trained, truth_csv, capsys, edit,
                                           command):
    # every start frame is graphed at meta.d_tilde: -5 or NaN moved the
    # forecast without a word
    doc = json.loads(Path(trained["ckpt"]).read_text())
    edit(doc)
    ckpt = write_json(tmp_path / "bad.json", doc)
    args = checkpoint_args(command, tmp_path, truth_csv)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, "--checkpoint", ckpt, *args, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint meta") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("edit, words", [
    (lambda norm: norm.update(scale=True), "scale must be a number"),
    (lambda norm: norm.update(offset=[0.0, 0.0, True]), "offset must hold numbers"),
    (lambda norm: norm.update(offset=["5", 0.0, 0.0]), "offset must hold numbers"),
], ids=["scale_true", "offset_true", "offset_string"])
@pytest.mark.parametrize("command", ["predict", "eval-covert"])
def test_checkpoint_with_a_non_numeric_norm_exit_2(tmp_path, trained, truth_csv, capsys,
                                                 edit, words, command):
    # a true used to load as 1.0 and "5" as 5.0: a forecast in other units
    # than the training
    doc = json.loads(Path(trained["ckpt"]).read_text())
    edit(doc["norm"])
    ckpt = write_json(tmp_path / "bad.json", doc)
    args = checkpoint_args(command, tmp_path, truth_csv)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, "--checkpoint", ckpt, *args, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("edit, words", [
    (set_at("params", "K", 2, 3, value=True), "checkpoint K must hold numbers"),
    (set_at("params", "K", 2, 3, value="0.25"), "checkpoint K must hold numbers"),
    (set_at("params", "koopman_encoder", 1, "W", 0, 0, value=True),
     "checkpoint koopman_encoder[1].W must hold numbers"),
    (set_at("params", "graph_decoder", 2, "W", 1, 1, value="0.25"),
     "checkpoint graph_decoder[2].W must hold numbers"),
    (set_at("params", "graph_encoder", 0, "b", 1, value=True),
     "checkpoint graph_encoder[0].b must hold numbers"),
    (set_at("params", "koopman_decoder", 0, "b", 0, value="0.25"),
     "checkpoint koopman_decoder[0].b must hold numbers"),
    (lambda doc: doc["norm"].update(offset=[0.0, 0.0, 0.0, 5.0]),
     "offset must have shape (3,), got (4,)"),
    (lambda doc: doc["norm"].update(offset=[0.0, 0.0]), "offset must have shape (3,), got (2,)"),
], ids=["K_true", "K_string", "W_true", "W_string", "b_true", "b_string", "offset_of_4",
        "offset_of_2"])
@pytest.mark.parametrize("command", ["predict", "eval-covert"])
def test_checkpoint_with_a_non_numeric_parameter_exit_2(tmp_path, trained, truth_csv,
                                                        capsys, edit, words, command):
    # a true loaded as 1.0 and "0.25" as 0.25; an offset of 4 entries ran
    # on its first 3, one of 2 failed with numpy's broadcast message
    doc = json.loads(Path(trained["ckpt"]).read_text())
    edit(doc)
    ckpt = write_json(tmp_path / "bad.json", doc)
    args = checkpoint_args(command, tmp_path, truth_csv)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main([command, "--checkpoint", ckpt, *args, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {words}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


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


# --- the run protocol -------------------------------------------------------------

MANIFEST_KEYS = ["tool", "version", "command", "config", "config_digest", "seed",
                 "inputs", "outputs", "duration_s"]


def digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def protocol_run(command, d, trained, truth_csv):
    """A small run of command writing into d: its argv, manifest path, the
    input files the manifest must digest, its outputs and a pattern of its
    summary line."""
    ckpt = trained["ckpt"]
    if command == "simulate":
        cfg = write_json(d / "sim.json", tiny_swarm(duration=2.0))
        out = d / "traj.csv"
        return (["simulate", "--config", cfg, "--out", str(out), "--seed", "7"],
                d / "traj.csv.manifest.json", {}, [out],
                f"simulated 21 frames x 3 UAVs -> {re.escape(str(out))}")
    if command == "dataset":
        cfg = write_json(d / "ds.json", {"swarm": tiny_swarm(duration=1.0),
                                         "n_trajectories": 2})
        out = d / "data"
        return (["dataset", "--config", cfg, "--out", str(out)], out / "manifest.json", {},
                [out / "train" / "seq_0000.json", out / "test" / "seq_0001.json"],
                f"wrote 1 train \\+ 1 test sequences -> {re.escape(str(out))}")
    if command == "train":
        cfg = write_json(d / "t.json", {"tau": 3, "epochs_phase1": 2, "epochs_phase2": 2})
        out = d / "m.json"
        return (["train", "--data", str(trained["root"] / "data"), "--config", cfg,
                 "--out", str(out), "--resume", ckpt],
                d / "m.json.manifest.json", {"resume": ckpt}, [out, d / "m_loss.csv"],
                f"trained 4 sequences, final loss [-+.e0-9]+ -> {re.escape(str(out))}")
    if command == "predict":
        _, pos, vel = swarm.load_trajectory_csv(truth_csv)
        replay = d / "replay.csv"
        swarm.save_trajectory_csv(swarm.Trajectory(pos[1:], vel[1:], 0.1), replay)
        out = d / "pred.csv"
        return (["predict", "--checkpoint", ckpt, "--trajectory", truth_csv,
                 "--horizon-s", "3", "--out", str(out), "--replay", str(replay)],
                d / "pred.csv.manifest.json",
                {"checkpoint": ckpt, "trajectory": truth_csv, "replay": str(replay)},
                [out, d / "pred_errors.csv"],
                f"predicted 30 steps, eps_mean=0 m\\^2 -> {re.escape(str(out))}")
    out = d / "agg.csv"
    return (["eval-covert", "--checkpoint", ckpt, "--config",
             eval_config(d, [0.5], [4], runs=2), "--out", str(out)],
            d / "agg.csv.manifest.json", {"checkpoint": ckpt}, [out, d / "agg_report.json"],
            f"evaluated 1 cells over 2 runs -> {re.escape(str(out))}")


@pytest.mark.parametrize("command", ["simulate", "dataset", "train", "predict",
                                     "eval-covert"])
def test_manifest_and_summary_line(tmp_path, trained, truth_csv, capsys, command):
    # train --resume recorded no input and predict --replay not the replay
    argv, manifest_path, inputs, outputs, summary = protocol_run(command, tmp_path,
                                                                 trained, truth_csv)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(summary + "\n", captured.out), captured.out
    assert captured.err == ""
    manifest = json.loads(manifest_path.read_text())
    assert list(manifest) == MANIFEST_KEYS
    config = argv[argv.index("--config") + 1] if "--config" in argv else None
    assert manifest["command"] == command
    assert (manifest["config"], manifest["config_digest"]) == \
        (config, config and digest(config))
    assert manifest["seed"] == (7 if command == "simulate" else None)
    assert manifest["inputs"] == {k: digest(v) for k, v in inputs.items()}
    assert list(manifest["inputs"]) == list(inputs)
    assert manifest["outputs"] == [str(p) for p in outputs]
    assert manifest["duration_s"] >= 0


def save_truth(path, n_frames, dt=0.1, L=3):
    traj = swarm.simulate(swarm.SwarmConfig(**tiny_swarm(duration=6.0, L=L)))
    swarm.save_trajectory_csv(swarm.Trajectory(traj.positions[:n_frames],
                                                traj.velocities[:n_frames], dt), path)
    return str(path)


def two_d_checkpoint(d):
    gkae.save_checkpoint(gkae.build_model(3, d_out=2), d / "2d.json")
    return str(d / "2d.json")


def predict_argv(ckpt, truth, horizon="3", *extra):
    return ["predict", "--checkpoint", ckpt, "--trajectory", truth, "--horizon-s", horizon,
            *extra]


def replay_argv(d, t, n_frames, **replay):
    """predict over 3 s of a 61-frame truth, replaying n_frames saved with
    save_truth's replay settings."""
    return predict_argv(t["ckpt"], save_truth(d / "truth.csv", 61), "3", "--replay",
                        save_truth(d / "replay.csv", n_frames, **replay))


# A run for each check, on inputs written into d, and a part of its message.
REJECTED_RUNS = {
    "2-D checkpoint": (lambda d, t: predict_argv(two_d_checkpoint(d),
                                                 save_truth(d / "truth.csv", 61)),
                       "requires a 3D checkpoint"),
    # it failed inside the rollout, with the rollout's own shape message
    "2-D checkpoint in eval-covert": (lambda d, t: [
        "eval-covert", "--checkpoint", two_d_checkpoint(d), "--config",
        eval_config(d, [0.5], [4])], "eval-covert requires a 3D checkpoint, "),
    "one-frame trajectory": (lambda d, t: predict_argv(t["ckpt"],
                                                       save_truth(d / "truth.csv", 1)),
                             "at least 2 frames"),
    "horizon past the truth": (lambda d, t: predict_argv(t["ckpt"],
                                                         save_truth(d / "truth.csv", 21)),
                               "exceeds the 20 available truth steps"),
    "short replay": (lambda d, t: replay_argv(d, t, 29),
                     "replay file shorter than the requested horizon"),
    # it was scored against the truth's frames as if it were at the truth's dt
    "replay at another dt": (lambda d, t: replay_argv(d, t, 30, dt=0.2),
                             "replay.csv has dt 0.2 s, the trajectory 0.1 s"),
    # it failed in numpy's concatenate
    "replay with 4 UAVs": (lambda d, t: replay_argv(d, t, 30, L=4),
                           "replay.csv has 4 UAVs, the trajectory 3"),
    "no trajectories": (lambda d, t: ["dataset", "--config", write_json(
        d / "ds.json", {"swarm": tiny_swarm(), "n_trajectories": 0})],
                        "n_trajectories must be >= 1, got 0"),
    # it ended in an OverflowError traceback, counting the steps
    "step count past any float": (lambda d, t: ["simulate", "--config", write_json(
        d / "sim.json", {"duration": 1e308, "dt": 1e-10})], "more steps than a float holds"),
    "step count past any float in dataset": (lambda d, t: ["dataset", "--config", write_json(
        d / "ds.json", {"swarm": {"duration": 1e308, "dt": 1e-10}, "n_trajectories": 2})],
        "more steps than a float holds"),
    # it ended in numpy's bare "Maximum allowed size exceeded"
    "frame count past any numpy array": (lambda d, t: ["simulate", "--config", write_json(
        d / "sim.json", {"duration": 1e300, "dt": 1.0})],
        "duration / dt = 1e+300 s / 1 s asks for 1e+300 frames"),
    "frame count past any numpy array in dataset": (lambda d, t: ["dataset", "--config",
        write_json(d / "ds.json", {"swarm": {"duration": 1e300, "dt": 1.0},
                                   "n_trajectories": 2})],
        "duration / dt = 1e+300 s / 1 s asks for 1e+300 frames"),
    "burn-in leaves one frame": (lambda d, t: ["dataset", "--config", write_json(
        d / "ds.json", {"swarm": tiny_swarm(duration=2.0), "n_trajectories": 2,
                        "burn_in_s": 2.0})], "fewer than 2 frames"),
    "missing data directory": (lambda d, t: ["train", "--data", str(d / "nope"),
                                             "--config", t["tr_cfg"]],
                               "dataset directory not found"),
    "empty data directory": (lambda d, t: ["train", "--data", str(d),
                                           "--config", t["tr_cfg"]],
                             "no training sequences found"),
    "lambda outside (0, 1)": (lambda d, t: ["eval-covert", "--checkpoint", t["ckpt"],
                                            "--config", eval_config(d, [0.5, 1.0], [4])],
                              "lambda grid value 1.0 not in (0, 1)"),
}


@pytest.mark.parametrize("case", REJECTED_RUNS)
def test_rejected_run_exit_2(tmp_path, trained, capsys, case):
    make_argv, words = REJECTED_RUNS[case]
    argv = make_argv(tmp_path, trained)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv + ["--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["train", "eval-covert"])
def test_seed_flag_equals_the_config_seed(tmp_path, trained, command):
    # --seed 9 on a config seeded 0 writes what a config seeded 9 writes
    outputs = {"train": ["m.json", "m_loss.csv"], "eval-covert": ["agg.csv", "agg_report.json"]}
    written = []
    for name, config_seed, flag in [("config", 9, []), ("flag", 0, ["--seed", "9"])]:
        d = tmp_path / name
        d.mkdir()
        if command == "train":
            cfg = write_json(d / "t.json", {"tau": 3, "epochs_phase1": 2,
                                            "epochs_phase2": 2, "seed": config_seed})
            argv = ["train", "--data", str(trained["root"] / "data"), "--config", cfg]
        else:
            doc = json.loads(Path(eval_config(d, [0.5], [4], runs=2)).read_text())
            doc["covert"]["seed"] = config_seed
            argv = ["eval-covert", "--checkpoint", trained["ckpt"],
                    "--config", write_json(d / "eval.json", doc)]
        assert main(argv + ["--out", str(d / outputs[command][0]), *flag, "--quiet"]) == 0
        written.append([(d / f).read_bytes() for f in outputs[command]])
    assert written[0] == written[1]


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
