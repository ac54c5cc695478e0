import json
import math

import numpy as np
import pytest

from covertswarm import gkae, graphs, swarm
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


def test_simulate_unwritable_out_exit_3(tmp_path, sim_config):
    out = tmp_path / "missing_dir" / "o.csv"
    assert main(["simulate", "--config", sim_config, "--out", str(out),
                 "--quiet"]) == 3


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
    pos = seq.features_array() * 500.0
    expected = graphs.adjacency_from_positions(pos[0], 37.0)
    np.testing.assert_array_equal(seq.snapshots[0].adjacency, expected)


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
    _, pred, _ = swarm.load_trajectory_csv(out)
    assert pred.shape == (30, 3, 3)
    err_lines = (tmp_path / "pred_errors.csv").read_text().splitlines()
    assert err_lines[0] == "delta_t_s,eps_pred,eps_pred_norm"
    assert len(err_lines) == 1 + 3 + 1  # three checks plus the mean row
    assert err_lines[-1].startswith("mean,")


def test_predict_baseline_columns(tmp_path, trained, truth_csv):
    out = tmp_path / "pred.csv"
    assert main(["predict", "--checkpoint", trained["ckpt"],
                 "--trajectory", truth_csv, "--horizon-s", "2",
                 "--out", str(out), "--baseline", "--quiet"]) == 0
    header = (tmp_path / "pred_errors.csv").read_text().splitlines()[0]
    assert header == "delta_t_s,eps_pred,eps_pred_norm,eps_cv,eps_cv_norm"


def test_predict_replay_self_is_zero_error(tmp_path, trained, truth_csv):
    # feeding the truth back as the prediction gives exactly zero error
    times, pos, vel = swarm.load_trajectory_csv(truth_csv)
    shifted = swarm.Trajectory(pos[1:], vel[1:], 0.1, None)
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


def test_eval_covert_mismatched_l_grid_exit_2(tmp_path, trained):
    cfg = json.loads((tmp_path / "x.json").write_text("") or "{}")
    path = eval_config(tmp_path, [0.5], [5])
    doc = json.loads(open(path).read())
    doc["l_grid"] = [7]
    write_json(tmp_path / "eval.json", doc)
    assert main(["eval-covert", "--checkpoint", trained["ckpt"],
                 "--config", path, "--out", str(tmp_path / "agg.csv"),
                 "--quiet"]) == 2


@pytest.mark.parametrize("interval", [0.25, 0.04])
def test_eval_covert_report_interval_not_multiple_of_dt_exit_2(tmp_path, trained,
                                                                 capsys, interval):
    # 0.25 s is 2.5 steps of dt = 0.1 s; 0.04 s would round to zero steps
    doc = json.loads(open(eval_config(tmp_path, [0.5], [5])).read())
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
