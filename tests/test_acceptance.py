"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line on the
real stdout (bypassing capture) so a plain pytest run shows the verdicts:

  1. simulator invariants over 50 random configs x 100 steps
  2. gradient fidelity of both training losses on 20 tiny models
  3. exact equivalence of the power bound with brute-force enumeration
  4. perfect predictions never trigger detection
  5. detection probability monotone in lambda, N and H on trained models
  6. scaled reproduction of prediction quality (full 400+400-epoch run)
  7. parameter budget of the reference model
  8. (exclusion note: learned-baseline comparisons are out of scope)
  9. end-to-end CLI determinism

Criterion 6 trains the full model and takes most of the suite's runtime.
"""

import json
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from covertswarm import covert as cv
from covertswarm import gkae, graphs, swarm
from covertswarm.cli import main
from covertswarm.graphs import NormalizationSpec
from covertswarm.nn import grad_check

SCALE = 500.0
NORM = NormalizationSpec(scale=SCALE)
D_TILDE = 100.0
BURN_IN_S = 10.0
TRAIN_SEEDS = range(0, 80)
EVAL_SEEDS = range(10_000, 10_050)


def note(msg: str) -> None:
    sys.__stdout__.write(msg + "\n")
    sys.__stdout__.flush()


def verdict(num: int, ok: bool, detail: str) -> None:
    note(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- criterion 1: simulator invariants ---------------------------------------------

def random_config(rng) -> swarm.SwarmConfig:
    r_rep = float(rng.uniform(1.0, 400.0))
    return swarm.SwarmConfig(
        L=int(rng.integers(1, 9)),
        V_max=float(rng.uniform(5.0, 30.0)),
        theta_max=float(rng.uniform(0.005, math.pi)),
        dt=float(rng.choice([0.05, 0.1, 0.2])),
        r_rep=r_rep,
        r_ali=float(rng.uniform(0.0, 500.0)),
        r_att=float(rng.uniform(r_rep, 600.0)),
        Z_min=50.0, Z_max=150.0, X_size=500.0,
        duration=30.0,
        seed=int(rng.integers(0, 2 ** 31)),
        preserve_vertical=bool(rng.integers(0, 2)),
    )


def test_criterion_1_simulator_invariants():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    violations = 0
    for _ in range(50):
        cfg = random_config(rng)
        frame = swarm.init_swarm(cfg, np.random.default_rng(cfg.seed))
        prev_heading = None
        for _ in range(100):
            frame = swarm.step(frame, cfg)
            speeds = np.linalg.norm(frame.velocities, axis=1)
            if np.any(speeds > cfg.V_max + 1e-9):
                violations += 1
            if np.any(frame.positions[:, 2] < cfg.Z_min - 1e-9) or \
                    np.any(frame.positions[:, 2] > cfg.Z_max + 1e-9):
                violations += 1
            heading = np.arctan2(frame.velocities[:, 1], frame.velocities[:, 0])
            if prev_heading is not None:
                dphi = (heading - prev_heading + np.pi) % (2 * np.pi) - np.pi
                moving = np.linalg.norm(frame.velocities[:, :2], axis=1) > 0
                if np.any(np.abs(dphi[moving]) > cfg.theta_max + 1e-9):
                    violations += 1
            prev_heading = heading
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10.0
    verdict(1, ok, f"{violations} violations over 50 configs x 100 steps "
                   f"in {elapsed:.1f}s (budget 10s)")
    assert violations == 0
    assert elapsed < 10.0


# --- criterion 2: gradient fidelity --------------------------------------------------

def test_criterion_2_gradient_fidelity():
    rng = np.random.default_rng(2002)
    t0 = time.monotonic()
    worst1 = worst2 = 0.0
    for i in range(20):
        model = gkae.build_model(2, d_out=3, norm=NORM, seed=int(rng.integers(1e9)))
        pos = rng.uniform(0, SCALE, size=(6, 2, 3))
        seq = graphs.normalize(graphs.sequence_from_positions(pos, D_TILDE, 0.1), NORM)
        X = seq.features_array()
        A = seq.adjacency_array().astype(float)

        p1 = gkae._phase1_params(model)
        rep1 = grad_check(lambda: gkae._phase1_loss_grads(model, X, A, 1.0)[0],
                          lambda: gkae._phase1_loss_grads(model, X, A, 1.0)[1], p1)
        worst1 = max(worst1, rep1["max_rel_err"])

        h = gkae._embed_frames(model, X, A)
        anchors = np.arange(3)
        p2 = gkae._phase2_params(model)

        def loss2():
            r, p, _ = gkae._phase2_loss_grads(model, h, anchors, 3, 1.0)
            return r + p

        rep2 = grad_check(
            loss2, lambda: gkae._phase2_loss_grads(model, h, anchors, 3, 1.0)[2], p2)
        worst2 = max(worst2, rep2["max_rel_err"])
    elapsed = time.monotonic() - t0
    ok = worst1 < 1e-4 and worst2 < 1e-4 and elapsed < 60.0
    verdict(2, ok, f"max rel err phase1 {worst1:.2e}, phase2 {worst2:.2e} "
                   f"(tol 1e-4) in {elapsed:.1f}s (budget 60s)")
    assert worst1 < 1e-4
    assert worst2 < 1e-4
    assert elapsed < 60.0


# --- criterion 3: power-bound oracle equivalence --------------------------------------

def brute_force_bound(net, frame, p_det, nominal):
    out = np.empty(net.n_nodes)
    for n in range(net.n_nodes):
        w = -math.inf
        for l in range(frame.shape[0]):
            dx = net.positions[n, 0] - frame[l, 0]
            dy = net.positions[n, 1] - frame[l, 1]
            dz = net.positions[n, 2] - frame[l, 2]
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            w = max(w, d ** -float(net.eta))
        out[n] = min(float(nominal[n]), p_det / w)
    return out


def test_criterion_3_power_bound_oracle_equivalence():
    rng = np.random.default_rng(3003)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        l = int(rng.integers(1, 9))
        net = cv.GroundNetwork.uniform_random(
            n, SCALE, rng, eta=float(rng.uniform(0.5, 3.0)))
        frame = np.column_stack([rng.uniform(0, SCALE, (l, 2)),
                                 rng.uniform(50, 150, l)])
        nominal = np.full(n, net.P_max)
        got = cv.transmit_power_bound(net, frame, 1e-6, nominal)
        want = brute_force_bound(net, frame, 1e-6, nominal)
        if not np.array_equal(got, want):
            mismatches += 1
    verdict(3, mismatches == 0,
            f"{mismatches} mismatches over 1000 random instances (exact equality)")
    assert mismatches == 0


# --- criterion 4: perfect prediction, zero detection -----------------------------------

def test_criterion_4_perfect_prediction_zero_detection():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for lam in (0.1, 0.5, 0.9):
        for n_nodes in (1, 5, 25):
            for horizon in (3, 10):
                net = cv.GroundNetwork.uniform_random(n_nodes, SCALE, rng, eta=1.0)
                checks = np.column_stack([
                    rng.uniform(0, SCALE, (horizon * 4, 2)),
                    rng.uniform(50, 150, horizon * 4)]).reshape(horizon, 4, 3)
                covert = cv.CovertConfig(lambda_=lam, horizon_s=horizon, runs=1)
                report = cv.detection_probability(net, [checks], [checks], covert)
                worst = max(worst, report.p_det)
    verdict(4, worst == 0.0,
            f"P_det = {worst} with predicted == true over lambda x N x H grid "
            "(must be exactly 0)")
    assert worst == 0.0


# --- shared full training run (criteria 5 and 6) ----------------------------------------

def build_dataset(seeds, duration=60.0):
    skip = int(round(BURN_IN_S / 0.1))
    out = []
    for seed in seeds:
        traj = swarm.simulate(replace(swarm.SwarmConfig(), duration=duration,
                                      seed=seed))
        seq = graphs.sequence_from_positions(traj.positions[skip:], D_TILDE, 0.1,
                                             NORM)
        out.append(graphs.normalize(seq))
    return out


@pytest.fixture(scope="module")
def full_training():
    note("criterion 6 setup: generating 80 trajectories and training "
         "400+400 epochs (takes several minutes)...")
    t0 = time.monotonic()
    dataset = build_dataset(TRAIN_SEEDS)
    t_data = time.monotonic() - t0
    model = gkae.build_model(4, d_out=3, norm=NORM, seed=0)
    cfg = gkae.TrainConfig(alpha1=1.0, alpha2=1.0, tau=30,
                           epochs_phase1=400, epochs_phase2=400,
                           lr=3e-3, seed=0)
    model, history = gkae.train(model, dataset, cfg)
    t_total = time.monotonic() - t0
    note(f"criterion 6 setup: dataset {t_data:.0f}s, total {t_total:.0f}s, "
         f"final L_grec {history[399]['L_grec']:.2e}, "
         f"L_rec {history[-1]['L_rec']:.2e}, L_pred {history[-1]['L_pred']:.2e}")
    return {"model": model, "train_seconds": t_total}


def holdout_errors(model, seed):
    """(gkae_eps_mean, cv_eps_mean) in normalized units for one fresh seed."""
    skip = int(round(BURN_IN_S / 0.1))
    cfg = replace(swarm.SwarmConfig(), duration=BURN_IN_S + 10.0, seed=seed)
    traj = swarm.simulate(cfg)
    pos = traj.positions
    snap = graphs.normalize_snapshot(graphs.build_snapshot(pos[skip], D_TILDE), NORM)
    pred = gkae.rollout_predict(model, snap, 100)
    cv_pred = cv.baseline_constant_velocity(pos[skip - 1: skip + 1], 100)
    checks = 10 * np.arange(1, 11)
    eps = [cv.prediction_error(pos[skip + s] / SCALE, pred[s - 1] / SCALE)
           for s in checks]
    eps_cv = [cv.prediction_error(pos[skip + s] / SCALE, cv_pred[s - 1] / SCALE)
              for s in checks]
    return float(np.mean(eps)), float(np.mean(eps_cv))


# --- criterion 5: detection monotonicity on trained models ------------------------------

@pytest.mark.slow
def test_criterion_5_detection_monotonicity(full_training):
    model = full_training["model"]
    rng = np.random.default_rng(5005)
    skip = int(round(BURN_IN_S / 0.1))
    lambdas = (0.1, 0.3, 0.5, 0.7, 0.9)
    failures = []
    for inst in range(20):
        runs = 15
        p_true = np.empty((runs, 10, 25))
        p_pred = np.empty((runs, 10, 25))
        for r in range(runs):
            seed = 40_000 + inst * 100 + r
            cfg = replace(swarm.SwarmConfig(), duration=BURN_IN_S + 10.0, seed=seed)
            traj = swarm.simulate(cfg)
            snap = graphs.normalize_snapshot(
                graphs.build_snapshot(traj.positions[skip], D_TILDE), NORM)
            pred = gkae.rollout_predict(model, snap, 100)
            steps = 10 * np.arange(1, 11)
            true_checks = traj.positions[skip + steps]
            pred_checks = pred[steps - 1]
            net = cv.GroundNetwork.uniform_random(
                25, SCALE, np.random.default_rng([5005, inst, r]), eta=1.0)
            nominal = np.full(25, net.P_max)
            _, pt, pp = cv.detection_events(
                net, true_checks, pred_checks,
                cv.CovertConfig(lambda_=0.5, runs=1), nominal)
            p_true[r], p_pred[r] = pt, pp
        # lambda sweep on identical traces: event sets must nest
        p_by_lambda = [float((p_true < lam * p_pred).any(axis=(1, 2)).mean())
                       for lam in lambdas]
        if any(a > b + 1e-15 for a, b in zip(p_by_lambda, p_by_lambda[1:])):
            failures.append((inst, "lambda", p_by_lambda))
        flags = p_true < 0.5 * p_pred
        p_by_n = [float(flags[:, :, :k].any(axis=(1, 2)).mean())
                  for k in range(1, 26)]
        if any(a > b + 1e-15 for a, b in zip(p_by_n, p_by_n[1:])):
            failures.append((inst, "N", p_by_n))
        p_by_h = [float(flags[:, :k, :].any(axis=(1, 2)).mean())
                  for k in range(1, 11)]
        if any(a > b + 1e-15 for a, b in zip(p_by_h, p_by_h[1:])):
            failures.append((inst, "H", p_by_h))
    verdict(5, not failures,
            f"{len(failures)} monotonicity violations over 20 trained-model "
            "instances (lambda, N, H)")
    assert not failures


# --- criterion 6: prediction quality (scaled reproduction) ------------------------------

@pytest.mark.slow
def test_criterion_6_prediction_quality(full_training):
    model = full_training["model"]
    t0 = time.monotonic()
    pairs = [holdout_errors(model, seed) for seed in EVAL_SEEDS]
    eps = float(np.mean([p[0] for p in pairs]))
    eps_cv = float(np.mean([p[1] for p in pairs]))
    total = full_training["train_seconds"] + (time.monotonic() - t0)
    ok = eps <= 0.02 and eps < eps_cv and total <= 1800.0
    verdict(6, ok,
            f"eps_mean {eps:.4f} (must be <= 0.02), constant-velocity {eps_cv:.4f} "
            f"(must exceed model), runtime {total:.0f}s (budget 1800s)")
    assert total <= 1800.0, "runtime budget exceeded"
    assert eps < eps_cv, (
        f"model eps_mean {eps:.4f} does not beat constant velocity {eps_cv:.4f}")
    assert eps <= 0.02, f"eps_mean {eps:.4f} exceeds 0.02"


# --- criterion 7: parameter budget --------------------------------------------------------

def test_criterion_7_parameter_budget():
    n = gkae.count_parameters(gkae.build_model(4, d_out=3))
    ok = 1200 <= n <= 2500
    verdict(7, ok, f"{n} parameters for the L=4, 3D model (budget [1200, 2500])")
    assert ok


# --- criterion 8: exclusion note ------------------------------------------------------------

def test_criterion_8_exclusion_note():
    verdict(8, True,
            "EXCLUDED by design: learned-baseline detection comparisons (RNN/GRU/"
            "LSTM variants) are out of scope; covered by criteria 1-6 substitutes")


# --- criterion 9: end-to-end determinism ------------------------------------------------------

def test_criterion_9_end_to_end_determinism(tmp_path):
    outputs = {}
    for run in ("a", "b"):
        root = tmp_path / run
        root.mkdir()
        sim_cfg = root / "sim.json"
        sim_cfg.write_text(json.dumps({"L": 3, "duration": 6.0, "seed": 0}))
        ds_cfg = root / "ds.json"
        ds_cfg.write_text(json.dumps({
            "swarm": {"L": 3, "duration": 6.0, "seed": 0},
            "n_trajectories": 5, "d_tilde": 100.0, "scale": 500.0,
            "burn_in_s": 1.0,
        }))
        tr_cfg = root / "tr.json"
        tr_cfg.write_text(json.dumps({
            "tau": 5, "epochs_phase1": 20, "epochs_phase2": 15,
            "lr": 3e-3, "seed": 4,
        }))
        ev_cfg = root / "ev.json"
        ev_cfg.write_text(json.dumps({
            "swarm": {"L": 3, "duration": 6.0, "seed": 0},
            "burn_in_s": 1.0,
            "covert": {"P_det": 1e-6, "lambda": 0.5, "horizon_s": 4.0,
                       "report_interval_s": 1.0, "runs": 8, "seed": 6},
            "ground": {"P_max": 20.0, "eta": 1.0, "area": 500.0},
            "lambda_grid": [0.3, 0.6], "n_grid": [5, 10],
        }))
        assert main(["dataset", "--config", str(ds_cfg),
                     "--out", str(root / "data"), "--seed", "17", "--quiet"]) == 0
        assert main(["train", "--data", str(root / "data"),
                     "--config", str(tr_cfg), "--out", str(root / "model.json"),
                     "--quiet"]) == 0
        traj_csv = root / "truth.csv"
        assert main(["simulate", "--config", str(sim_cfg),
                     "--out", str(traj_csv), "--seed", "23", "--quiet"]) == 0
        assert main(["predict", "--checkpoint", str(root / "model.json"),
                     "--trajectory", str(traj_csv), "--horizon-s", "3",
                     "--out", str(root / "pred.csv"), "--baseline",
                     "--quiet"]) == 0
        assert main(["eval-covert", "--checkpoint", str(root / "model.json"),
                     "--config", str(ev_cfg), "--out", str(root / "agg.csv"),
                     "--quiet"]) == 0
        outputs[run] = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.suffix in (".csv", ".json")
            and "manifest" not in p.name and not p.samefile(sim_cfg)
            and p.name not in ("ds.json", "tr.json", "ev.json")
        }
    same_keys = outputs["a"].keys() == outputs["b"].keys()
    diffs = [k for k in outputs["a"] if outputs["a"][k] != outputs["b"].get(k)]
    verdict(9, same_keys and not diffs,
            f"{len(diffs)} differing files across two seeded pipeline runs "
            f"({len(outputs['a'])} compared)")
    assert same_keys
    assert not diffs
