"""Direct calls into each covertswarm layer at fixed shapes.

A traced run ends with one pass of these probes, under the same tracer as
the workload's commands, so every layer is measured on every workload:
one simulated trajectory (swarm), its graph sequence written and read
back (graphs), nn kernels at the train workload's shapes (nn), phase-1
and phase-2 epochs, checkpoint loads and rollouts (gkae), and detection
over one run at the workload's node count (covert).

Run as a script, this module is the child process that times the two
training phases under a given OPENBLAS_NUM_THREADS:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/probes.py SEQ.json REPLICAS TAU EPOCHS
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from covertswarm import covert, gkae, graphs, nn, swarm


def median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def epoch_seconds(seq_path, replicas: int, tau: int, epochs: int):
    """Seconds per phase-1 and per phase-2 epoch of ``gkae.train`` on
    ``replicas`` copies of one sequence, each phase timed with the other
    phase's epochs at 0 and the cost of a 0+0-epoch call taken off."""
    seq = graphs.load_sequence_json(seq_path)
    dataset = [seq] * replicas
    d = seq.snapshots[0].features.shape[1]

    def train(e1: int, e2: int) -> float:
        model = gkae.build_model(seq.n_nodes, d_out=d, norm=seq.norm, seed=0)
        cfg = gkae.TrainConfig(tau=tau, epochs_phase1=e1, epochs_phase2=e2, lr=3e-3)
        t = time.perf_counter()
        gkae.train(model, dataset, cfg)
        return time.perf_counter() - t

    # The first phase-1 epoch in a process can take 2-3x longer than the
    # next; a training run pays that once, so it is left out of the timing.
    train(1, 0)
    base = train(0, 0)
    return (train(epochs, 0) - base) / epochs, (train(0, epochs) - base) / epochs


def nn_kernels(rng, rows: int, frames: int, reps: int) -> dict:
    """nn forward/backward and Adam at the train workload's shapes: a 16->16
    tanh layer over one horizon's anchors, the first graph-encoder layer
    over every frame, and one Adam step over the phase-2 parameters."""
    width = 16
    dense = nn.make_dense(rng, width, width, "tanh")
    x = rng.standard_normal((rows, width))
    up = rng.standard_normal((rows, width))
    sage = nn.make_sage(rng, 3, 4, "elu")
    X = rng.standard_normal((frames, 4, 3))
    A = np.triu((rng.random((frames, 4, 4)) < 0.5).astype(float), 1)
    A = A + np.swapaxes(A, 1, 2)
    up_sage = rng.standard_normal((frames, 4, 4))
    model = gkae.build_model(4, d_out=3)
    params = [a for l in model.koopman_encoder for a in (l.W, l.b)] + [model.K]
    params += [a for l in model.koopman_decoder for a in (l.W, l.b)]
    grads = [rng.standard_normal(p.shape) for p in params]
    state = nn.AdamState.for_params(params, lr=3e-3)
    # dense_backward's compulsory float64 traffic: read x, upstream and W,
    # write dx, dW and db; flops: the forward product it recomputes, dW and
    # dx (2*rows*in*out each) plus 6 elementwise ops per output.
    return {
        "nn.dense_fwd_ms": ("ms", 1e3 * median_seconds(
            lambda: nn.dense_forward(dense, x), reps)),
        "nn.dense_bwd_ms": ("ms", 1e3 * median_seconds(
            lambda: nn.dense_backward(dense, x, up), reps)),
        "nn.sage_bwd_ms": ("ms", 1e3 * median_seconds(
            lambda: nn.sage_backward(sage, X, A, up_sage), reps)),
        "nn.adam_step_us": ("us", 1e6 * median_seconds(
            lambda: nn.adam_step(params, grads, state), 10 * reps)),
        "nn.dense_bwd_flop": ("flop", float(6 * rows * width * width + 6 * rows * width)),
        "nn.dense_bwd_bytes": ("B", float(8 * (3 * rows * width + 2 * width * width + width))),
    }


def layer_probes(ref: dict, size, work, ckpt_path, n_nodes: int, seed: int):
    """One pass over every layer.  Returns the directly timed metrics as
    {name: (unit, value)} and the path of the probe's sequence file, which
    the per-BLAS children train on."""
    ds = ref["dataset"]
    swarm_cfg = swarm.config_from_dict({**ds["swarm"], **size.swarm, "seed": seed})
    skip = int(round(size.burn_in_s / swarm_cfg.dt))
    traj = swarm.simulate(swarm_cfg)
    norm = graphs.NormalizationSpec(scale=ds["scale"])
    seq = graphs.normalize(graphs.sequence_from_positions(
        traj.positions[skip:], ds["d_tilde"], swarm_cfg.dt, norm))
    seq_path = work / "probe" / "seq_0000.json"
    seq_path.parent.mkdir(parents=True, exist_ok=True)
    graphs.save_sequence_json(seq, seq_path)

    p1, p2 = epoch_seconds(seq_path, size.train_sequences,
                           size.tau, size.probe_epochs)
    out = {"gkae.phase1_epoch_s": ("s", p1), "gkae.phase2_epoch_s": ("s", p2)}
    rng = np.random.default_rng(seed)
    frames = size.train_sequences * seq.n_frames
    out.update(nn_kernels(rng, frames - size.train_sequences * size.tau,
                          frames, size.probe_reps))

    ev = ref["eval"]
    cov_cfg = covert.CovertConfig(**{("lambda_" if k == "lambda" else k): v
                                     for k, v in ev["covert"].items()})
    per_check = int(round(cov_cfg.report_interval_s / swarm_cfg.dt))
    checks = per_check * np.arange(1, size.n_checks + 1)
    for _ in range(size.probe_reps):
        model = gkae.load_checkpoint(ckpt_path)
    snap = graphs.normalize_snapshot(
        graphs.build_snapshot(traj.positions[skip], model.meta["d_tilde"]), model.norm)
    for _ in range(size.probe_reps):
        pred = gkae.rollout_predict(model, snap, int(checks[-1]))
    ground = dict(ev["ground"])
    area = ground.pop("area")
    net = covert.GroundNetwork.uniform_random(n_nodes, area, rng, **ground)
    nominal = np.full(n_nodes, net.P_max)
    for _ in range(size.probe_reps):
        covert.detection_events(net, traj.positions[skip + checks], pred[checks - 1],
                                cov_cfg, nominal)
    return out, seq_path


if __name__ == "__main__":
    seq_file, replicas, tau, epochs = sys.argv[1:5]
    p1, p2 = epoch_seconds(seq_file, int(replicas), int(tau), int(epochs))
    print(json.dumps({"phase1": p1, "phase2": p2}))
