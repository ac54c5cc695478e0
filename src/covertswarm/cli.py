"""Command-line front end: simulate, dataset, train, predict, eval-covert.

All numeric settings live in JSON config files; flags only select paths,
seeds and simple switches.  main runs every command the same way: it checks
the paths on the command line, writes a run manifest next to the primary
output and prints the command's summary line; on failure it removes the
partial outputs.

Exit codes: 0 ok, 2 config/validation problem, 3 I/O failure, 4 numeric
failure during training or prediction.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import covert as cv
from . import gkae
from . import graphs
from . import swarm

DATASET_TRAIN_FRACTION = 0.8
# Trajectories simulated together by dataset: enough to amortise numpy's
# per-call cost over the swarms, few enough to keep memory flat in n.
DATASET_BATCH = 64


class _Outputs:
    """Tracks files created by a command so failures can clean them up."""

    def __init__(self):
        self.paths = []

    def write(self, path, write) -> None:
        """Track path and write it atomically through write(file_path)."""
        p = Path(path)
        self.paths.append(p)
        _write_atomic(p, write)

    def cleanup(self) -> None:
        for p in self.paths:
            try:
                if p.is_file():
                    p.unlink()
            except OSError:
                pass


def _write_atomic(path, write) -> None:
    """Let write(file_path) fill a sibling .tmp file, then move it onto
    path, so path never holds a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the file asked for, not its temporary sibling
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _require_file(path, what: str) -> None:
    if not Path(path).is_file():
        raise ValueError(f"{what} not found: {path}")


def _load_json(path) -> dict:
    _require_file(path, "config file")
    with open(path) as fh:
        return json.load(fh)


# The output paths a command line may name, checked before any work, and
# the input files, each with how a missing-file message names it; the
# manifest records the digest of every input file named.
_OUTPUT_PATHS = ("out", "loss_csv", "errors_out")
_INPUT_FILES = {"checkpoint": "checkpoint", "trajectory": "trajectory file",
                "resume": "resume checkpoint", "replay": "replay file"}


def _write_manifest(args, outputs: _Outputs, t_start: float) -> None:
    primary = Path(args.out)
    if primary.is_dir():
        path = primary / "manifest.json"
    else:
        path = primary.with_name(primary.name + ".manifest.json")
    config = getattr(args, "config", None)
    doc = {
        "tool": "covertswarm",
        "version": __version__,
        "command": args.command,
        "config": config,
        "config_digest": _sha256(config) if config else None,
        "seed": args.seed,
        "inputs": {k: _sha256(getattr(args, k)) for k in _INPUT_FILES
                   if getattr(args, k, None) is not None},
        "outputs": [str(p) for p in outputs.paths],
        "duration_s": time.monotonic() - t_start,
    }
    _write_atomic(path, lambda p: p.write_text(json.dumps(doc, indent=1)))


def _whole_steps(seconds: float, dt: float, what: str, allow_zero: bool = False) -> int:
    """seconds as a whole number >= 1 of dt steps (or 0 when allow_zero);
    any other value would round and silently shift times."""
    if allow_zero and seconds == 0:
        return 0
    steps = cv.whole_multiple(seconds, dt)
    if not steps:
        sign = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{what} {seconds:g} s is not a {sign} whole multiple "
                         f"of dt={dt:g} s")
    return steps


# The JSON types a config value may take, as the Python types json.load
# gives them, each with how an error message names it.
_JSON_TYPES = {int: "an integer", float: "a finite number", bool: "true or false",
               dict: "a JSON object", list[int]: "a list of integers",
               list[float]: "a list of finite numbers", int | None: "an integer or null"}


def _is_json(value, kind) -> bool:
    """Whether a parsed JSON value has the type kind, a key of _JSON_TYPES:
    a number is what graphs.read_numbers reads as one (finite, and never
    true or false), true/false is only a boolean and 2.0 is no integer."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_is_json(v, args[0]) for v in value)
    if args:  # a union
        return any(_is_json(value, k) for k in args)
    if kind is float:
        try:
            graphs.read_numbers(value, "", ())
        except ValueError:
            return False
        return True
    return type(value) is kind


def _field_types(cls, *skip) -> dict:
    """The JSON type of each field of a dataclass, leaving out skip."""
    return {k: v for k, v in typing.get_type_hints(cls).items() if k not in skip}


def _known(data, section: str, types: dict, required=()) -> dict:
    """data once it is a JSON object that holds every required key, whose
    every key is one of types and every value of that key's JSON type: a
    misspelt key would otherwise leave its default silently in force, and a
    value of the wrong type be coerced (the string "false" is true, 25.9
    nodes are 25)."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object")
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown key{'s' * (len(unknown) > 1)} "
                         f"{', '.join(map(repr, unknown))} in the {section}")
    for key, value in data.items():
        if not _is_json(value, types[key]):
            raise ValueError(f"{key!r} in the {section} must be "
                             f"{_JSON_TYPES[types[key]]}, got {json.dumps(value)}")
    for key in required:
        if key not in data:
            raise ValueError(f"missing key {key!r} in the {section}")
    return data


def _swarm_section(cfg: dict) -> swarm.SwarmConfig:
    return swarm.config_from_dict(_known(cfg["swarm"], "swarm section",
                                         _field_types(swarm.SwarmConfig)))


# --- simulate ----------------------------------------------------------------

def cmd_simulate(args, outputs: _Outputs) -> str:
    cfg_dict = _known(_load_json(args.config), "simulate config",
                      _field_types(swarm.SwarmConfig))
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    config = swarm.config_from_dict(cfg_dict)
    traj = swarm.simulate(config)
    outputs.write(args.out, lambda p: swarm.save_trajectory_csv(traj, p))
    return f"simulated {traj.n_frames} frames x {config.L} UAVs -> {args.out}"


# --- dataset -----------------------------------------------------------------

def cmd_dataset(args, outputs: _Outputs) -> str:
    cfg = _known(_load_json(args.config), "dataset config",
                 {"swarm": dict, "n_trajectories": int, "d_tilde": float, "scale": float,
                  "offset": list[float], "burn_in_s": float},
                 required=("swarm",) if args.n is not None else ("swarm", "n_trajectories"))
    swarm_cfg = _swarm_section(cfg)
    n = args.n if args.n is not None else cfg["n_trajectories"]
    if n < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n}")
    base_seed = args.seed if args.seed is not None else swarm_cfg.seed
    d_tilde = float(cfg.get("d_tilde", graphs.DEFAULT_THRESHOLD_M))
    offset = graphs.read_numbers(cfg.get("offset", [0.0, 0.0, 0.0]),
                                 "'offset' in the dataset config", (3,))
    norm = graphs.NormalizationSpec(scale=float(cfg.get("scale", swarm_cfg.X_size)),
                                    offset=offset)
    skip = _whole_steps(float(cfg.get("burn_in_s", 0.0)), swarm_cfg.dt, "burn_in_s",
                        allow_zero=True)
    if swarm_cfg.n_steps - skip < 1:
        raise ValueError("burn_in_s leaves fewer than 2 frames per trajectory")
    frames = np.arange(skip, swarm_cfg.n_steps + 1)

    out_dir = Path(args.out)
    train_dir = out_dir / "train"
    test_dir = out_dir / "test"
    train_dir.mkdir(parents=True, exist_ok=True)
    test_dir.mkdir(parents=True, exist_ok=True)
    n_train = int(n * DATASET_TRAIN_FRACTION)
    for first in range(0, n, DATASET_BATCH):
        seeds = range(base_seed + first, base_seed + min(n, first + DATASET_BATCH))
        positions, _ = swarm.simulate_batch(swarm_cfg, seeds, frames)
        for k, run in enumerate(positions, first):
            seq = graphs.sequence_from_positions(run, d_tilde, swarm_cfg.dt, norm)
            seq = graphs.normalize(seq)
            split = train_dir if k < n_train else test_dir
            outputs.write(split / f"seq_{k:04d}.json",
                          lambda p: graphs.save_sequence_json(seq, p))
    return f"wrote {n_train} train + {n - n_train} test sequences -> {out_dir}"


# --- train -------------------------------------------------------------------

def _sequence_spec(seq: graphs.GraphSequence) -> dict:
    return {"dt": seq.dt, "D_tilde": seq.threshold, "scale/offset": seq.norm,
            "node count": seq.n_nodes, "feature dimension": seq.features.shape[-1]}


def cmd_train(args, outputs: _Outputs) -> str:
    cfg_dict = _known(_load_json(args.config), "train config",
                      _field_types(gkae.TrainConfig))
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg = gkae.TrainConfig(**cfg_dict)

    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise ValueError(f"dataset directory not found: {data_dir}")
    train_dir = data_dir / "train" if (data_dir / "train").is_dir() else data_dir
    files = sorted(train_dir.glob("*.json"))
    if not files:
        raise ValueError(f"no training sequences found under {train_dir}")
    dataset = [graphs.load_sequence_json(p) for p in files]
    first = dataset[0]
    d_out = first.features.shape[-1]
    # the checkpoint records one norm and threshold for every sequence
    spec = _sequence_spec(first)
    for path, seq in zip(files, dataset):
        differ = [k for k, v in _sequence_spec(seq).items() if v != spec[k]]
        if differ:
            raise ValueError(f"{path}: {', '.join(differ)} not the same as in {files[0]}")

    if args.resume:
        # gkae.train checks the dataset's (L, d) against the model's
        model = gkae.load_checkpoint(args.resume)
        if model.norm != first.norm:
            raise ValueError(f"resume checkpoint norm {model.norm} differs from the "
                             f"dataset's {first.norm}")
    else:
        model = gkae.build_model(first.n_nodes, d_out=d_out, norm=first.norm,
                                 seed=cfg.seed)
    model, history = gkae.train(model, dataset, cfg)
    out = Path(args.out)
    outputs.write(out, lambda p: gkae.save_checkpoint(model, p))
    loss_csv = Path(args.loss_csv) if args.loss_csv else \
        out.with_name(out.stem + "_loss.csv")
    outputs.write(loss_csv, lambda p: gkae.save_loss_csv(history, p))
    final = history[-1]["total"] if history else float("nan")
    return f"trained {len(dataset)} sequences, final loss {final:.6g} -> {out}"


# --- predict -----------------------------------------------------------------

def _forecast(model: gkae.GkaeModel, start_frames_m: np.ndarray, steps) -> np.ndarray:
    """The model's forecast from each (L, 3) start frame in meters, graphed
    at the checkpoint's d_tilde: (R, len(steps), L, 3) meters."""
    d_tilde = float(model.meta.get("d_tilde", graphs.DEFAULT_THRESHOLD_M))
    return gkae.rollout_batch(model, model.norm.apply(start_frames_m),
                              graphs.adjacency_from_positions(start_frames_m, d_tilde),
                              steps)


def _load_3d_checkpoint(args) -> gkae.GkaeModel:
    """The checkpoint the forecast commands take: one of 3-D positions."""
    model = gkae.load_checkpoint(args.checkpoint)
    if model.d_out != 3:
        raise ValueError(f"{args.command} requires a 3D checkpoint, "
                         f"{args.checkpoint} is 2-D")
    return model


def cmd_predict(args, outputs: _Outputs) -> str:
    model = _load_3d_checkpoint(args)
    times, positions, _ = swarm.load_trajectory_csv(args.trajectory)
    if len(times) < 2:
        raise ValueError("trajectory needs at least 2 frames")
    dt = float(times[1] - times[0])
    if positions.shape[1] != model.L:
        raise ValueError(
            f"trajectory has {positions.shape[1]} UAVs, checkpoint expects {model.L}")
    steps = _whole_steps(args.horizon_s, dt, "horizon")
    if steps > positions.shape[0] - 1:
        raise ValueError(
            f"horizon of {steps} steps exceeds the {positions.shape[0] - 1} "
            "available truth steps")
    per_check = _whole_steps(args.report_interval_s, dt, "report interval")
    if per_check > steps:
        raise ValueError("report interval longer than the horizon")
    checks = np.arange(per_check, steps + 1, per_check)

    if args.replay:
        replay_times, pred, _ = swarm.load_trajectory_csv(args.replay)
        replay_dt = replay_times[1] - replay_times[0] if len(replay_times) > 1 else dt
        if pred.shape[1] != positions.shape[1]:
            raise ValueError(f"replay file {args.replay} has {pred.shape[1]} UAVs, "
                             f"the trajectory {positions.shape[1]}")
        # within load_trajectory_csv's tolerance for one uniform dt
        if not np.isclose(replay_dt, dt, rtol=1e-6, atol=0.0):
            raise ValueError(f"replay file {args.replay} has dt {replay_dt:g} s, "
                             f"the trajectory {dt:g} s")
        if pred.shape[0] < steps:
            raise ValueError("replay file shorter than the requested horizon")
        pred = pred[:steps]
    else:
        pred = _forecast(model, positions[:1], np.arange(1, steps + 1))[0]

    pred_traj = swarm.Trajectory(
        positions=pred,
        velocities=np.diff(pred, axis=0, prepend=positions[:1]) / dt,
        dt=dt,
    )
    out = Path(args.out)
    # prediction frames start one step after the observed frame
    outputs.write(out, lambda p: swarm.save_trajectory_csv(pred_traj, p, first_step=1))

    scale2 = model.norm.scale ** 2
    eps = cv.prediction_error(positions[checks], pred[checks - 1])
    cols = {"delta_t_s": checks * dt, "eps_pred": eps, "eps_pred_norm": eps / scale2}
    if args.baseline:
        # the constant-velocity line through frames 0 and 1, at each check frame
        cv_pred = positions[0] + checks[:, None, None] * (positions[1] - positions[0])
        cols["eps_cv"] = cv.prediction_error(positions[checks], cv_pred)
        cols["eps_cv_norm"] = cols["eps_cv"] / scale2
    errors_csv = Path(args.errors_out) if args.errors_out else \
        out.with_name(out.stem + "_errors.csv")
    outputs.write(errors_csv, lambda p: _save_errors_csv(cols, p))
    return f"predicted {steps} steps, eps_mean={float(np.mean(eps)):.6g} m^2 -> {out}"


def _save_errors_csv(cols: dict, path) -> None:
    """One row per check time, then the mean of every error column."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*(col.tolist() for col in cols.values())):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        means = [float(np.mean(col)) for col in list(cols.values())[1:]]
        fh.write("mean," + ",".join(f"{m:.17g}" for m in means) + "\n")


# --- eval-covert -------------------------------------------------------------

def cmd_eval_covert(args, outputs: _Outputs) -> str:
    model = _load_3d_checkpoint(args)
    cfg = _known(_load_json(args.config), "eval-covert config",
                 {"swarm": dict, "burn_in_s": float, "covert": dict, "ground": dict,
                  "lambda_grid": list[float], "n_grid": list[int], "l_grid": list[int],
                  "use_nominal_power": bool}, required=("swarm",))
    swarm_cfg = _swarm_section(cfg)
    covert_dict = dict(_known(cfg.get("covert", {}), "covert section",
                              {"lambda": float, **_field_types(cv.CovertConfig, "lambda_")}))
    if "lambda" in covert_dict:
        covert_dict["lambda_"] = covert_dict.pop("lambda")
    if args.seed is not None:
        covert_dict["seed"] = args.seed
    covert_cfg = cv.CovertConfig(**covert_dict)
    ground = dict(_known(cfg.get("ground", {}), "ground section",
                         {"area": float, **_field_types(cv.GroundNetwork, "positions")}))
    area = float(ground.pop("area", swarm_cfg.X_size))
    lambda_grid = list(cfg.get("lambda_grid", [covert_cfg.lambda_]))
    n_grid = cfg.get("n_grid", [25])
    l_grid = cfg.get("l_grid", [model.L])
    if not lambda_grid or not n_grid:
        raise ValueError("lambda_grid and n_grid must not be empty")
    for lam in lambda_grid:
        if not 0 < lam < 1:
            raise ValueError(f"lambda grid value {lam} not in (0, 1)")
    if min(n_grid) < 1:
        raise ValueError(f"n_grid values must be >= 1, got {min(n_grid)}")
    if l_grid != [model.L]:
        raise ValueError(
            f"l_grid {l_grid} must be [{model.L}], the checkpoint's UAV count")

    dt = swarm_cfg.dt
    per_check = _whole_steps(covert_cfg.report_interval_s, dt, "report interval")
    check_steps = per_check * np.arange(1, covert_cfg.n_checks + 1)
    skip = _whole_steps(float(cfg.get("burn_in_s", 0.0)), dt, "burn_in_s",
                        allow_zero=True)
    n_max = max(n_grid)

    # the networks draw from their own streams, so building them first checks
    # the ground section before any simulation
    nets = [cv.GroundNetwork.uniform_random(
        n_max, area, np.random.default_rng([covert_cfg.seed, r, 1]), **ground)
        for r in range(covert_cfg.runs)]
    nominal = [cv.nominal_powers(net) for net in nets] \
        if cfg.get("use_nominal_power", False) else None
    # every run is stepped together; only the start frame and the check frames are kept
    seeds = range(covert_cfg.seed, covert_cfg.seed + covert_cfg.runs)
    positions, _ = swarm.simulate_batch(replace(swarm_cfg, L=model.L), seeds,
                                        np.concatenate([[skip], skip + check_steps]))
    pred_runs = _forecast(model, positions[:, 0], check_steps)
    report = cv.detection_probability(nets, positions[:, 1:], pred_runs, covert_cfg, nominal)
    cells = [{"lambda": lam, "N": n_nodes, "L": model.L, "H": covert_cfg.horizon_s,
              "P_det": report.cell(lam, n_nodes).p_det, "eps_mean": report.eps_mean}
             for n_nodes in n_grid for lam in lambda_grid]

    def save_cells_csv(path):
        with open(path, "w", newline="") as fh:
            fh.write("lambda,N,L,H,P_det,eps_mean\n")
            for c in cells:
                fh.write(f"{c['lambda']:.17g},{c['N']},{c['L']},{c['H']:.17g},"
                         f"{c['P_det']:.17g},{c['eps_mean']:.17g}\n")

    def save_report_json(path):
        with open(path, "w") as fh:
            json.dump({"runs": covert_cfg.runs, "horizon_s": covert_cfg.horizon_s,
                       "report_interval_s": covert_cfg.report_interval_s,
                       "cells": cells}, fh, indent=1)

    out = Path(args.out)
    outputs.write(out, save_cells_csv)
    outputs.write(out.with_name(out.stem + "_report.json"), save_report_json)
    if args.audit:
        outputs.write(out.with_name(out.stem + "_audit.csv"),
                      report.cell(lambda_grid[0], n_grid[0]).save_summary_csv)
    return f"evaluated {len(cells)} cells over {covert_cfg.runs} runs -> {out}"


# --- parser / entry ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertswarm",
        description="UAV swarm simulation, graph Koopman forecasting and covert "
                    "transmit-power evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("simulate", help="generate one swarm trajectory CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dataset", help="generate normalized graph-sequence files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=None, help="number of trajectories")
    common(p)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--resume", default=None, help="continue from a checkpoint")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="roll out predictions from a trajectory's first frame")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trajectory", required=True, help="truth trajectory CSV")
    p.add_argument("--horizon-s", type=float, default=10.0)
    p.add_argument("--report-interval-s", type=float, default=1.0)
    p.add_argument("--out", required=True, help="prediction CSV path")
    p.add_argument("--errors-out", default=None)
    p.add_argument("--baseline", action="store_true",
                   help="add constant-velocity comparison columns")
    p.add_argument("--replay", default=None,
                   help="evaluate an existing prediction CSV instead of the model")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval-covert", help="Monte-Carlo detection probability evaluation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="aggregate CSV path")
    p.add_argument("--audit", action="store_true",
                   help="also dump a per-(run,time,node) audit CSV for the first cell")
    common(p)
    p.set_defaults(func=cmd_eval_covert)
    return parser


# Each exception a command may end in, and its exit code.
_EXIT_CODES = {gkae.TrainingDivergence: 4, gkae.ModelStateError: 4,
               ValueError: 2, KeyError: 2, TypeError: 2, OSError: 3}


def main(argv=None) -> int:
    """Run one command: check the paths its command line names, let it work,
    write its manifest and print its summary line; on failure remove what it
    wrote and print one error line."""
    args = build_parser().parse_args(argv)
    t_start = time.monotonic()
    outputs = _Outputs()
    try:
        for key in _OUTPUT_PATHS:
            path = getattr(args, key, None)
            # the error that writing the file would give, before any work
            if path is not None and not Path(path).parent.is_dir():
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        for key, what in _INPUT_FILES.items():
            if getattr(args, key, None) is not None:
                _require_file(getattr(args, key), what)
        summary = args.func(args, outputs)
        _write_manifest(args, outputs, t_start)
    except tuple(_EXIT_CODES) as exc:
        outputs.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    if not args.quiet:
        print(summary)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
