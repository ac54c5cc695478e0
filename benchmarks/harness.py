"""Workloads, output checks, metrics and the report of the benchmark.

Imported by run.py after it has capped the BLAS thread count and put the
package sources on sys.path.  Every command goes through
``covertswarm.cli.main`` in this process.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import covertswarm.cli
import probes
from covertswarm import covert, gkae, graphs, nn, swarm
from run import HERE, SRC, nproc
from spans import LAYERS, Tracer, wrap_targets

REFERENCE = HERE / "reference"
CHECKPOINT = REFERENCE / "checkpoint.json"
SEED_STRIDE = 1_000_000  # command k of seed s uses seeds from s * SEED_STRIDE on
# Best-of-three seconds of speed_kernel on the machine the benchmark was
# defined on (2-core Xeon KVM guest), the median over five minutes of
# commands; timings are scaled to the host speed this stands for.
KERNEL_REF_S = 0.0017


@dataclass(frozen=True)
class Size:
    """How much work each workload does; REFERENCE_SIZE is the benchmark."""

    name: str
    swarm: dict            # overrides of the reference swarm config
    burn_in_s: float
    dataset_n: int         # trajectories per dataset command
    train_n: int           # trajectories generated for train (80 % train split)
    tau: int
    train_epochs: int      # epochs per phase per train command
    eval_runs: int         # Monte-Carlo runs per eval-covert command
    dense_runs: int
    dense_nodes: int
    horizon_s: float
    trace_commands: dict   # traced commands per workload
    probe_epochs: int
    probe_reps: int
    setup_repeats: int

    @property
    def train_sequences(self) -> int:
        return int(self.train_n * 0.8)

    @property
    def n_checks(self) -> int:
        return int(round(self.horizon_s))  # one report per second


REFERENCE_SIZE = Size(
    name="reference", swarm={}, burn_in_s=10.0, dataset_n=10, train_n=100, tau=30,
    train_epochs=2, eval_runs=100, dense_runs=10, dense_nodes=1000, horizon_s=10.0,
    trace_commands={"dataset": 8, "train": 2, "eval-covert": 4, "eval-covert-dense": 4},
    probe_epochs=2, probe_reps=5, setup_repeats=5)

# A few seconds per workload; used by the self-test.
TINY_SIZE = Size(
    name="tiny", swarm={"duration": 3.0}, burn_in_s=1.0, dataset_n=5, train_n=5, tau=5,
    train_epochs=1, eval_runs=4, dense_runs=2, dense_nodes=50, horizon_s=2.0,
    trace_commands={"dataset": 1, "train": 1, "eval-covert": 1, "eval-covert-dense": 1},
    probe_epochs=1, probe_reps=2, setup_repeats=1)

SIZES = {size.name: size for size in (REFERENCE_SIZE, TINY_SIZE)}

# Final losses of the train command (model seed 0) at each size, as the
# code this benchmark was defined on gives them on the datasets of seeds
# 0..9, and the relative tolerance that covers those ten with room to
# spare.  At the reference size the ten span 0.65-0.78 (L_grec), 0.26-0.33
# (L_rec) and 0.37-0.43 (L_pred).
REFERENCE_LOSSES = {
    "reference": ({"L_grec": 0.70, "L_rec": 0.30, "L_pred": 0.39}, 0.2),
    "tiny": ({"L_grec": 0.65, "L_rec": 0.25, "L_pred": 0.23}, 0.5),
}


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


@dataclass
class Ctx:
    ref: dict              # reference configs
    size: Size
    work: Path
    seed: int
    state: dict = field(default_factory=dict)


def load_reference() -> dict:
    """The reference dataset, train and eval configs."""
    return {name: json.loads((REFERENCE / f"{name}.json").read_text())
            for name in ("dataset", "train", "eval")}


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def clocks() -> tuple:
    """(wall, steal, active) seconds: the wall clock; the CPU time the
    hypervisor has taken from this machine's CPUs (steal, /proc/stat); and
    the time this thread has run or waited to run (/proc/thread-self/schedstat),
    which leaves steal out.  Steal and active read 0 where /proc lacks them."""
    wall, steal, active = time.perf_counter(), 0.0, 0.0
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
        with open("/proc/thread-self/schedstat") as fh:
            run_ns, wait_ns = fh.read().split()[:2]
        active = (int(run_ns) + int(wait_ns)) / 1e9
    except (OSError, IndexError, ValueError):
        pass
    return wall, steal, active


def unstolen_seconds(start: tuple, end: tuple) -> float:
    """Wall seconds between two ``clocks()`` readings less the time the
    hypervisor held the CPU: the larger of two lower bounds, this thread's
    active time (blind to its sleeps) and wall minus all steal (which also
    takes off steal from CPUs this process did not use)."""
    wall = end[0] - start[0]
    return max(end[2] - start[2], wall - (end[1] - start[1]))


def speed_kernel() -> int:
    """A fixed pure-Python loop: the yardstick of how fast the host runs
    interpreter code at the moment."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def kernel_seconds() -> float:
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        speed_kernel()
        best = min(best, time.perf_counter() - t)
    return best


@dataclass(frozen=True)
class Timing:
    wall: float      # wall-clock seconds
    unstolen: float  # wall seconds less hypervisor steal
    speed: float     # host speed against KERNEL_REF_S, from the kernel around the call

    @property
    def seconds(self) -> float:
        """Unstolen seconds scaled to the reference host speed."""
        return self.unstolen * self.speed


def timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) and its Timing.  The host's speed swings by up to
    2x in phases of seconds to minutes; timing the speed kernel just before
    and after the call and scaling by it follows those phases."""
    k0 = kernel_seconds()
    start = clocks()
    result = fn(*args, **kwargs)
    end = clocks()
    k1 = kernel_seconds()
    return result, Timing(end[0] - start[0], unstolen_seconds(start, end),
                          2 * KERNEL_REF_S / (k0 + k1))


def run_cli(argv) -> tuple[int, Timing]:
    return timed(covertswarm.cli.main, argv)


# --- workloads -------------------------------------------------------------------

class Workload:
    """One set of inputs: set-up, the repeated command, and its checks."""

    name = ""
    unit = ""
    run_checks = 0  # checks made once per run, besides one per command
    # Scale command times by the speed kernel, which tracks interpreter-bound
    # work: over ten seeds it halved the spread of dataset's rate.
    scaled = True

    def prepare(self, ctx: Ctx) -> None:
        raise NotImplementedError

    def command(self, ctx: Ctx, k: int) -> tuple[list, Path, int]:
        """argv, the directory the command writes into, items of work."""
        raise NotImplementedError

    def check(self, ctx: Ctx, out: Path) -> tuple[list, dict]:
        """Errors found in one command's outputs, and quality values."""
        raise NotImplementedError

    def check_run(self, ctx: Ctx) -> list:
        return []

    def nodes(self, ctx: Ctx) -> int:
        """Ground nodes N of the covert layer's work, in commands and probes."""
        return int(ctx.ref["eval"]["n_grid"][0])


def dataset_config(ctx: Ctx, n: int) -> dict:
    cfg = dict(ctx.ref["dataset"])
    cfg.update(swarm={**cfg["swarm"], **ctx.size.swarm}, n_trajectories=n,
               burn_in_s=ctx.size.burn_in_s)
    return cfg


class Dataset(Workload):
    """Long single trajectories, per-frame graph builds and sequence JSON writes."""

    name, unit = "dataset", "trajectories/s"

    def prepare(self, ctx):
        cfg = dataset_config(ctx, ctx.size.dataset_n)
        ctx.state["config"] = write_json(ctx.work / "dataset.json", cfg)
        sw = swarm.config_from_dict(cfg["swarm"])
        ctx.state["frames"] = int(round((sw.duration - cfg["burn_in_s"]) / sw.dt)) + 1
        ctx.state["L"] = sw.L

    def command(self, ctx, k):
        n = ctx.size.dataset_n
        out = ctx.work / f"cmd_{k:04d}"
        seed = ctx.seed * SEED_STRIDE + k * n
        return (["dataset", "--config", ctx.state["config"], "--out", str(out),
                 "--n", str(n), "--seed", str(seed), "--quiet"], out, n)

    def check(self, ctx, out):
        n = ctx.size.dataset_n
        errors = []
        n_train = len(list((out / "train").glob("*.json")))
        files = sorted(out.glob("*/seq_*.json"))
        if len(files) != n or n_train != int(n * 0.8):
            errors.append(f"{out.name}: {len(files)} sequences, {n_train} in train/")
        for path in files:
            seq = graphs.load_sequence_json(path)
            A = seq.adjacency_array()
            if seq.n_frames != ctx.state["frames"] or seq.n_nodes != ctx.state["L"]:
                errors.append(f"{path.name}: {seq.n_frames} frames x {seq.n_nodes} nodes")
            elif not (np.array_equal(A, np.swapaxes(A, 1, 2))
                      and not np.diagonal(A, axis1=1, axis2=2).any()):
                errors.append(f"{path.name}: adjacency not symmetric with zero diagonal")
        return errors, {}


class Train(Workload):
    """Two-phase training on the 80-sequence train split, equal epochs per phase."""

    name, unit = "train", "epochs/s"
    # Its time is BLAS work on nproc threads, which the interpreter kernel
    # does not track (correlation 0.18 per command against 0.5-0.6 on the
    # other workloads): scaled, its rate spread 12% over ten seeds, unscaled 7%.
    scaled = False

    def prepare(self, ctx):
        cfg = write_json(ctx.work / "dataset.json", dataset_config(ctx, ctx.size.train_n))
        data = ctx.work / "data"
        code, _ = run_cli(["dataset", "--config", cfg, "--out", str(data),
                           "--seed", str(ctx.seed * SEED_STRIDE), "--quiet"])
        if code != 0:
            raise SetupError(f"dataset command for the train inputs exited {code}")
        tr = dict(ctx.ref["train"])
        tr.update(tau=ctx.size.tau, epochs_phase1=ctx.size.train_epochs,
                  epochs_phase2=ctx.size.train_epochs)
        ctx.state.update(data=str(data), config=write_json(ctx.work / "train.json", tr))

    def command(self, ctx, k):
        out = ctx.work / f"cmd_{k:04d}"
        out.mkdir()
        return (["train", "--data", ctx.state["data"], "--config", ctx.state["config"],
                 "--out", str(out / "model.json"), "--quiet"],
                out, 2 * ctx.size.train_epochs)

    def check(self, ctx, out):
        with open(out / "model_loss.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        if len(rows) != 2 * ctx.size.train_epochs:
            errors.append(f"{out.name}: {len(rows)} loss rows")
        last1 = [r for r in rows if r["phase"] == "1"][-1]
        got = {"L_grec": float(last1["L_grec"]), "L_rec": float(rows[-1]["L_rec"]),
               "L_pred": float(rows[-1]["L_pred"])}
        want, tol = REFERENCE_LOSSES[ctx.size.name]
        for key, value in got.items():
            if not (math.isfinite(value) and abs(value - want[key]) <= tol * want[key]):
                errors.append(f"{out.name}: {key} {value:.6g}, reference {want[key]:.6g}")
        return errors, {"final_loss": float(rows[-1]["total"]), **got}


class EvalCovert(Workload):
    """Many short simulations, one rollout per run and the power bound at N=25."""

    name, unit = "eval-covert", "runs/s"
    run_checks = 1

    def runs(self, ctx) -> int:
        return ctx.size.eval_runs

    def prepare(self, ctx):
        cfg = json.loads(json.dumps(ctx.ref["eval"]))
        cfg["swarm"].update(ctx.size.swarm)
        cfg["burn_in_s"] = ctx.size.burn_in_s
        cfg["covert"].update(runs=self.runs(ctx), horizon_s=ctx.size.horizon_s)
        cfg["n_grid"] = [self.nodes(ctx)]
        ctx.state["config"] = write_json(ctx.work / "eval.json", cfg)

    def command(self, ctx, k):
        runs = self.runs(ctx)
        out = ctx.work / f"cmd_{k:04d}"
        out.mkdir()
        seed = ctx.seed * SEED_STRIDE + k * runs
        return (["eval-covert", "--checkpoint", str(CHECKPOINT), "--config",
                 ctx.state["config"], "--out", str(out / "agg.csv"), "--seed", str(seed),
                 "--quiet"], out, runs)

    def check(self, ctx, out):
        cells = json.loads((out / "agg_report.json").read_text())["cells"]
        errors = []
        for n in sorted({c["N"] for c in cells}):
            row = sorted((c["lambda"], c["P_det"]) for c in cells if c["N"] == n)
            p = [v for _, v in row]
            if not all(0.0 <= v <= 1.0 for v in p) or any(b < a for a, b in zip(p, p[1:])):
                errors.append(f"{out.name}: P_det {p} at N={n} not in [0, 1] and "
                              "non-decreasing in lambda")
        return errors, {"eps_mean": float(cells[0]["eps_mean"])}

    def check_run(self, ctx):
        bad = oracle_mismatches(ctx)
        return [f"transmit_power_bound differs from the brute-force loop on "
                f"{bad} sampled frames"] if bad else []


class EvalCovertDense(EvalCovert):
    """The power bound at N=1000 dominates: the workload where covert speed shows."""

    name = "eval-covert-dense"

    def runs(self, ctx) -> int:
        return ctx.size.dense_runs

    def nodes(self, ctx) -> int:
        return ctx.size.dense_nodes


WORKLOADS = {w.name: w for w in (Dataset(), Train(), EvalCovert(), EvalCovertDense())}


def brute_force_bound(net, frame, p_det, nominal):
    """Criterion 3's oracle: one scalar loop over (node, UAV) pairs."""
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


def oracle_mismatches(ctx: Ctx, frames: int = 8) -> int:
    """Frames of a simulated swarm on which the library's bound and the
    oracle disagree in any bit, at N=25 and N=1000."""
    ev = ctx.ref["eval"]
    rng = np.random.default_rng([ctx.seed, 3])
    traj = swarm.simulate(swarm.config_from_dict(
        {**ev["swarm"], **ctx.size.swarm, "seed": ctx.seed}))
    ground = dict(ev["ground"])
    area = ground.pop("area")
    bad = 0
    for n in (25, 1000):
        net = covert.GroundNetwork.uniform_random(n, area, rng, **ground)
        nominal = np.full(n, net.P_max)
        for k in rng.choice(traj.n_frames, size=frames, replace=False):
            frame, p_det = traj.positions[k], ev["covert"]["P_det"]
            got = covert.transmit_power_bound(net, frame, p_det, nominal)
            bad += not np.array_equal(got, brute_force_bound(net, frame, p_det, nominal))
    return bad


# --- machine facts -----------------------------------------------------------------

def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_size(level: int) -> str | None:
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == str(level) and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        except OSError:
            return None
    return None


def machine_facts(blas_env_before) -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(), "cpu": model, "l2": cache_size(2), "l3": cache_size(3),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS_given": blas_env_before,
        "blas_threads": blas_threads(),
    }


# --- the run -------------------------------------------------------------------

def python_path_env() -> dict:
    """This environment with the package sources first on PYTHONPATH."""
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def import_seconds() -> float:
    """A fresh interpreter importing the CLI: the start-up every command pays."""
    _, t = timed(subprocess.run, [sys.executable, "-c", "import covertswarm.cli"],
                 env=python_path_env(), check=True, timeout=120)
    return t.seconds


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tail_percentile(samples: list) -> dict | None:
    """The highest whole percentile of per-item seconds with at least ten
    samples beyond it, or None when the run has too few samples."""
    n = len(samples)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if q < 1:
        return None
    per_item = sorted(1.0 / s for s in samples)
    return {"percentile": q, "seconds_per_item": per_item[math.ceil(q / 100 * n) - 1]}


def run_one(ctx, wl, k: int) -> dict:
    argv, out, items = wl.command(ctx, k)
    try:
        code, t = run_cli(argv)
    except Exception as exc:  # a crash is a failed command, not a benchmark error
        print(f"command {k} raised {exc!r}", file=sys.stderr)
        code, t = -1, Timing(math.nan, math.nan, math.nan)
    return {"k": k, "out": out, "items": items, "code": code,
            "seconds": t.seconds if wl.scaled else t.unstolen,
            "unstolen_s": t.unstolen, "wall_s": t.wall, "speed": t.speed}


def run_many(ctx, wl, first_k: int, seconds: float = 0.0, count: int = 0) -> list:
    """Commands back to back: ``count`` of them, or as many as start
    within ``seconds``."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or (len(records) < count if count else time.perf_counter() < deadline):
        records.append(run_one(ctx, wl, first_k + len(records)))
    return records


def check_records(ctx, wl, records) -> tuple[int, list, dict]:
    failed, errors, quality = 0, [], {}
    for rec in records:
        errs = [f"command {rec['k']} exited {rec['code']}"] if rec["code"] != 0 else []
        if not errs:
            rec["bytes"] = dir_bytes(rec["out"])
            try:
                found, q = wl.check(ctx, rec["out"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found, q = [f"{rec['out'].name}: unreadable output: {exc!r}"], {}
            errs += found
            for key, value in q.items():
                quality.setdefault(key, []).append(value)
        failed += bool(errs)
        errors += errs
        shutil.rmtree(rec["out"], ignore_errors=True)
    return failed, errors, quality


def rates(records) -> list:
    """Items per second at the reference host speed of each command that succeeded."""
    return [r["items"] / r["seconds"] for r in records if r["code"] == 0]


def throughput(records, clock: str = "seconds") -> float:
    """Items per second over all the commands that succeeded, on the
    ``seconds`` (reference speed), ``unstolen_s`` or ``wall_s`` clock.
    Over ten seeds the run throughput spread less than the median of the
    per-command rates (17% against 22% IQR on dataset, wall clock)."""
    ok = [r for r in records if r["code"] == 0]
    return sum(r["items"] for r in ok) / sum(r[clock] for r in ok) if ok else float("nan")


def layer_metrics(ctx, wl, tracer, traced, direct, seq_path, blas) -> dict:
    table = tracer.layer_table("cli.main")
    m = {}
    for i, layer in enumerate(LAYERS):
        m[f"{layer}.calls"] = ("count", int(table["calls"][i]))
        m[f"{layer}.self_s"] = ("s", float(table["self_s"][i]))
        m[f"{layer}.share"] = ("ratio", float(table["self_s"][i] / table["total_s"]))
        m[f"{layer}.cmd_share"] = ("ratio",
                                   float(table["root_self_s"][i] / table["root_total_s"]))

    def mean(name, scale):
        return float(scale * tracer.durations(name).mean())

    seq_files = [p for r in traced for p in r["out"].glob("*/seq_*.json")]
    seq_files.append(seq_path)
    bound_calls = tracer.durations("covert.transmit_power_bound").size
    m.update({
        "swarm.step_us": ("us", mean("swarm.step", 1e6)),
        "swarm.steps": ("count", int(tracer.durations("swarm.step").size)),
        "graphs.build_us_per_frame": ("us", mean("graphs.build_snapshot", 1e6)),
        "graphs.save_ms_per_seq": ("ms", mean("graphs.save_sequence_json", 1e3)),
        "graphs.bytes_per_seq": ("B", float(np.mean([p.stat().st_size for p in seq_files]))),
        "graphs.load_ms_per_seq": ("ms", mean("graphs.load_sequence_json", 1e3)),
        "gkae.rollout_ms": ("ms", mean("gkae.rollout_predict", 1e3)),
        "gkae.checkpoint_load_ms": ("ms", mean("gkae.load_checkpoint", 1e3)),
        "covert.bound_us": ("us", mean("covert.transmit_power_bound", 1e6)),
        "covert.pairs": ("count", int(bound_calls * wl.nodes(ctx)
                                      * ctx.ref["eval"]["swarm"]["L"])),
        "covert.detection_ms": ("ms", mean("covert.detection_events", 1e3)),
    })
    m.update(direct)
    for tag, (p1, p2) in blas.items():
        m[f"gkae.phase1_epoch_s.{tag}"] = ("s", p1)
        m[f"gkae.phase2_epoch_s.{tag}"] = ("s", p2)
    return m


def blas_children(ctx, seq_path) -> dict:
    """Phase epochs in child processes, one at a time, with 1 and nproc BLAS threads."""
    out = {}
    for tag, threads in (("blas1", 1), ("blasN", nproc())):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probes.py"), str(seq_path),
             str(ctx.size.train_sequences), str(ctx.size.tau), str(ctx.size.probe_epochs)],
            env=dict(python_path_env(), OPENBLAS_NUM_THREADS=str(threads)),
            capture_output=True, text=True, timeout=150, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        out[tag] = (doc["phase1"], doc["phase2"])
    return out


def traced_pass(ctx, wl, first_k: int) -> tuple[list, dict]:
    """A fixed number of commands and one probe pass, every layer call in a span."""
    tracer = Tracer()
    tracer.install(wrap_targets(covertswarm.cli, swarm, graphs, nn, gkae, covert))
    try:
        traced = run_many(ctx, wl, first_k, count=ctx.size.trace_commands[wl.name])
        direct, seq_path = probes.layer_probes(ctx.ref, ctx.size, ctx.work, CHECKPOINT,
                                               wl.nodes(ctx), ctx.seed)
    finally:
        tracer.restore()
    blas = blas_children(ctx, seq_path)
    return traced, layer_metrics(ctx, wl, tracer, traced, direct, seq_path, blas)


def benchmark(workload: str, seed: int, seconds: float, trace: bool, size_name: str,
              work: Path, blas_given) -> dict:
    """One run: set-up, the timed commands, the traced pass if asked, checks."""
    wl = WORKLOADS[workload]
    ctx = Ctx(load_reference(), SIZES[size_name], work, seed)
    _, t = timed(wl.prepare, ctx)
    prepare_s = t.seconds
    setup_s = prepare_s + statistics.median(
        import_seconds() for _ in range(ctx.size.setup_repeats))

    records = run_many(ctx, wl, 0, seconds=seconds)
    traced, per_layer = [], None
    if trace:
        traced, per_layer = traced_pass(ctx, wl, len(records))
        per_layer["trace.overhead_items_per_s"] = ("items/s",
                                                   throughput(traced) - throughput(records))

    failed, errors, quality = check_records(ctx, wl, records + traced)
    run_errors = wl.check_run(ctx)
    failed += len(run_errors)
    errors += run_errors
    attempted = len(records) + len(traced) + wl.run_checks

    samples = rates(records)
    written = [r["bytes"] for r in records if "bytes" in r]
    return {
        "workload": wl.name, "seed": ctx.seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_facts(blas_given), "items_unit": wl.unit,
        "end_to_end": {
            "setup_s": ("s", setup_s),
            "items_per_s": ("items/s", throughput(records)),
            "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
            "output_mb": ("MB", statistics.median(written) / 1e6 if written else float("nan")),
            "ok_ratio": ("ratio", 1.0 - failed / attempted),
        },
        "per_layer": per_layer,
        "median_items_per_s": statistics.median(samples) if samples else float("nan"),
        "unscaled_items_per_s": throughput(records, "unstolen_s"),
        "wall_items_per_s": throughput(records, "wall_s"),
        "host_speed": statistics.median(r["speed"] for r in records),
        "tail": tail_percentile(samples),
        "samples_items_per_s": samples, "prepare_s": prepare_s,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "errors": errors[:20],
        "quality": {k: statistics.median(v) for k, v in quality.items()},
    }


def report(result: dict) -> list:
    """Human-readable lines: every metric by name and unit."""
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"seconds {result['seconds']}  trace {result['trace']}",
             "machine " + json.dumps(result["machine"])]
    for name, (unit, value) in result["end_to_end"].items():
        note = ""
        if name == "items_per_s":
            unit = result["items_unit"]
            note = (f"  (over {len(result['samples_items_per_s'])} commands; median "
                    f"{result['median_items_per_s']:.6g}; unscaled "
                    f"{result['unscaled_items_per_s']:.6g} at host speed "
                    f"{result['host_speed']:.3g}; wall clock {result['wall_items_per_s']:.6g}")
            if result["tail"]:
                note += (f"; p{result['tail']['percentile']} "
                         f"{result['tail']['seconds_per_item']:.6g} s/item")
            note += ")"
        lines.append(f"{name:<34} {value:.6g} {unit}{note}")
    lines.append(f"{'fail_ratio':<34} {result['fail_ratio']:.6g} "
                 f"({result['failed']} of {result['attempted']})")
    units = {"eps_mean": "m^2", "final_loss": "1", "L_grec": "1", "L_rec": "1", "L_pred": "1"}
    for name, value in result["quality"].items():
        lines.append(f"{name:<34} {value:.6g} {units.get(name, '')}")
    for name, (unit, value) in (result["per_layer"] or {}).items():
        lines.append(f"{name:<34} {value:.6g} {unit}")
    lines += [f"error: {e}" for e in result["errors"]]
    return lines
