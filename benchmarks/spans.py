"""In-memory spans around calls into the covertswarm layers.

The benchmark measures each layer from outside: ``Tracer.install`` swaps
module attributes for timing wrappers and ``Tracer.restore`` puts the
originals back, so nothing in the package changes.  A span records its
name, start, end and parent; spans stay in memory until ``layer_table``
folds them into per-layer calls and self time at the end of the run.

Must be imported after the BLAS thread limit is set, because it imports
numpy.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

LAYERS = ("swarm", "graphs", "nn", "gkae", "covert", "cli")

# nn functions that gkae binds at import time; each is wrapped both in nn
# and in gkae, under one span name.
NN_FUNCTIONS = ("dense_forward", "dense_backward", "sage_forward", "sage_backward",
                "adam_step", "mse", "mse_grad")


def wrap_targets(cli, swarm, graphs, nn, gkae, covert):
    """(owner, attribute, span name) for the command and every public
    function of another layer that it reaches."""
    targets = [
        (cli, "main", "cli.main"),
        (swarm, "simulate", "swarm.simulate"),
        (swarm, "step", "swarm.step"),
        (graphs, "sequence_from_positions", "graphs.sequence_from_positions"),
        (graphs, "build_snapshot", "graphs.build_snapshot"),
        (graphs, "normalize", "graphs.normalize"),
        (graphs, "normalize_snapshot", "graphs.normalize_snapshot"),
        (graphs, "save_sequence_json", "graphs.save_sequence_json"),
        (graphs, "load_sequence_json", "graphs.load_sequence_json"),
        (gkae, "build_model", "gkae.build_model"),
        (gkae, "train", "gkae.train"),
        (gkae, "rollout_predict", "gkae.rollout_predict"),
        (gkae, "save_checkpoint", "gkae.save_checkpoint"),
        (gkae, "save_loss_csv", "gkae.save_loss_csv"),
        (gkae, "load_checkpoint", "gkae.load_checkpoint"),
        (covert.GroundNetwork, "uniform_random", "covert.uniform_random"),
        (covert, "detection_events", "covert.detection_events"),
        (covert, "transmit_power_bound", "covert.transmit_power_bound"),
        (covert, "prediction_error", "covert.prediction_error"),
    ]
    for fn in NN_FUNCTIONS:
        targets += [(nn, fn, f"nn.{fn}"), (gkae, fn, f"nn.{fn}")]
    return targets


class Tracer:
    """Span recorder.  Not thread-safe; the benchmark is single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._installed: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        for owner, attr, name in targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            else:
                new = self.wrap(raw, name)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # --- aggregation ---------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        return names, parent, (end - start) / 1e9

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span called ``name``."""
        if name not in self._ids:
            return np.empty(0)
        names, _, dur = self._arrays()
        return dur[names == self._ids[name]]

    def layer_table(self, root_name: str) -> dict:
        """Calls and self time per layer, over all spans and over the
        subtrees rooted at spans called ``root_name``.

        A span's self time is its duration minus that of its direct
        children; a layer's self time sums the self time of its spans.
        """
        names, parent, dur = self._arrays()
        n = dur.size
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - children
        root = np.where(has_parent, parent, np.arange(n))
        while True:  # pointer jumping: every span learns its root span
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        layer_of_name = np.array([LAYERS.index(s.split(".")[0]) for s in self.names],
                                 dtype=np.int64)
        layer = layer_of_name[names] if n else np.empty(0, dtype=np.int64)
        in_root = np.zeros(n, dtype=bool)
        if root_name in self._ids:
            in_root = names[root] == self._ids[root_name]
        top = ~has_parent
        k = len(LAYERS)
        return {
            "calls": np.bincount(layer, minlength=k),
            "self_s": np.bincount(layer, weights=self_time, minlength=k),
            "root_self_s": np.bincount(layer[in_root], weights=self_time[in_root], minlength=k),
            "total_s": float(dur[top].sum()),
            "root_total_s": float(dur[top & in_root].sum()),
        }
