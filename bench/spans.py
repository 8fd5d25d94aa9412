"""In-memory span recorder that wraps the package's public functions.

The package calls its stages through module attributes (``ad.conv1d``,
``wv.decompose``, ``md.forward``, ...), so replacing those attributes
from outside puts a span around every call without editing the package.
A span is ``[name, start, end, parent, step]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``step`` is the step id the
benchmark had set when the span opened.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

from sdgf import autodiff, data, fusion, graphs, model, temporal, training, wavelet

# (owner, attribute, span name). Nested calls (load_checkpoint ->
# build_model, evaluate -> predict_split -> forward) nest their spans.
TARGETS = (
    (data, "load_csv", "data.load_csv"),
    (data, "make_windows", "data.make_windows"),
    (data.WindowDataset, "batch", "data.batch"),
    (graphs, "pearson_adjacency", "graphs.pearson"),
    (model, "build_model", "model.build"),
    (model, "forward", "model.forward"),
    (model, "save_checkpoint", "model.checkpoint_save"),
    (model, "load_checkpoint", "model.checkpoint_load"),
    (wavelet, "decompose", "wavelet.decompose"),
    (graphs, "static_graph_conv", "graphs.static_conv"),
    (graphs, "dynamic_adjacency", "graphs.dynamic_adjacency"),
    (graphs, "dynamic_graph_conv", "graphs.dynamic_conv"),
    (fusion, "fuse", "fusion.fuse"),
    (temporal, "inception_forward", "temporal.inception"),
    (autodiff, "conv1d", "autodiff.conv1d"),
    (autodiff, "backward", "autodiff.backward"),
    (training, "mse_loss", "training.loss"),
    (training, "clip_gradients", "training.clip"),
    (training, "adam_step", "training.adam"),
    (training, "evaluate", "training.eval"),
    (training, "predict_split", "training.predict_split"),
)


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.step = None

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, self.step])
        self._open.append(index)
        return index

    def _end(self, index: int, start: float) -> None:
        end = perf_counter()
        self._open.pop()
        self.spans[index][1:3] = start, end

    @contextlib.contextmanager
    def span(self, name: str, step=None):
        """A span the benchmark opens itself, e.g. around one training step."""
        previous = self.step
        if step is not None:
            self.step = step
        index = self._begin(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._end(index, start)
            self.step = previous

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index, start)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; always restore them."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def per_root(self, root_name: str) -> tuple[list[float], dict, dict, dict]:
        """Break every top-level ``root_name`` span down by descendant name.

        Returns the roots' durations and, per descendant name, one list
        entry per root: summed inclusive seconds, summed self seconds and
        call count.
        """
        roots = [i for i, s in enumerate(self.spans) if s[0] == root_name and s[3] == -1]
        slot = {r: k for k, r in enumerate(roots)}
        owner = [-1] * len(self.spans)
        selfs = self.self_times()
        inclusive: dict[str, list[float]] = {}
        exclusive: dict[str, list[float]] = {}
        calls: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            if i in slot:
                owner[i] = slot[i]
                continue
            k = owner[i] = owner[s[3]] if s[3] >= 0 else -1
            if k < 0:
                continue
            zeros = [0.0] * len(roots)
            inclusive.setdefault(s[0], list(zeros))[k] += s[2] - s[1]
            exclusive.setdefault(s[0], list(zeros))[k] += selfs[i]
            calls.setdefault(s[0], [0] * len(roots))[k] += 1
        durations = [self.spans[r][2] - self.spans[r][1] for r in roots]
        return durations, inclusive, exclusive, calls

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
