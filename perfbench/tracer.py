"""Span tracing of nsrecon from outside the package.

`Tracer.installed()` replaces public functions under the names their
callers look them up by (a module attribute or a class method), records
one span per call and puts the originals back on exit.  Spans stay in
memory as flat columns until `summary` and `save` at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from stats import median, summarize


def _conv_flops(out_ch, in_ch, h, w):
    return 2.0 * out_ch * in_ch * 9 * h * w


def _net_conv_flops(params, shape):
    return sum(_conv_flops(k.shape[0], k.shape[1], *shape)
               for k in params.kernels)


# Work of one call, from its arguments and result: computed FLOPs of
# nsrecon.nn convolutions, samples made by data.make_dataset.

def _conv_work(args, out):
    return _conv_flops(args[1].shape[0], args[1].shape[1], *out.shape[1:])


def _forward_work(args, out):
    return _net_conv_flops(args[0], out[0].shape)


def _backward_work(args, out):  # input and parameter gradient per layer
    return 2.0 * _net_conv_flops(args[0], out[1].shape)


def _dataset_work(args, out):
    return float(len(out))


class Tracer:
    """Spans as columns: name id, parent index, start, end, child time and
    a per-span work count (conv FLOPs, CG iterations or samples)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.child = array("d")
        self.work = array("d")
        self.stack: list[int] = []
        self.unconverged = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.child.append(0.0)
        self.work.append(0.0)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _close(self, idx: int, work: float = 0.0) -> None:
        t1 = perf_counter()
        self.t1[idx] = t1
        self.work[idx] = work
        self.stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t1 - self.t0[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, work=None, outermost=False):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and self.stack and self.name[self.stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, work(args, out) if work else 0.0)
            return out
        return traced

    def _cg_iters(self, args, out):
        if not out.converged:
            self.unconverged += 1
        return float(out.iters)

    def _targets(self):
        """(owner, attribute, span name, work, outermost) per wrapped call."""
        from nsrecon import experiments, linops, nn, nullspace, regularize

        return [
            (experiments, "tikhonov_reconstruct", "regularize.tikhonov",
             None, True),
            (regularize, "tikhonov_reconstruct", "regularize.tikhonov",
             None, True),
            (experiments, "spectral_reconstruct", "regularize.spectral",
             None, False),
            (regularize, "cg_regularized_normal", "linops.cg.tikhonov",
             self._cg_iters, False),
            (nullspace, "cg_regularized_normal", "linops.cg.projector",
             self._cg_iters, False),
            (experiments, "project_null", "nullspace.project", None, True),
            (nullspace, "project_null", "nullspace.project", None, True),
            (experiments.Problem, "project_correction",
             "experiments.project_correction", None, False),
            (linops.MatvecOp, "apply", "operators.matvec", None, True),
            (linops.MatvecOp, "adjoint", "operators.matvec", None, True),
            (nn, "forward", "nn.forward", _forward_work, False),
            (nn, "backward", "nn.backward", _backward_work, False),
            (nn, "adam_step", "nn.adam_step", None, False),
            (nn, "conv2d_circular", "nn.conv2d", _conv_work, False),
            (nn, "correction", "nn.correction", None, False),
            (nn, "lipschitz_bound", "nn.lipschitz", None, False),
            (experiments, "ssim", "metrics.ssim", None, False),
            (experiments, "psnr", "metrics.psnr", None, False),
            (experiments, "make_dataset", "data.make_dataset",
             _dataset_work, False),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Trace calls made inside the block; restore the originals after."""
        saved = []
        for owner, attr, name, work, outermost in self._targets():
            fn = owner.__dict__.get(attr)
            if fn is None:
                print(f"perfbench: no {owner.__name__}.{attr} to trace",
                      file=sys.stderr)
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, work, outermost))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- aggregation ------------------------------------------------------

    def columns(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.t1, dtype=np.float64)
               - np.frombuffer(self.t0, dtype=np.float64))
        child = np.frombuffer(self.child, dtype=np.float64)
        work = np.frombuffer(self.work, dtype=np.float64)
        return name, parent, dur, child, work

    def summary(self, traced_s: float, rounds: int, stage_ops: dict):
        """Per-span-name statistics over `rounds` traced rounds lasting
        `traced_s` seconds; `stage_ops` maps a stage span name to the
        operations one call of it performs."""
        name, parent, dur, child, work = self.columns()
        root = np.where(parent >= 0, parent, np.arange(len(name)))
        while True:  # pointer jumping up to the outermost span
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        layers = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            d = dur[sel]
            if d.size == 0:
                continue
            layers[label] = {
                "calls": int(d.size),
                "calls_per_round": d.size / rounds,
                "ms": summarize(d * 1e3),
                "total_s": float(d.sum()),
                "share_pct": 100.0 * float(d.sum()) / traced_s,
                "self_share_pct": 100.0 * float((d - child[sel]).sum())
                / traced_s,
                "work_mean": float(work[sel].mean()),
                "work_min": float(work[sel].min()),
                "work_max": float(work[sel].max()),
                "work_total": float(work[sel].sum()),
            }
        return {"layers": layers,
                "per_op": self._per_op(name, parent, root, stage_ops),
                "unconverged": self.unconverged}

    def _per_op(self, name, parent, root, stage_ops):
        """Calls of each span name per operation of the stage it ran in."""
        out = {}
        for stage, ops in stage_ops.items():
            sid = self._ids.get(stage)
            stage_spans = np.flatnonzero(name == sid)
            if stage_spans.size == 0:
                continue
            in_stage = np.isin(root, stage_spans)
            total_ops = ops * stage_spans.size
            out[stage] = {
                self.names[nid]: int(np.sum(in_stage & (name == nid)))
                / total_ops
                for nid in np.unique(name[in_stage]) if nid != sid}
        lip = self._ids.get("nn.lipschitz")
        conv = self._ids.get("nn.conv2d")
        bounds = np.flatnonzero(name == lip)
        if bounds.size:
            iters = np.sum((name == conv) & np.isin(parent, bounds))
            out["nn.lipschitz"] = {"power_iters": float(iters) / bounds.size}
        return out

    def median_ms(self, names) -> float:
        """Median duration in ms over the spans of any of `names`."""
        name, _, dur, _, _ = self.columns()
        ids = [self._ids[n] for n in names if n in self._ids]
        d = dur[np.isin(name, ids)]
        return median(d * 1e3) if d.size else 0.0

    def save(self, path) -> None:
        name, parent, dur, child, work = self.columns()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 t0=np.frombuffer(self.t0, dtype=np.float64), duration=dur,
                 child=child, work=work)


def overhead_pct(untraced, traced) -> float:
    """Median traced round time over median untraced, as a percentage."""
    return 100.0 * (median(traced) / median(untraced) - 1.0)
