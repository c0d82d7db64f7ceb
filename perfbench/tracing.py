"""Outside-in tracing of holomimo's layers.

``install`` rebinds the public functions that ``holomimo.cli``, ``channel``,
``coupling`` and ``fourier`` call (every module-level name bound to a target,
in every holomimo module) to wrappers that record a span -- name, start, end,
parent -- and, for a few targets, a computed work count.  The program's own
source is untouched.  Spans stay in memory until ``Tracer.dump``.

A target that no longer exists is recorded as absent; its metrics are then
left out of the report instead of reading as zero.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  The span name is the layer prefix of
# the per-layer metrics; several targets may share one name (``cli.write``).
TARGETS = [
    ("holomimo.cli", "run_experiment", "cli.run_experiment"),
    ("holomimo.cli", "_write_csv", "cli.write"),
    ("holomimo.cli", "_write_eig_csv", "cli.write"),
    ("holomimo.cli", "_write_capacity_csv", "cli.write"),
    ("holomimo.fourier", "write_variances_csv", "cli.write"),
    ("holomimo.spectra", "quadrature_for", "spectra.quadrature_for"),
    ("holomimo._kernels", "phase_kernel", "kernels.phase_kernel"),
    ("holomimo.fourier", "build_lattice", "fourier.build_lattice"),
    ("holomimo.fourier", "build_fourier_basis", "fourier.build_fourier_basis"),
    ("holomimo.fourier", "fourier_matrix", "fourier.fourier_matrix"),
    ("holomimo.fourier", "variances_uncoupled", "fourier.variances_uncoupled"),
    ("holomimo.fourier", "variances_coupled", "fourier.variances_coupled"),
    ("holomimo.coupling", "coupling_closed_form", "coupling.coupling_closed_form"),
    ("holomimo.coupling", "coupling_general", "coupling.coupling_general"),
    ("holomimo.coupling", "regularize", "coupling.regularize"),
    ("holomimo.coupling", "spd_inv_sqrt", "coupling.spd_inv_sqrt"),
    ("holomimo.coupling", "spd_sqrt", "coupling.spd_sqrt"),
    ("holomimo.channel", "exact_correlation", "channel.exact_correlation"),
    ("holomimo.channel", "coupled_correlation_exact", "channel.coupled_correlation_exact"),
    ("holomimo.channel", "exact_model", "channel.exact_model"),
    ("holomimo.channel", "iid_model", "channel.iid_model"),
    ("holomimo.channel", "CorrelationMatrix.eigenvalues", "channel.CorrelationMatrix.eigenvalues"),
    ("holomimo.channel", "ChannelModel.realize", "channel.ChannelModel.realize"),
    ("holomimo.capacity", "ergodic_capacity", "capacity.ergodic_capacity"),
]

# Evaluated ~10^5 times per run, so these only count calls and points (no span).
COUNTED = [
    ("holomimo.fourier", "_direction_values", "fourier.evaluator"),
]

MODULES = ["holomimo", "holomimo.cli", "holomimo._kernels", "holomimo.geometry",
           "holomimo.spectra", "holomimo.coupling", "holomimo.fourier",
           "holomimo.channel", "holomimo.capacity"]

clock = time.monotonic


class Tracer:
    """In-memory span and count recorder for one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.eigensolves: Counter = Counter()  # "<span> n=1681 complex" -> calls
        self.svd_shapes: Counter = Counter()
        self.absent: list[str] = []

    def span(self, name: str, fn, hook=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(obj, kx, ky, *args, **kwargs):
            counts[name + "_calls"] += 1
            counts[name + "_points"] += getattr(kx, "size", 1)
            return fn(obj, kx, ky, *args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "eigensolves": dict(self.eigensolves), "svd_shapes": dict(self.svd_shapes),
                "absent": self.absent}


# ---------------------------------------------------------------------------
# computed work counts (labelled "computed": derived from shapes, not timed)


def _unique_diff_count(coord) -> int:
    import numpy as np
    u = np.unique(coord)
    return np.unique(np.round(u[:, None] - u[None, :], 9)).size


def _phase_kernel_hook(tracer, args, result):
    # table[ux, uy] += (exp(i kx ux) w)^T exp(i ky uy): one complex
    # multiply-add (8 flops) per quadrature node per unique-difference cell.
    positions, kx = args[0], args[1]
    cells = _unique_diff_count(positions[:, 0]) * _unique_diff_count(positions[:, 1])
    tracer.counts["kernels.phase_kernel_gflop"] += 8.0 * kx.size * cells / 1e9


def _eig_hook(name, matrix_of):
    def hook(tracer, args, result):
        import numpy as np
        m = matrix_of(args)
        kind = "complex" if np.iscomplexobj(m) else "real"
        tracer.eigensolves[f"{name} n={m.shape[0]} {kind}"] += 1
    return hook


def _coupling_matrix(args):
    return getattr(args[0], "matrix", args[0])


def _realize_hook(tracer, args, result):
    tracer.svd_shapes["x".join(str(d) for d in result.shape)] += 1


HOOKS = {
    "kernels.phase_kernel": _phase_kernel_hook,
    "channel.CorrelationMatrix.eigenvalues": _eig_hook("channel.CorrelationMatrix.eigenvalues",
                                                       lambda args: args[0].matrix),
    "coupling.spd_inv_sqrt": _eig_hook("coupling.spd_inv_sqrt", _coupling_matrix),
    "coupling.spd_sqrt": _eig_hook("coupling.spd_sqrt", _coupling_matrix),
    "channel.ChannelModel.realize": _realize_hook,
}


def _lookup(module: str, path: str):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, parts[-1], None)


def install() -> Tracer:
    """Wrap every target in place and return the tracer that records them."""
    tracer = Tracer()
    modules = [importlib.import_module(m) for m in MODULES]
    wrapped = {}
    for module, path, name in TARGETS + COUNTED:
        owner, original = _lookup(module, path)
        if original is None:
            tracer.absent.append(f"{module}.{path}")
            continue
        if (module, path, name) in COUNTED:
            wrapper = tracer.counter(name, original)
        else:
            wrapper = tracer.span(name, original, HOOKS.get(name))
        setattr(owner, path.split(".")[-1], wrapper)
        wrapped[id(original)] = wrapper
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if id(value) in wrapped and callable(value):
                setattr(mod, key, wrapped[id(value)])
    return tracer


# ---------------------------------------------------------------------------
# analysis (runs in the parent on the dumped spans)


def span_table(spans: list) -> dict:
    """Per span name: calls, inclusive seconds (outermost only) and self seconds.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return dict(table)


def draw_times(spans: list) -> list[float]:
    """Seconds per Monte-Carlo draw: from one realize call to the next inside
    the same ``ergodic_capacity`` span (the last draw ends with the span)."""
    by_parent = defaultdict(list)
    for name, start, end, parent in spans:
        if name == "channel.ChannelModel.realize" and parent >= 0 \
                and spans[parent][0] == "capacity.ergodic_capacity":
            by_parent[parent].append(start)
    out = []
    for parent, starts in by_parent.items():
        edges = starts + [spans[parent][2]]
        out += [b - a for a, b in zip(edges[:-1], edges[1:])]
    return out
