"""Outside-in span tracing of the screwchain package.

The tracer replaces public functions with timing wrappers at every module
attribute that holds them, because callers resolve the function through
their own module (``integrators`` calls ``dyn.fdyn``, ``kinematics`` calls
its imported ``exp_se3``).  Each call records one span: a label, start and
end times, and the index of the span that was open when it started.  Spans
stay in memory until the run ends; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

# se3 kernels that other layers call.  Helpers such as ``hat3`` and
# ``screw`` are called inside these kernels thousands of times; wrapping
# them would mostly measure the wrapper.
SE3_KERNELS = ("exp_se3", "adjoint", "lie_bracket", "ad_matrix", "adjoint_rot",
               "adjoint_trans", "dexp_inv")
POSE_METHODS = ("compose", "inverse")

# Functions whose span label carries an argument: (position, name, default).
LABEL_ARGS = {
    "dynamics.idyn": (4, "rep", "body"),
    "dynamics.christoffel": (2, "variant", "standard"),
    "kinematics.jerks": (2, "rep", "body"),
    "integrators.chain_simulate": (6, "form", "state"),
}


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.labels: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _open(self, label):
        idx = len(self.labels)
        self.labels.append(label)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label):
        """Span around a block of the benchmark's own code."""
        idx = self._open(label)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, label):
        arg = LABEL_ARGS.get(label)
        tracer = self

        if arg is None:
            def wrapper(*args, **kwargs):
                idx = tracer._open(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
        else:
            pos, name, default = arg

            def wrapper(*args, **kwargs):
                value = args[pos] if len(args) > pos else kwargs.get(name, default)
                idx = tracer._open(f"{label}.{value}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- patching
    def install(self, package):
        """Wrap the traced functions of ``package`` (the imported screwchain)."""
        from importlib import import_module

        modules = [package] + [import_module(f"{package.__name__}.{m}")
                               for m in ("se3", "model", "kinematics", "dynamics",
                                         "integrators", "cli")]
        se3 = modules[1]
        targets = {}  # id(original) -> (original, label)
        for name in SE3_KERNELS:
            fn = getattr(se3, name)
            targets[id(fn)] = (fn, f"se3.{name}")
        targets[id(modules[2].load_model)] = (modules[2].load_model, "model.load_model")
        for mod in modules[3:6]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (fn, f"{layer}.{name}")
        cli = modules[6]
        targets[id(cli.main)] = (cli.main, "cli.main")

        wrappers = {key: self._wrap(fn, label) for key, (fn, label) in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        pose = se3.Pose
        for name in POSE_METHODS:
            fn = pose.__dict__[name]
            self._patches.append((pose, name, fn))
            setattr(pose, name, self._wrap(fn, f"se3.pose_{name}"))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------- analysis
    def analyse(self) -> "SpanTable":
        return SpanTable(self.labels, self.parents, self.starts, self.ends)


class SpanTable:
    """Recorded spans with derived durations, self times and root spans."""

    def __init__(self, labels, parents, starts, ends):
        self.labels = labels
        self.parents = parents
        self.duration = [e - s for s, e in zip(starts, ends)]
        self.self_time = list(self.duration)
        for i, p in enumerate(parents):
            if p >= 0:
                self.self_time[p] -= self.duration[i]
        self.root = [0] * len(labels)
        for i, p in enumerate(parents):
            self.root[i] = i if p < 0 else self.root[p]

    def layer(self, i) -> str:
        return self.labels[i].split(".", 1)[0]

    def select(self, label, parent_label=None):
        """Indices of the spans with ``label`` (and, if given, a parent
        labelled ``parent_label``)."""
        return [i for i, lab in enumerate(self.labels) if lab == label
                and (parent_label is None
                     or (self.parents[i] >= 0
                         and self.labels[self.parents[i]] == parent_label))]
