"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of every rwkit module, and
the numpy FFT entry points, with a wrapper that records a span (name, parent,
start, end).  It finds each function by identity, so the names other modules
import it under (``reconstruct`` imports ``analyze``, ``cli`` imports
``predict``, ...) are wrapped too.  ``uninstall`` puts every original back.
Spans stay in memory; ``layer_metrics`` turns them into per-layer counts and
self times and ``save`` writes them out.

A wrapper costs its caller time outside the callee's span: the call into the
wrapper, the bookkeeping before the span's clock starts and after it stops,
and the counter hook.  ``span_costs`` measures that cost for each wrapped name
on a no-op, and the self and inclusive times subtract it once per child span.
"""

import contextlib
import inspect
import json
import math
import sys
import time
from array import array

import numpy as np

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
# Calls of a wrapped no-op per batch, and batches, when measuring span cost.
COST_CALLS = 200
COST_BATCHES = 5

# Per-layer metrics, each normalized by the number of workload items traced.
# ``calls`` and ``self_ms`` come from the spans of one function.
CALLS_AND_SELF = (
    "frames.analyze",
    "frames.synthesize",
    "frames.soft_threshold",
    "frames.as_signal",
    "sensing.make_partial_fourier",
    "sensing.apply",
    "sensing.adjoint",
    "reconstruct.purify",
    "defect.sparsity_defect",
    "certify.certify_probabilistic",
)
SELF_ONLY = (
    "classifier.empirical_robust_radius",
    "io.read_signal",
    "io.write_signal",
    "cli.main",
    "config.load_config",
    "data.gen_data",
)
CALLS_ONLY = ("classifier.predict",)


# Numeric kernels are not a layer of their own: their time belongs to the
# frames or defect function that calls them.
UNTRACED_MODULES = ("rwkit.kernels",)


def _program_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None
        and (name == "rwkit" or name.startswith("rwkit."))
        and name not in UNTRACED_MODULES
    ]


class Tracer:
    """Wraps the program's functions and records spans while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = []
        self._patched = []
        self._span_costs = None

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._span_costs = None
        return nid

    def _open(self, nid):
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, around one workload call."""
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, name):
        nid = self._intern(name)
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            result, failed = None, True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._close(sid)
                if hook is not None:
                    hook(tracer, args, kwargs, result, failed)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every public rwkit function and the numpy FFT entry points."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _program_modules()
        wrappers = {}
        for m in modules:
            short = m.__name__.rsplit(".", 1)[-1]
            public = getattr(m, "__all__", None) or [
                n for n in vars(m) if not n.startswith("_")
            ]
            for attr in public:
                fn = getattr(m, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == m.__name__:
                    wrappers.setdefault(id(fn), self._wrap(fn, f"{short}.{fn.__name__}"))
        for attr in FFT_FUNCTIONS:
            fn = getattr(np.fft, attr, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(fn, f"fft.{attr}")
        for m in modules + [np.fft]:
            for attr, value in list(vars(m).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(m, attr, wrapper)
                    self._patched.append((m, attr, value))

    def uninstall(self):
        """Restore every original function; raises if one is missing."""
        for m, attr, value in reversed(self._patched):
            setattr(m, attr, value)
        patched, self._patched = self._patched, []
        leaked = [f"{m.__name__}.{a}" for m, a, v in patched if getattr(m, a) is not v]
        if leaked or self._stack:
            raise RuntimeError(f"trace wrappers left behind: {leaked or self._stack}")

    @property
    def installed(self):
        return bool(self._patched)

    # -- results -----------------------------------------------------------

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return name_id, parent, dur

    def span_costs(self):
        """Seconds a wrapped call costs its caller outside its span, by name."""
        if self._span_costs is None:
            sample = np.zeros((8, 8), dtype=np.complex128)
            costs = {}
            for name in self.names:
                if name == "bench.call":  # the benchmark's own root span
                    costs[name] = 0.0
                    continue
                # The real name, so that its counter hook runs too.
                probe = Tracer()
                wrapped = probe._wrap(lambda *a, **k: sample, name)
                batches = []
                for _ in range(COST_BATCHES):
                    first = len(probe.start)
                    t0 = time.perf_counter()
                    for _ in range(COST_CALLS):
                        wrapped(sample)
                    total = time.perf_counter() - t0
                    _, _, dur = probe._arrays()
                    batches.append((total - dur[first:].sum()) / COST_CALLS)
                costs[name] = max(min(batches), 0.0)
            self._span_costs = costs
        return self._span_costs

    def _corrected(self, name_id, parent, dur):
        # Inclusive time: a span's duration less the wrapper cost of every
        # span beneath it.  Self time: its duration less that cost and less
        # the time of spans of other layers beneath it.  Same-layer callees
        # (coefficient_defect under sparsity_defect, as_signal under analyze)
        # count toward it.
        layer = [n.split(".", 1)[0] for n in self.names]
        span_layer = [layer[i] for i in name_id.tolist()]
        costs = self.span_costs()
        span_cost = [costs[self.names[i]] for i in name_id.tolist()]
        parents, durs = parent.tolist(), dur.tolist()
        below = [0.0] * len(durs)
        excluded = [0.0] * len(durs)
        for s in range(len(durs) - 1, -1, -1):  # children come after parents
            p = parents[s]
            if p >= 0:
                same = span_layer[s] == span_layer[p]
                below[p] += below[s] + span_cost[s]
                excluded[p] += (excluded[s] if same else durs[s]) + span_cost[s]
        return dur - np.array(below), dur - np.array(excluded)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name_id, parent, dur = self._arrays()
        incl_s, own = self._corrected(name_id, parent, dur)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=incl_s, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }, own

    def _fft_self_under(self, own, ancestor_name):
        # Self time of FFT spans that have an ``ancestor_name`` span above them.
        name_id, parent, _ = self._arrays()
        if ancestor_name not in self._name_ids:
            return 0.0
        target = self._name_ids[ancestor_name]
        fft_ids = [i for n, i in self._name_ids.items() if n.startswith("fft.")]
        is_fft = np.isin(name_id, fft_ids)
        under = np.zeros(name_id.size, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            under[live] |= name_id[anc[live]] == target
            anc[live] = parent[anc[live]]
        return float(own[is_fft & under].sum())

    def _children_of(self, parent_name, child_name):
        # Number of distinct ``parent_name`` spans with a direct ``child_name`` child.
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        name_id, parent, _ = self._arrays()
        kids = parent[name_id == self._name_ids[child_name]]
        kids = kids[kids >= 0]
        return int(np.unique(kids[name_id[kids] == self._name_ids[parent_name]]).size)

    def layer_metrics(self, items):
        """The per-layer metrics of BENCHMARK.json, per traced item."""
        spans, own = self.summary()
        per = 1.0 / max(items, 1)
        get = lambda n, k: spans.get(n, {}).get(k, 0)
        out = {}
        for n in CALLS_AND_SELF + CALLS_ONLY:
            out[f"{n}.calls"] = (get(n, "calls") * per, "count/item")
        for n in CALLS_AND_SELF + SELF_ONLY:
            out[f"{n}.self_ms"] = (get(n, "self_s") * 1e3 * per, "ms/item")
        ffts = [s for n, s in spans.items() if n.startswith("fft.")]
        out["fft.calls"] = (sum(s["calls"] for s in ffts) * per, "count/item")
        out["fft.self_ms"] = (sum(s["self_s"] for s in ffts) * 1e3 * per, "ms/item")
        out["fft.flops_computed"] = (self.counters.get("fft.flops", 0) * per, "flop/item")
        c = self.counters
        out["reconstruct.ista_iterations"] = (c.get("reconstruct.ista_iterations", 0) * per, "count/item")
        fft_in_purify = self._fft_self_under(own, "reconstruct.purify")
        purify_incl = get("reconstruct.purify", "incl_s")
        out["reconstruct.overhead_ratio"] = (
            (purify_incl - fft_in_purify) / fft_in_purify if fft_in_purify > 0 else 0.0,
            "ratio",
        )
        out["defect.solver_iterations"] = (c.get("defect.solver_iterations", 0) * per, "count/item")
        ran_solver = self._children_of("defect.coefficient_defect", "defect.bregman_defect")
        out["defect.rerun_ratio"] = (
            get("defect.bregman_defect", "calls") / ran_solver if ran_solver else 0.0,
            "ratio",
        )
        out["defect.failed"] = (c.get("defect.failed", 0) * per, "count/item")
        out["certify.vacuous"] = (c.get("certify.vacuous", 0) * per, "count/item")
        radii = get("classifier.empirical_robust_radius", "calls")
        out["classifier.trials"] = (c.get("classifier.trials", 0) * per, "count/item")
        out["classifier.flip_found_ratio"] = (
            c.get("classifier.flip_found", 0) / radii if radii else 0.0,
            "ratio",
        )
        return out

    def save(self, path, meta):
        """Write the spans and a per-name summary as ``path`` (.npz)."""
        name_id, parent, _ = self._arrays()
        spans, _ = self.summary()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({
                "meta": meta,
                "spans": spans,
                "counters": self.counters,
                "span_costs": self.span_costs(),
            })),
        )


# -- counters taken from arguments and results --------------------------------


def _fft_flops(default_axes):
    # 5 N log2 N per transform of N points, over the axes transformed.
    def hook(tracer, args, kwargs, result, failed):
        if failed:
            return
        shape = np.shape(result)
        axes = kwargs.get("axes", kwargs.get("axis", args[2] if len(args) > 2 else default_axes))
        if axes is None:
            axes = range(len(shape))
        n = math.prod(shape[a] for a in np.atleast_1d(axes))
        if n > 1:
            tracer.count("fft.flops", 5.0 * math.prod(shape) * math.log2(n))

    return hook


def _attr_counter(counter, attr, value_of=lambda v: v):
    def hook(tracer, args, kwargs, result, failed):
        if not failed:
            tracer.count(counter, value_of(getattr(result, attr, 0)))

    return hook


def _certify(tracer, args, kwargs, result, failed):
    # Vacuous or infeasible certificate rows.
    if failed or getattr(result, "vacuous", False):
        tracer.count("certify.vacuous")


def _radius(tracer, args, kwargs, result, failed):
    if not failed:
        tracer.count("classifier.trials", getattr(result, "trials", 0))
        tracer.count("classifier.flip_found", int(bool(getattr(result, "flip_found", False))))


_HOOKS = {
    "fft.fft": _fft_flops(-1),
    "fft.ifft": _fft_flops(-1),
    "fft.fft2": _fft_flops((-2, -1)),
    "fft.ifft2": _fft_flops((-2, -1)),
    "fft.fftn": _fft_flops(None),
    "fft.ifftn": _fft_flops(None),
    "reconstruct.purify": _attr_counter("reconstruct.ista_iterations", "iterations_run"),
    "defect.bregman_defect": _attr_counter("defect.solver_iterations", "iterations"),
    "defect.sparsity_defect": _attr_counter("defect.failed", "failed", int),
    "certify.certify_probabilistic": _certify,
    "classifier.empirical_robust_radius": _radius,
}
