"""Span recorder for the traced benchmark run.

The tracer wraps every public function of the ten wreathwalk layer modules
and rebinds the wrapper wherever another wreathwalk module (or the package
namespace) imported the name.  In the defining module the name is rebound
only when that module never calls it itself, so recursion and inner loops
inside one layer (``partitions_of``, ``mn_character``, ``wreath_multiply``)
stay unwrapped: a same-layer call adds nothing to the layer's self time.

Each call records a span (function, start, end, parent) in flat arrays; a
generator function records one span per resumption, because its work
happens while it is iterated.  Counters come from the arguments and return
values of the wrapped calls.  Nothing under ``src/`` is touched.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("partitions", "groups", "wreath", "classes", "reps", "walks",
          "oracle", "bounds", "simulate", "cli")


def _code_names(obj, out: set) -> None:
    """Collect every global name referenced by code reachable from obj."""
    code = getattr(obj, "__code__", None)
    stack = [code] if code is not None else []
    while stack:
        co = stack.pop()
        out.update(co.co_names)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))


def _internal_names(mod) -> set:
    names: set = set()
    for obj in vars(mod).values():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                _code_names(inspect.unwrap(getattr(member, "__func__", member)), names)
        elif callable(obj):
            _code_names(inspect.unwrap(obj), names)
    return names


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


class Tracer:
    """Records spans and counters for the wreathwalk layers."""

    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.name"
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.distinct_dims: set = set()
        self.wrappers: dict = {}            # original function -> wrapper
        self._installed: list = []          # (module, name, original)

    # -- recording --------------------------------------------------------
    def _open(self, fid: int) -> int:
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = time.perf_counter()
        self._stack.pop()
        self.end[idx] = t
        return t - self.start[idx]

    def _wrap(self, fid: int, func, hook):
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                gen = func(*args, **kwargs)
                call: dict = {}
                while True:
                    idx = self._open(fid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = self._close(idx)
                    if hook is not None:
                        hook(self, args, kwargs, item, dt, call)
                    yield item
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self._open(fid)
            try:
                result = func(*args, **kwargs)
            finally:
                dt = self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result, dt, None)
            return result
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap the layers' public functions and rebind them in place."""
        mods = {layer: importlib.import_module(f"wreathwalk.{layer}") for layer in LAYERS}
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "wreathwalk" or name.startswith("wreathwalk."))]
        for layer, mod in mods.items():
            internal = _internal_names(mod)
            for name, func in list(_public_functions(mod)):
                qual = f"{layer}.{name}"
                fid = len(self.names)
                self.names.append(qual)
                wrapper = self._wrap(fid, func, HOOKS.get(qual))
                self.wrappers[func] = wrapper
                for holder in holders:
                    if vars(holder).get(name) is not func:
                        continue
                    if holder is mod and name in internal:
                        continue
                    setattr(holder, name, wrapper)
                    self._installed.append((holder, name, func))

    def uninstall(self) -> None:
        for holder, name, func in reversed(self._installed):
            setattr(holder, name, func)
        self._installed.clear()

    def resolve(self, func):
        """The traced stand-in for a function the benchmark calls itself."""
        return self.wrappers.get(func, func)

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict:
        """Per-layer self time: span time minus the time of directly nested
        spans; nested same-layer spans thereby merge into their parent."""
        if not self.fn:
            return dict.fromkeys(LAYERS, 0.0)
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = np.zeros(len(fn))
        has_parent = parent >= 0
        np.add.at(nested, parent[has_parent], dur[has_parent])
        layer_of = np.array([LAYERS.index(q.split(".", 1)[0]) for q in self.names])
        per_layer = np.bincount(layer_of[fn], weights=dur - nested, minlength=len(LAYERS))
        return dict(zip(LAYERS, per_layer.tolist()))

    def layer_metrics(self, speed: float = 1.0) -> dict:
        """Per-layer metrics named as in BENCHMARK.json (without the unit);
        every time is multiplied by the run's machine-speed factor."""
        c = self.counts
        st = {layer: t * speed for layer, t in self.self_times().items()}

        def ratio(a, b):
            return a / b if b else 0.0

        def rate(work, seconds_key):
            return ratio(c[work], c[seconds_key] * speed)

        return {
            "partitions.self_s": st["partitions"],
            "partitions.dim_calls": c["dim_calls"],
            "partitions.dim_distinct_ratio": ratio(len(self.distinct_dims), c["dim_calls"]),
            "reps.self_s": st["reps"],
            "reps.labels": c["labels"],
            "walks.self_s": st["walks"],
            "walks.lines": c["lines"],
            "walks.lines_per_label": ratio(c["label_lines"], c["labels"]),
            "walks.l2_evals": c["l2_evals"],
            "classes.self_s": st["classes"],
            "bounds.self_s": st["bounds"],
            "bounds.brackets": c["brackets"],
            "bounds.s_per_bracket": ratio(st["bounds"], c["brackets"]),
            "groups.self_s": st["groups"],
            "wreath.self_s": st["wreath"],
            "wreath.table_entries_per_s": rate("table_entries", "table_s"),
            "oracle.self_s": st["oracle"],
            "oracle.conv_steps": c["conv_steps"],
            "oracle.updates_per_s": rate("conv_updates", "conv_s"),
            "oracle.dense_madds_per_s": rate("dense_madds", "dense_s"),
            "simulate.self_s": st["simulate"],
            "simulate.trial_steps_per_s": rate("trial_steps", "walk_s"),
            "simulate.coupling_trials_per_s": rate("coupling_trials", "coupling_s"),
            "cli.self_s": st["cli"],
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 fn=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


# ---------------------------------------------------------------------------
# counters, keyed by "layer.function"; each gets (tracer, args, kwargs,
# result or yielded item, span seconds, per-call dict for generators)

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dim(t, args, kwargs, result, dt, call):
    t.counts["dim_calls"] += 1
    t.distinct_dims.add(_arg(args, kwargs, 0, "lam"))


def _labels(t, args, kwargs, result, dt, call):
    t.counts["labels"] += len(result)


def _spectrum(t, args, kwargs, result, dt, call):
    t.counts["lines"] += len(result.lines)
    if result.kind != "sym":
        t.counts["label_lines"] += len(result.lines)


def _l2_eval(t, args, kwargs, result, dt, call):
    t.counts["l2_evals"] += 1


def _one_bracket(t, args, kwargs, result, dt, call):
    t.counts["brackets"] += 1


def _envelope(t, args, kwargs, result, dt, call):
    t.counts["brackets"] += 2          # one bracket at k0, one at k0 + cn


def _curve(t, args, kwargs, result, dt, call):
    if result.mode != "full-spectrum":  # every row is one windowed bracket
        t.counts["brackets"] += len(result.rows)


def _table(t, args, kwargs, result, dt, call):
    t.counts["table_entries"] += result.group.order ** 2
    t.counts["table_s"] += dt


def _support_size(measure) -> int:
    if measure.kind == "sym":
        return 1 + measure.n * (measure.n - 1) // 2
    return sum(size for tag, _, size in measure.support if measure.class_probs.get(tag))


def _convolution(t, args, kwargs, item, dt, call):
    table = _arg(args, kwargs, 0, "g")
    measure = _arg(args, kwargs, 1, "measure")
    k = item[0]
    steps = k - call.get("k", 0)
    call["k"] = k
    t.counts["conv_steps"] += steps
    t.counts["conv_updates"] += _support_size(measure) * table.order * steps
    t.counts["conv_s"] += dt


def _dense(t, args, kwargs, result, dt, call):
    m = _arg(args, kwargs, 0, "m")
    k_max = _arg(args, kwargs, 1, "k_max")
    t.counts["dense_madds"] += m.order ** 3 * max(k_max - 1, 0)
    t.counts["dense_s"] += dt


def _walk(t, args, kwargs, result, dt, call):
    cfg = _arg(args, kwargs, 0, "cfg")
    steps = cfg.k if cfg.mode == "discrete" else cfg.t
    t.counts["trial_steps"] += cfg.trials * steps
    t.counts["walk_s"] += dt


def _coupling(t, args, kwargs, result, dt, call):
    t.counts["coupling_trials"] += result.trials
    t.counts["coupling_s"] += dt


HOOKS = {
    "partitions.dim_partition": _dim,
    "partitions.dim_hook": _dim,
    "reps.enumerate_labels": _labels,
    "walks.spectrum": _spectrum,
    "walks.l2n_sq_spectral": _l2_eval,
    "bounds.l2n_sq_collapsed_bounds": _one_bracket,
    "bounds.paired_relaxed_bound": _one_bracket,
    "bounds.envelope_decay_certificate": _envelope,
    "bounds.distance_curve": _curve,
    "wreath.build_wreath_table": _table,
    "oracle.convolution_curve": _convolution,
    "oracle.matrix_power_traces": _dense,
    "simulate.run_walk": _walk,
    "simulate.run_walk_indices": _walk,
    "simulate.coupling_experiment": _coupling,
}
