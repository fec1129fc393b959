"""Span tracing around evoarch's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
evoarch module that holds a reference to it (``engine``, ``selection``,
``mutation`` and ``trainer`` bind their own copies through ``from ...
import``), and ``uninstall`` puts every original back.  Each call records
a span ``[id, parent, run, name, start, end]`` in memory; spans are only
written out by ``dump`` once the run is over.  Counters that need a
function's arguments or outcome (mutation attempts, checkpoint bytes,
trained iterations, CPU time) are kept by per-name hooks at the same
boundary.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import resource
import threading
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced function; a dotted attribute names a method
TRACED = (
    ("genome", "topological_order"),
    ("genome", "infer_shapes"),
    ("genome", "validate"),
    ("genome", "parameter_count"),
    ("genome", "canonical_node_sequence"),
    ("genome", "serialize"),
    ("mutation", "mutate_until_valid"),
    ("selection", "rank"),
    ("selection", "aggressive_select"),
    ("selection", "clone_refill"),
    ("engine", "step_generation"),
    ("engine", "checkpoint_save"),
    ("engine", "run"),
    ("engine", "compare_strategies"),
    ("cli", "main"),
    ("fitness", "evaluate_batch"),
    ("fitness", "SurrogateEvaluator.evaluate"),
    ("fitness", "TrainedEvaluator.evaluate"),
    ("trainer", "train"),
    ("trainer", "init_model"),
    ("trainer", "sgd_step"),
    ("trainer", "accuracy"),
    ("data", "load_dataset"),
)

MODULES = ("cli", "data", "engine", "fitness", "genome", "mutation", "selection", "trainer")

CPU_TIMED = ("engine.compare_strategies", "fitness.evaluate_batch")


def span_name(module, attr):
    """Metric prefix of a traced function: methods report under the module."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def span_names():
    return list(dict.fromkeys(span_name(m, a) for m, a in TRACED))


def _cpu_seconds():
    """CPU seconds of every thread of this process plus its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self, nproc):
        self.nproc = nproc
        self.run_id = "setup"
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = []
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the main thread's open
        # span, which is the evaluate_batch call that fed the pool
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def add(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def thread_iterations(self):
        return getattr(self._local, "iterations", 0)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = hook(tracer, args, kwargs) if hook else None
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            start = time.perf_counter()
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                err = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.run_id, name, start, end))
                if done:
                    done(result, err)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module("evoarch")] + [
            importlib.import_module(f"evoarch.{m}") for m in MODULES
        ]
        for module, attr in TRACED:
            owner = importlib.import_module(f"evoarch.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(span_name(module, attr), original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(module, attr), original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Per-function calls and self seconds plus the hook counters."""
        calls = Counter()
        child_intervals = defaultdict(list)
        for sid, parent, _run, name, start, end in self.spans:
            calls[name] += 1
            if parent is not None:
                child_intervals[parent].append((start, end))
        self_s = defaultdict(float)
        for sid, _parent, _run, name, start, end in self.spans:
            self_s[name] += (end - start) - _covered(child_intervals.get(sid, ()), start, end)

        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = max(0.0, self_s[name])
        c = self.counts
        out["genome.topological_order.calls_per_child"] = _ratio(
            calls["genome.topological_order"], calls["mutation.mutate_until_valid"]
        )
        out["mutation.attempts"] = c["mutation.attempts"]
        out["mutation.accept_ratio"] = _ratio(c["mutation.accepted"], c["mutation.attempts"])
        out["mutation.exhausted"] = c["mutation.exhausted"]
        out["mutation.repair_fixes"] = c["mutation.repair_fixes"]
        out["engine.checkpoint.bytes"] = c["engine.checkpoint.bytes"]
        for name in CPU_TIMED:
            out[f"{name}.cpu_util"] = _ratio(c[f"{name}.cpu_s"], c[f"{name}.wall_s"] * self.nproc)
        out["fitness.failed"] = c["fitness.failed"]
        out["fitness.diverged"] = c["fitness.diverged"]
        out["trainer.iterations"] = c["trainer.iterations"]
        out["trainer.samples"] = c["trainer.samples"]
        out["data.bytes_read"] = c["data.bytes_read"]
        out["data.records"] = c["data.records"]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "run", "name", "start", "end"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def _ratio(num, den):
    return num / den if den else 0.0


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


# ---------------------------------------------------------------------------
# per-function counter hooks: hook(tracer, args, kwargs) -> done(result, err)


def _mutate_hook(tracer, args, kwargs):
    attempts = args[4] if len(args) > 4 else kwargs.get("attempts")
    before = len(attempts) if attempts is not None else 0

    def done(result, err):
        new = attempts[before:] if attempts is not None else []
        tracer.add("mutation.attempts", len(new))
        tracer.add("mutation.accepted", sum(1 for a in new if a["accepted"]))
        tracer.add("mutation.repair_fixes", sum(a["repair_fixes"] for a in new))
        if type(err).__name__ == "ExhaustedRetries":
            tracer.add("mutation.exhausted")

    return done


def _checkpoint_hook(tracer, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]

    def done(result, err):
        if err is None:
            tracer.add("engine.checkpoint.bytes", os.path.getsize(path))

    return done


def _cpu_hook(name):
    def hook(tracer, args, kwargs):
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()

        def done(result, err):
            tracer.add(f"{name}.wall_s", time.perf_counter() - wall0)
            tracer.add(f"{name}.cpu_s", _cpu_seconds() - cpu0)
            if name == "fitness.evaluate_batch" and type(err).__name__ == "EvaluationError":
                tracer.add("fitness.failed", len(err.failures))

        return done

    return hook


def _train_hook(tracer, args, kwargs):
    split = args[1] if len(args) > 1 else kwargs["split"]
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    batch = min(plan.batch_size, len(split.train_x))
    before = tracer.thread_iterations()

    def done(result, err):
        iters = tracer.thread_iterations() - before
        tracer.add("trainer.samples", iters * batch)
        if type(err).__name__ == "DivergedTraining":
            tracer.add("fitness.diverged")
        elif err is None and iters != plan.max_iters:
            tracer.add("trainer.iteration_mismatch")

    return done


def _sgd_hook(tracer, args, kwargs):
    tracer._local.iterations = tracer.thread_iterations() + 1
    tracer.add("trainer.iterations")
    return None


def _load_hook(tracer, args, kwargs):
    data_dir = args[1] if len(args) > 1 else kwargs["data_dir"]

    def done(split, err):
        if err is None:
            sizes = (e.stat().st_size for e in os.scandir(data_dir) if e.is_file())
            tracer.add("data.bytes_read", sum(sizes))
            tracer.add("data.records", sum(len(a) for a in (split.train_x, split.val_x, split.test_x) if a is not None))

    return done


_HOOKS = {
    "mutation.mutate_until_valid": _mutate_hook,
    "engine.checkpoint_save": _checkpoint_hook,
    "engine.compare_strategies": _cpu_hook("engine.compare_strategies"),
    "fitness.evaluate_batch": _cpu_hook("fitness.evaluate_batch"),
    "trainer.train": _train_hook,
    "trainer.sgd_step": _sgd_hook,
    "data.load_dataset": _load_hook,
}
