"""Span and count wrappers around mp4wm's public functions, installed from outside.

Each target is wrapped at every name that binds it in the ``mp4wm``
modules (``cli.parse_config``, ``experiments.run_single``,
``pulses.transfer_entries``, ...), so calls are seen where they are made.
Spans carry a job id and a parent.  Parents are kept per thread; a span
opened on a thread with nothing open (a scan-pool worker) takes as parent
the innermost open span of the thread that runs the job.  Spans stay in
memory until :meth:`Tracer.write`.  A target missing from the program is
recorded in :attr:`Tracer.absent` and its metrics read 0.
"""
from __future__ import annotations

import collections
import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

# (defining module, attribute path, metric prefix)
SPAN_TARGETS = (
    ("mp4wm.cli", "main", "cli.main"),
    ("mp4wm.config", "parse_config", "config.parse_config"),
    ("mp4wm.experiments", "run_single", "experiments.run_single"),
    ("mp4wm.coupling", "transfer_entries", "coupling.transfer_entries"),
    ("mp4wm.pulses", "make_gaussian_pulse", "pulses.make_gaussian_pulse"),
    ("mp4wm.pulses", "to_spectrum", "pulses.to_spectrum"),
    ("mp4wm.pulses", "from_spectrum", "pulses.from_spectrum"),
    ("mp4wm.pulses", "fit_gaussian", "pulses.fit_gaussian"),
    ("mp4wm.pulses", "SampledPulse.check_containment", "pulses.check_containment"),
)
COUNT_TARGETS = (
    ("mp4wm.params", "derive_coefficients", "params.derive_coefficients"),
    ("mp4wm.experiments", "infer_eta_xi", "experiments.inference"),
    ("mp4wm.experiments", "predict_gain", "experiments.inference"),
    ("mp4wm.pulses", "SampledPulse.intensity", "pulses.intensity"),
)
# every public scan_* function of the experiments module is one scan span
SCAN_MODULE, SCAN_PREFIX, SCAN_NAME = "mp4wm.experiments", "scan", "experiments.scan"

BLANK_CLASSES = ("FitError", "ContainmentError", "AliasingError")


@dataclass(frozen=True)
class Span:
    job: int
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float
    thread: int
    error: str | None  # exception class that left the span, if any


def _resolve(module: str, path: str):
    """(owner, attribute, value) for 'Class.attr' or 'func' in `module`, or None."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _bindings(value):
    """Every (module, name) in the loaded mp4wm modules bound to `value`."""
    return [
        (mod, name)
        for modname, mod in list(sys.modules.items())
        if modname == "mp4wm" or modname.startswith("mp4wm.")
        for name, bound in list(vars(mod).items())
        if bound is value
    ]


def _fft_bins(name, args, kwargs) -> int:
    """Transform length of a to_spectrum(pulse) or from_spectrum(spec, grid) call."""
    try:
        if name == "pulses.to_spectrum":
            return (args[0] if args else kwargs["pulse"]).grid.n_samples
        if name == "pulses.from_spectrum":
            return (args[1] if len(args) > 1 else kwargs["grid"]).n_samples
    except (IndexError, KeyError, AttributeError):
        pass
    return 0


def _omega_bins(args, kwargs) -> int:
    omega = args[1] if len(args) > 1 else kwargs.get("omega")
    return int(getattr(omega, "size", 1))


class Tracer:
    """Holds the wrappers, the spans of every job and the per-job counts."""

    def __init__(self):
        self.jobs: list[tuple[list[Span], collections.Counter]] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._job = 0
        self._spans: list[Span] = []
        self._counts: collections.Counter = collections.Counter()
        self._job_stack: list[int] = []
        self._plan()

    # ------------------------------------------------------------ patching

    def _plan(self):
        """Build the wrappers once; install() and uninstall() only swap them."""
        for module, path, name in SPAN_TARGETS:
            self._wrap_target(module, path, name, self._span_wrapper)
        for module, path, name in COUNT_TARGETS:
            self._wrap_target(module, path, name, self._count_wrapper)
        mod = sys.modules.get(SCAN_MODULE)
        scans = [
            fn for attr, fn in vars(mod).items()
            if attr.startswith(SCAN_PREFIX) and inspect.isfunction(fn)
            and fn.__module__ == SCAN_MODULE
        ] if mod else []
        if not scans:
            self.absent.append(SCAN_NAME)
        for fn in scans:
            self._add_bindings(fn, self._span_wrapper(SCAN_NAME, fn))

    def _wrap_target(self, module, path, name, make):
        found = _resolve(module, path)
        if found is None:
            self.absent.append(f"{module}.{path}")
            return
        owner, attr, value = found
        if isinstance(value, property):
            wrapper = property(make(name, value.fget), value.fset, value.fdel, value.__doc__)
        elif inspect.isfunction(value):
            wrapper = make(name, value)
        else:  # no longer a plain function or property: wrapping it would change it
            self.absent.append(f"{module}.{path}")
            return
        if isinstance(owner, type):
            self._patches.append((owner, attr, value, wrapper))
        else:
            self._add_bindings(value, wrapper)

    def _add_bindings(self, value, wrapper):
        for mod, attr in _bindings(value):
            self._patches.append((mod, attr, value, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------- records

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key, n=1):
        with self._lock:
            self._counts[key] += n

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._job_stack[-1] if tracer._job_stack else None
            )
            sid = next(tracer._ids)
            if name == "coupling.transfer_entries":
                tracer._count("coupling.transfer_entries.bins", _omega_bins(args, kwargs))
            elif name in ("pulses.to_spectrum", "pulses.from_spectrum"):
                tracer._count("pulses.fft_bins", _fft_bins(name, args, kwargs))
            error = None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._spans.append(Span(tracer._job, sid, parent, name, t0, t1,
                                          threading.get_ident(), error))
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._count(key)
            return fn(*args, **kwargs)
        return wrapper

    def begin_job(self, job: int):
        self._job = job
        self._spans = []
        self._counts = collections.Counter()
        self._job_stack = self._stack()

    def end_job(self):
        self.jobs.append((self._spans, self._counts))

    # ------------------------------------------------------------- results

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for spans, _ in self.jobs:
                for s in spans:
                    fh.write(json.dumps({
                        "job": s.job, "id": s.id, "parent": s.parent, "name": s.name,
                        "t0_us": round(s.t0 * 1e6, 1),
                        "dur_us": round((s.t1 - s.t0) * 1e6, 1),
                        "thread": s.thread, "error": s.error,
                    }) + "\n")


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def job_layers(spans: list[Span], counts: collections.Counter) -> dict[str, float]:
    """Per-layer figures of one job: calls, self and busy time per span name."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    out: dict[str, float] = collections.Counter(counts)
    for s in spans:
        dur = s.t1 - s.t0
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_ms"] += dur * 1e3
        out[f"{s.name}.self_ms"] += (dur - _union_length(children[s.id], s.t0, s.t1)) * 1e3
        if s.name == "experiments.run_single" and s.error is not None:
            cls = s.error if s.error in BLANK_CLASSES else "GuardError"
            out[f"experiments.points_blank.{cls}"] += 1
    return out
