"""Spans around lyapdim's public functions, installed from outside the package.

Tracer.install() replaces each public function of the layer modules with a
wrapper that records a span: name, start, end, the span that caused it, and
the request (benchmark item) it belongs to.  The package looks functions up
as module globals at call time, so calls made inside lyapdim are seen too.
uninstall() puts the originals back.  A few functions also record counts
taken from their arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ("bounds", "charroots", "dde", "cocycle", "tensor", "delayop", "cli")
SPANS_MARKER = "#bench-spans "  # starts the stderr line of traced_cli.py's spans


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    request: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _char_roots_counts(args, rs):
    cums = np.cumsum(rs.roots.real)
    neg = np.flatnonzero(cums < 0.0)
    prob = args["prob"]
    return {
        "key": [prob.a, prob.b, prob.tau],
        "requested": int(args["count"]),
        "needed": int(neg[0]) + 1 if neg.size else int(rs.roots.size),
    }


COUNTERS = {
    "charroots.char_roots": _char_roots_counts,
    "dde.integrate": lambda args, traj: {"steps": round(args["T"] / args["dt"])},
    "cocycle.volume_growth_qr": lambda args, g: {"steps": int(g.per_step.size)},
    "cli.main": lambda args, code: {"command": (args["argv"] or ["?"])[0]},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._saved: list = []

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"lyapdim.{layer}")
            names = ["main"] if layer == "cli" else module.__all__
            for name in names:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _open(self, name: str, start: float) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, self.request, start)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name, time.perf_counter())
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, qualname: str, fn):
        counter = COUNTERS.get(qualname)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(qualname, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = counter(bound.arguments, result)
            return result

        return traced

    def adopt(self, spans: list[dict], parent: int):
        """Append spans recorded by another process under the span parent.
        perf_counter reads the system-wide monotonic clock, so the times
        line up."""
        base = len(self.spans)
        for s in spans:
            s = dict(s, id=s["id"] + base, request=self.request)
            s["parent"] = parent if s["parent"] is None else s["parent"] + base
            self.spans.append(Span(**s))

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round of the workload."""
    own = self_times(spans)

    def total(prefix):
        return sum(own[s.id] for s in spans if s.name == prefix or s.name.startswith(prefix + "."))

    def calls(name):
        return [s for s in spans if s.name == name]

    def rate(name, attr):
        busy = sum(own[s.id] for s in calls(name))
        work = sum(s.attrs[attr] for s in calls(name))
        return work / busy if busy > 0 else 0.0

    roots = calls("charroots.char_roots")
    requested = sum(s.attrs["requested"] for s in roots)
    keys = {(s.request, *s.attrs["key"]) for s in roots}  # retries within one item
    mains: dict[str, list[float]] = {}
    for s in calls("cli.main"):
        mains.setdefault(s.attrs["command"], []).append(s.end - s.start)
    m = {
        "charroots.char_roots.calls": len(roots) / rounds,
        "charroots.char_roots.self_s": total("charroots.char_roots") / rounds,
        "charroots.char_roots.roots_requested": requested / rounds,
        "charroots.char_roots.roots_needed_frac": (
            sum(s.attrs["needed"] for s in roots) / requested if requested else 0.0
        ),
        "charroots.growth_retries": (len(roots) - len(keys)) / rounds,
        "charroots.asymptotic_slope.self_s": total("charroots.asymptotic_slope") / rounds,
        "dde.integrate.calls": len(calls("dde.integrate")) / rounds,
        "dde.integrate.self_s": total("dde.integrate") / rounds,
        "dde.integrate.steps_per_s": rate("dde.integrate", "steps"),
        "dde.linearized_monodromy.calls": len(calls("dde.linearized_monodromy")) / rounds,
        "dde.linearized_monodromy.self_s": total("dde.linearized_monodromy") / rounds,
        "cocycle.volume_growth_qr.calls": len(calls("cocycle.volume_growth_qr")) / rounds,
        "cocycle.volume_growth_qr.qr_steps": sum(
            s.attrs["steps"] for s in calls("cocycle.volume_growth_qr")
        ) / rounds,
        "cocycle.volume_growth_qr.self_s": total("cocycle.volume_growth_qr") / rounds,
        "dde.numerical_lyapunov_spectrum.self_s": total("dde.numerical_lyapunov_spectrum") / rounds,
        "bounds.scalar_bound.calls": len(calls("bounds.scalar_bound")) / rounds,
        "bounds.scaled_bound.self_s": total("bounds.scaled_bound") / rounds,
        "tensor.self_s": total("tensor") / rounds,
        "delayop.self_s": total("delayop") / rounds,
    }
    for command in ("bound", "roots", "simulate", "sweep", "verify", "lyap"):
        times = mains.get(command)
        m[f"cli.main_s.{command}"] = statistics.median(times) if times else 0.0
    return m
