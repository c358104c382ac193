"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each fracgrid module (its
`__all__`, or every public function of a module that has none) in every
fracgrid module namespace that binds them, so calls from one layer into
another are timed from outside; nothing under src/ changes. Each call
records one span: name, start, end, parent and the request it belongs to.
Spans stay in memory until `write` is called at the end of the run.
tracemalloc, which slows Python-heavy code several times over, runs only in
requests begun with `memory=True`; the span times of those requests are not
used.

Span times are on the program's clock: wall time minus the time the tracer
spends on its own bookkeeping (first-call keys, tracemalloc reads, and the
field digest that tells repeated translations apart). So that work is charged
to no layer.

`summarize` turns the spans of one request into per-layer metrics. A span's
self time is its duration minus the durations of its direct children. A call
*enters* a layer when its parent span belongs to another layer (or there is
none); only entries count as calls. An entry is a *first call* the first time
its key (function, grid, scalar arguments) is seen by this tracer, and a
*repeat call* after that.
"""

import functools
import hashlib
import importlib
import inspect
import json
import time
import tracemalloc

LAYERS = ("core", "config", "cli", "spectral", "direct", "norms", "interp", "verify")

# inclusive time of the outermost calls to these functions, per request; each
# verify.check_<id> adds its own verify.<id>_s
GROUPS = {
    "norms.translation_s": ("norms.translation_modulus",),
    "norms.gagliardo_s": ("norms.gagliardo_report", "norms.gagliardo_seminorm"),
}
_CHECK = "verify.check_"

_MB = 2.0 ** 20


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "first",
                 "error", "alloc", "note")

    def __init__(self, name, layer, parent, first):
        self.name, self.layer, self.parent, self.first = name, layer, parent, first
        self.start = self.end = 0.0
        self.error = False
        self.alloc = 0
        self.note = None


def _arg_key(value):
    grid = getattr(value, "grid", None)
    if grid is not None:
        value = grid
    if hasattr(value, "points_per_axis"):
        return ("grid", value.dim, value.points_per_axis, value.extent)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)) and value:
        return ("seq", len(value), _arg_key(value[0]))
    return type(value).__name__


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = []
    for n in names:
        fn = getattr(mod, n, None)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            out.append((n, fn))
    return out


class Tracer:
    """Records spans around fracgrid's public functions; see the module doc."""

    def __init__(self):
        self.memory = False
        self.requests = []          # finished requests: (request id, [Span])
        self.spans = []             # spans of the current request
        self._stack = []            # indices into self.spans
        self._mem = []              # [base bytes, peak bytes] per open span
        self._seen = set()          # first-call keys, for the tracer's lifetime
        self._translations = set()  # (field digest, shift) of this request
        self._patched = []
        self._request = None
        self._excluded = 0.0        # seconds of the tracer's own bookkeeping

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("fracgrid")
        modules = [importlib.import_module(f"fracgrid.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))
        for ns in [package] + modules:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched = []

    def _wrap(self, fn, layer, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, layer, name, args, kwargs)
        return wrapper

    # -- requests ----------------------------------------------------------

    def begin(self, request, memory: bool) -> None:
        """Start a request; with `memory`, tracemalloc runs until `end`."""
        self._request = request
        self.memory = memory
        self.spans = []
        self._translations = set()
        if self.memory:
            tracemalloc.start()

    def end(self) -> list:
        if self.memory:
            tracemalloc.stop()
        self.requests.append((self._request, self.spans))
        return self.spans

    # -- one call ----------------------------------------------------------

    def _call(self, fn, layer, name, args, kwargs):
        entered = time.perf_counter()
        spans = self.spans
        parent = self._stack[-1] if self._stack else -1
        first = None
        if parent < 0 or spans[parent].layer != layer:
            key = (name,) + tuple(_arg_key(a) for a in args) \
                + tuple((k, _arg_key(v)) for k, v in sorted(kwargs.items()))
            first = key not in self._seen
            self._seen.add(key)
        span = Span(name, layer, parent, first)
        index = len(spans)
        spans.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        self._stack.append(index)
        now = time.perf_counter()
        self._excluded += now - entered
        span.start = now - self._excluded
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            left = time.perf_counter()
            span.end = left - self._excluded
            self._stack.pop()
            if self.memory:
                frame = self._mem.pop()
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                span.alloc = frame[1] - frame[0]
                if self._mem:
                    self._mem[-1][1] = max(self._mem[-1][1], frame[1])
                tracemalloc.reset_peak()
            self._excluded += time.perf_counter() - left
        left = time.perf_counter()
        self._note(span, args, result)
        self._excluded += time.perf_counter() - left
        return result

    def _note(self, span, args, result) -> None:
        if span.name == "core.translate":
            digest = hashlib.blake2b(args[0].samples.tobytes(), digest_size=16).digest()
            key = (digest, repr(args[1]))
            span.note = key in self._translations
            self._translations.add(key)
        elif span.name == "norms.gagliardo_report":
            stat = result.detail.get("stat_error", 0.0)
            span.note = stat / result.value if result.value > 0.0 else 0.0
        elif span.name.startswith(_CHECK):
            span.note = bool(result.passed)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """All recorded spans as JSON lines: request, name, start, end (on
        the program's clock),
        parent index within the request, first-call flag, error flag,
        bytes allocated at peak."""
        with open(path, "w") as fh:
            for request, spans in self.requests:
                for s in spans:
                    fh.write(json.dumps([request, s.name, s.start, s.end, s.parent,
                                         s.first, s.error, s.alloc]) + "\n")


def summarize(spans) -> dict:
    """Per-layer metrics of one request's spans (see the module doc)."""
    out = {}
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    for layer in LAYERS:
        out.update({f"{layer}.calls": 0, f"{layer}.self_s": 0.0,
                    f"{layer}.first_call_s": 0.0, f"{layer}.repeat_call_s": 0.0,
                    f"{layer}.first_calls": 0, f"{layer}.repeat_calls": 0,
                    f"{layer}.peak_alloc_mb": 0.0})
    for i, s in enumerate(spans):
        layer = s.layer
        duration = s.end - s.start
        out[f"{layer}.self_s"] += duration - child[i]
        out[f"{layer}.peak_alloc_mb"] = max(out[f"{layer}.peak_alloc_mb"], s.alloc / _MB)
        if s.first is not None:
            out[f"{layer}.calls"] += 1
            kind = "first" if s.first else "repeat"
            out[f"{layer}.{kind}_call_s"] += duration
            out[f"{layer}.{kind}_calls"] += 1
    for layer in LAYERS:
        out[f"{layer}.repeat_ratio"] = _share(out[f"{layer}.repeat_calls"], out[f"{layer}.calls"])

    check_names = {s.name for s in spans if s.name.startswith(_CHECK)}
    groups = {**GROUPS, **{f"verify.{n[len(_CHECK):]}_s": (n,) for n in check_names}}
    for metric, names in groups.items():
        out[metric] = sum(s.end - s.start for i, s in enumerate(spans)
                          if s.name in names and _outermost(spans, i, names))

    translations = [s for s in spans if s.name == "core.translate"]
    out["core.translate_calls"] = len(translations)
    out["norms.translation_dup_ratio"] = _share(sum(1 for s in translations if s.note),
                                                len(translations))
    out["norms.mc_rel_stat_error"] = max(
        [s.note for s in spans if s.name == "norms.gagliardo_report"] or [0.0])

    checks = [s for i, s in enumerate(spans)
              if s.name in check_names and _outermost(spans, i, check_names)]
    out["verify.check_error_ratio"] = _share(sum(1 for s in checks if s.error), len(checks))
    out["verify.check_fail_ratio"] = _share(sum(1 for s in checks if s.error or not s.note),
                                            len(checks))
    return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _outermost(spans, index, names) -> bool:
    """No ancestor of spans[index] is named in `names`."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return False
        parent = spans[parent].parent
    return True
