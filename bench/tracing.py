"""Spans around the public functions of each spikesim layer module.

`Tracer.install()` wraps every public function of the layer modules and
rebinds the wrapper wherever any `spikesim.*` module holds the original, so a
call site that moves between modules still records a span.  Spans are kept in
memory as (name, layer, start, end, parent) and returned when the run ends.

A layer's self time is the duration of its spans minus the time their direct
child spans cover.  `cli.self_s` also takes the traced wall time that no span
covers, so the self times of all layers add up to the traced wall time.
"""

import functools
import importlib
import inspect
import os
import resource
import sys
import time

LAYERS = ("cli", "jump", "ode", "spikes", "io", "lyapunov", "model")
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

# Called four times per RK4 step: a span per call would cost more than the
# step itself, so its time stays in ode.self_s.
UNTRACED = {("model", "vector_field")}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.simulate_calls: list[dict] = []
        self._hooks = {
            ("jump", "simulate"): self._on_simulate,
            ("ode", "integrate"): self._on_integrate,
            ("io", "write_ode_csv"): self._on_write,
            ("io", "write_jump_csv"): self._on_write,
            ("io", "write_survival_csv"): self._on_write,
            ("io", "write_pairs_csv"): self._on_write,
            ("io", "write_json"): self._on_write,
            ("io", "read_trajectory_csv"): self._on_read,
            ("spikes", "detect_spikes"): self._on_detect,
            ("spikes", "detect_plateaus"): self._on_detect,
            ("spikes", "pair_plateau_spike"): self._on_pairs,
            ("lyapunov", "scan_drift_condition"): self._on_scan,
        }

    def install(self) -> None:
        """Wrap each layer's public functions in every spikesim module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spikesim.{layer}")
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or (layer, name) in UNTRACED):
                    continue
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "spikesim" and not modname.startswith("spikesim."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        hook = self._hooks.get((layer, name))
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        label = f"{layer}.{name}"
        track_rss = (layer, name) == ("jump", "simulate")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [label, layer, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            rss_before = _current_rss_bytes() if track_rss else 0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound.arguments, result, rss_before)
            return result

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _on_simulate(self, span, a, traj, rss_before) -> None:
        spec, initial = a["spec"], a["initial"]
        key = (spec.kind.value, spec.params, spec.n_units, spec.anchor,
               initial.kr, initial.kn, a["seed"], a["t_end"], a["max_jumps"])
        self.simulate_calls.append({
            "key": repr(key), "kind": spec.kind.value, "events": traj.n_events,
            "seconds": span[3] - span[2],
            "rss_growth_bytes": _maxrss_bytes() - rss_before,
        })

    def _on_integrate(self, span, a, traj, _rss) -> None:
        self._add("ode.steps", round(float(traj.t[-1]) / traj.dt))
        self._add("ode.clamps", traj.clamp_count)
        self._add("ode.busy_s", span[3] - span[2])

    def _on_write(self, span, a, _result, _rss) -> None:
        name = span[0]
        if name == "io.write_ode_csv":
            rows = len(a["traj"].t)
        elif name == "io.write_jump_csv":
            rows = a["traj"].n_events + 1  # the initial state is a row too
        elif name == "io.write_survival_csv":
            rows = len(a["grid"])
        elif name == "io.write_pairs_csv":
            rows = len(a["pairs"])
        else:
            rows = 0  # JSON reports carry no table rows
        self._add("io.rows_written", rows)
        self._add("io.bytes_written", os.path.getsize(a["path"]))

    def _on_read(self, span, a, result, _rss) -> None:
        _meta, columns = result
        self._add("io.rows_read", len(next(iter(columns.values()))) if columns else 0)

    def _on_detect(self, span, a, result, _rss) -> None:
        self._add("spikes.points", len(a["series"].times))
        if span[0] == "spikes.detect_spikes":
            self._add("spikes.spikes", len(result))

    def _on_pairs(self, span, a, result, _rss) -> None:
        self._add("spikes.pairs", len(result))

    def _on_scan(self, span, a, report, _rss) -> None:
        if not report.inconclusive:
            kr_max, kn_max = report.scan_box
            self._add("lyapunov.states", (kr_max + 1) * (kn_max + 1))
        self._add("lyapunov.set_A_size", len(report.set_A))
        self._add("lyapunov.violations", len(report.violations))
        self._add("lyapunov.busy_s", span[3] - span[2])


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _name, _layer, start, end, _parent in spans]
    for _name, _layer, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass whose operations took
    ``wall_s`` seconds in total."""
    spans = tracer.spans
    own = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    io_write = io_read = 0.0
    for span, s in zip(spans, own):
        layer_self[span[1]] += s
        if span[0].startswith("io.write_"):
            io_write += s
        elif span[0].startswith("io.read_"):
            io_read += s
    covered = sum(end - start for _n, _l, start, end, parent in spans if parent < 0)
    c = tracer.counts
    calls = tracer.simulate_calls
    m = {
        "trace.wall_s": wall_s,
        "cli.self_s": layer_self["cli"] + (wall_s - covered),
        "cli.simulate_calls": len(calls),
        "cli.unique_paths": len({call["key"] for call in calls}),
        "jump.self_s": layer_self["jump"],
        "jump.events": sum(call["events"] for call in calls),
    }
    m["cli.unique_path_frac"] = _ratio(m["cli.unique_paths"], m["cli.simulate_calls"])
    for kind in ("oneunit", "global", "meanfield"):
        of_kind = [call for call in calls if call["kind"] == kind]
        m[f"jump.events_per_s.{kind}"] = _ratio(
            sum(call["events"] for call in of_kind),
            sum(call["seconds"] for call in of_kind))
    # Peak RSS after the largest call over the resident set before it.
    largest = max(calls, key=lambda call: call["events"], default=None)
    m["jump.rss_bytes_per_event"] = (
        _ratio(largest["rss_growth_bytes"], largest["events"]) if largest else 0.0)
    m["ode.self_s"] = layer_self["ode"]
    m["ode.steps"] = c.get("ode.steps", 0)
    m["ode.steps_per_s"] = _ratio(m["ode.steps"], c.get("ode.busy_s", 0.0))
    m["ode.clamps"] = c.get("ode.clamps", 0)
    m["io.write_s"] = io_write
    m["io.read_s"] = io_read
    m["io.rows_written"] = c.get("io.rows_written", 0)
    m["io.rows_read"] = c.get("io.rows_read", 0)
    m["io.write_rows_per_s"] = _ratio(m["io.rows_written"], io_write)
    m["io.read_rows_per_s"] = _ratio(m["io.rows_read"], io_read)
    m["io.bytes_written"] = c.get("io.bytes_written", 0)
    m["spikes.self_s"] = layer_self["spikes"]
    m["spikes.points"] = c.get("spikes.points", 0)
    m["spikes.ns_per_point"] = _ratio(layer_self["spikes"] * 1e9, m["spikes.points"])
    m["spikes.spikes"] = c.get("spikes.spikes", 0)
    m["spikes.pairs"] = c.get("spikes.pairs", 0)
    m["lyapunov.self_s"] = layer_self["lyapunov"]
    m["lyapunov.states"] = c.get("lyapunov.states", 0)
    m["lyapunov.states_per_s"] = _ratio(m["lyapunov.states"], c.get("lyapunov.busy_s", 0.0))
    m["lyapunov.set_A_size"] = c.get("lyapunov.set_A_size", 0)
    m["lyapunov.violations"] = c.get("lyapunov.violations", 0)
    m["model.self_s"] = layer_self["model"]
    m["model.calls"] = sum(1 for span in spans if span[1] == "model")
    return m


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work in this workload."""
    return num / den if den > 0 else 0.0
