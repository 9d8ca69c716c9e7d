"""Run one ``gammaspacings`` CLI invocation and record its timings.

Usage (one fresh interpreter per invocation, started by ``run.py``)::

    python3 launch.py SRC_DIR RECORD_JSON TRACE -- CLI_ARGS...

The launcher puts ``SRC_DIR`` first on ``sys.path``, times
``import gammaspacings.cli`` (``setup_s``), runs the click command
exactly as the console script does, and times it (``command_s``).  With
``TRACE`` = 1 it first wraps the public callables of every layer module
so that each call records a span; the per-layer numbers are computed
after the command has finished and written into the record, so the
command time excludes the aggregation.

Nothing under ``SRC_DIR`` is modified: spans come from wrappers installed
on the imported modules of this process only.
"""

import os
import sys
import time

# Layers are the package's modules.  Every function listed in a layer
# module's ``__all__`` is wrapped; the methods below are added by name.
# Serialization methods belong to ``cli`` (the output layer) wherever
# they are defined.
LAYERS = ("gamma", "stats", "montecarlo", "spacings", "gof", "cli")
METHODS = (
    ("gamma", "RngStream", "generator", "gamma"),
    ("gof", "MonotoneCdf", "from_pdf", "gof"),
    ("montecarlo", "EmpiricalSample", "to_csv", "cli"),
    ("montecarlo", "EmpiricalSample", "to_json", "cli"),
    ("spacings", "DensityCurve", "to_csv", "cli"),
    ("spacings", "DensityCurve", "to_json", "cli"),
    ("gof", "Histogram", "to_csv", "cli"),
    ("cli", "RunManifest", "to_json", "cli"),
    ("cli", "RunManifest", "write", "cli"),
)
SIMULATORS = ("simulate_spacing", "simulate_statistic", "simulate_power")

# Span fields of the aggregated form; see ``Recorder.spans``.
NAME, LAYER, START, END, PARENT, DEPTH, UNITS, ERROR = range(8)


class _ThreadSpans:
    """Spans opened by one thread, as parallel lists of numbers.

    Numbers and interned strings are not tracked by the garbage
    collector, so recording 1e5 spans adds no collector work to the
    traced program.  A span's id is ``base + index``.
    """

    def __init__(self, base):
        self.base = base
        self.names, self.layers, self.parents = [], [], []
        self.starts, self.ends, self.units = [], [], []
        self.errors = {}
        self.stack = []


class Recorder:
    """In-memory spans of one process.

    Parents are tracked per thread.  A span opened by a thread with no
    open span of its own (a worker of ``--workers N``) takes as parent
    the innermost open span of the thread that installed the recorder,
    which is the one waiting on the pool.
    """

    ID_BITS = 40

    def __init__(self):
        import threading

        self._lock = threading.Lock()
        self._threads = []
        self._local = threading.local()
        self._main = self._thread_spans()

    def _thread_spans(self):
        with self._lock:
            record = _ThreadSpans(len(self._threads) << self.ID_BITS)
            self._threads.append(record)
        self._local.record = record
        return record

    def wrap(self, fn, name, layer, units=None):
        import functools

        local, main, clock = self._local, self._main, time.perf_counter
        new_record = self._thread_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                record = local.record
            except AttributeError:
                record = new_record()
            stack = record.stack
            parent = stack[-1] if stack else (main.stack[-1] if main.stack else -1)
            index = len(record.starts)
            record.names.append(name)
            record.layers.append(layer)
            record.parents.append(parent)
            record.units.append(0)
            record.ends.append(0.0)
            stack.append(record.base + index)
            record.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    record.units[index] = units(args, kwargs)
                return result
            except BaseException as exc:
                record.errors[index] = type(exc).__name__
                raise
            finally:
                record.ends[index] = clock()
                stack.pop()

        return wrapper

    def spans(self):
        """All spans as lists indexed by the field constants, with
        ``PARENT`` the parent span (or None) and ``DEPTH`` its depth."""
        by_id = {}
        for record in self._threads:
            for i, fields in enumerate(zip(record.names, record.layers, record.starts,
                                           record.ends, record.parents, record.units)):
                name, layer, start, end, parent, units = fields
                by_id[record.base + i] = [name, layer, start, end, parent, 0, units,
                                          record.errors.get(i)]
        spans = sorted(by_id.values(), key=lambda s: s[START])
        for span in spans:  # a parent starts before its children
            parent = by_id.get(span[PARENT])
            span[PARENT] = parent
            span[DEPTH] = parent[DEPTH] + 1 if parent is not None else 0
        return spans


def _sim_reps(args, kwargs):
    return (args[0] if args else kwargs["config"]).reps


def _file_size(args, kwargs):
    return os.path.getsize(args[0])


def install(recorder):
    """Wrap the public callables of every layer and rebind each name
    the package imported with ``from ... import``."""
    import inspect
    import pathlib

    package = "gammaspacings"
    modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                units = _sim_reps if layer == "montecarlo" and name in SIMULATORS else None
                replaced[fn] = recorder.wrap(fn, f"{layer}.{name}", layer, units)
    for module_name, cls_name, method, layer in METHODS:
        cls = getattr(modules[module_name], cls_name, None)
        raw = vars(cls).get(method) if cls is not None else None
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(
                recorder.wrap(raw.__func__, f"{layer}.{cls_name}.{method}", layer)))
        elif inspect.isfunction(raw):
            setattr(cls, method, recorder.wrap(raw, f"{layer}.{cls_name}.{method}", layer))
    pathlib.Path.write_text = recorder.wrap(
        pathlib.Path.write_text, "cli.Path.write_text", "cli", _file_size)
    for module_name, module in list(sys.modules.items()):
        if module_name == package or module_name.startswith(package + "."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])


def self_times(spans):
    """Exclusive time of each span, keyed by ``id(span)``.

    Each instant is given to exactly one open span, the deepest (the
    latest started among equals), so self times never overlap and add
    up to the time covered by any span, also when worker threads hold
    spans at the same time.
    """
    events = []
    for span in spans:
        events.append((span[START], 1, id(span), span))
        events.append((span[END], 0, id(span), span))
    events.sort(key=lambda e: (e[0], e[1]))
    own = {id(span): 0.0 for span in spans}
    open_spans = {}
    last = None
    for t, opening, key, span in events:
        if open_spans and t > last:
            top = max(open_spans.values(), key=lambda s: (s[DEPTH], s[START]))
            own[id(top)] += t - last
        last = t
        if opening:
            open_spans[key] = span
        else:
            open_spans.pop(key, None)
    return own


def layer_metrics(spans, command_s):
    """Per-layer counts and times of one traced invocation."""
    own = self_times(spans)

    def named(suffix):
        return [s for s in spans if s[NAME].endswith(suffix)]

    def outermost(selected):
        ids = {id(s) for s in selected}

        def nested(span):
            parent = span[PARENT]
            while parent is not None:
                if id(parent) in ids:
                    return True
                parent = parent[PARENT]
            return False

        return [s for s in selected if not nested(s)]

    def busy(selected):
        return sum(s[END] - s[START] for s in outermost(selected))

    by_layer = {layer: [s for s in spans if s[LAYER] == layer] for layer in LAYERS}
    streams = named(".RngStream.generator")
    mc = by_layer["montecarlo"]
    reps = sum(s[UNITS] for s in mc)
    pdfs = named(".spacing_pdf_numeric")
    writes = named(".Path.write_text")
    cli_write = sum(own[id(s)] for s in by_layer["cli"])
    covered = sum(own.values())
    out = {f"{layer}.self_s": sum(own[id(s)] for s in by_layer[layer])
           for layer in LAYERS if layer != "cli"}
    out.update({
        "gamma.streams": len(streams),
        "gamma.stream_s": sum(own[id(s)] for s in streams),
        "montecarlo.reps": reps,
        "montecarlo.busy_s": busy(mc),
        "montecarlo.us_per_rep": busy(mc) / reps * 1e6 if reps else 0.0,
        "spacings.pdf_calls": len(pdfs),
        "spacings.pdf_s": busy(pdfs),
        "spacings.ms_per_pdf": busy(pdfs) / len(pdfs) * 1e3 if pdfs else 0.0,
        "spacings.quad_failures": sum(
            1 for s in by_layer["spacings"]
            if s[ERROR] == "QuadratureError"
            and (s[PARENT] is None or s[PARENT][LAYER] != "spacings")),
        "gof.reference_cdf_self_s": sum(own[id(s)] for s in named(".MonotoneCdf.from_pdf")),
        "gof.ks_s": busy(named(".ks_test")),
        "gof.histogram_s": busy(named(".histogram")),
        "cli.write_s": cli_write,
        "cli.bytes_written": sum(s[UNITS] for s in writes),
        "cli.files_written": len(writes),
        "cli.self_s": command_s - covered,
        "trace.command_s": command_s,
    })
    return out


def main(argv):
    src, record_path, trace = argv[1], argv[2], argv[3] == "1"
    if argv[4] != "--":
        raise SystemExit("usage: launch.py SRC_DIR RECORD_JSON TRACE -- CLI_ARGS...")
    cli_args = argv[5:]
    sys.path[0] = src  # in place of this script's directory
    record = {"exit_code": None}
    try:
        t0 = time.perf_counter()
        import gammaspacings.cli as cli
        t1 = time.perf_counter()
        record["setup_s"] = t1 - t0
        if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
            record["error"] = f"gammaspacings.cli imported from {cli.__file__}, not {src}"
            return 3
        recorder = None
        if trace:
            recorder = Recorder()
            install(recorder)
        code = 0
        t2 = time.perf_counter()
        try:
            cli.main.main(args=cli_args, prog_name="gammaspacings")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        t3 = time.perf_counter()
        record["command_s"] = t3 - t2
        record["exit_code"] = code
        if recorder is not None:
            import gc

            gc.disable()  # the command is over; spare the collector the span lists
            record["layers"] = layer_metrics(recorder.spans(), t3 - t2)
        return code
    finally:
        import json  # after the timed import, which loads json itself

        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
