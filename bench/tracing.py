"""Span tracing of the program's layers, done from the benchmark's side.

While installed, every function the command line dispatches through is
replaced on its module by a wrapper that records a span. A call into a
layer that is already open (a layer calling itself, such as ``construct``
delegating to ``construct_scaled``) records no second span, so a layer's
busy time is the sum of its outermost spans. The ``cli`` span is opened by
the benchmark around each ``cli.run`` call. Nothing in the program is
edited; restoring puts the original functions back.
"""

import functools
import time

# layer -> (module name, functions the command line calls on that module)
TARGETS = {
    "construct": ("construct", ["construct", "construct_scaled",
                                "construct_vandermonde"]),
    "verify": ("verify", ["verify_exhaustive", "verify_sampled"]),
    "attack": ("attack", ["attack_params", "find_collision"]),
    "recover": ("recover", ["encode", "decode"]),
    "cover": ("cover", ["verify_cover", "cover_lower_bound",
                        "min_cover_bruteforce"]),
    "serialize": ("serialize", [
        "load_json", "save_json", "matrix_from_dict", "matrix_to_dict",
        "matrix_to_csv", "signal_from_dict", "signal_to_dict",
        "measurement_from_dict", "measurement_to_dict", "certificate_to_dict",
        "report_to_dict", "normals_from_obj", "rational_to_str",
        "rational_from_str"]),
}
LAYERS = list(TARGETS)


class Tracer:
    """Collects (layer, duration, self time) spans in memory."""

    def __init__(self, modules: dict):
        self.spans = []
        self._stack = []  # open spans: [layer, start, time in children]
        self._open = set()
        self._patches = []
        self.missing = []
        for layer, (mod_name, names) in TARGETS.items():
            mod = modules[mod_name]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                self._patches.append((mod, name, fn, self._wrap(layer, fn)))

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            self.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def begin(self, layer: str) -> None:
        self._open.add(layer)
        self._stack.append([layer, time.perf_counter(), 0.0])

    def end(self) -> None:
        now = time.perf_counter()
        layer, start, children = self._stack.pop()
        self._open.discard(layer)
        dur = now - start
        if self._stack:
            self._stack[-1][2] += dur
        self.spans.append((layer, dur, dur - children))

    def scale(self, start: int, factor: float) -> None:
        """Multiply the times of the spans recorded since index start."""
        self.spans[start:] = [(layer, dur * factor, own * factor)
                              for layer, dur, own in self.spans[start:]]

    def install(self) -> None:
        for mod, name, _, wrapped in self._patches:
            setattr(mod, name, wrapped)

    def restore(self) -> None:
        for mod, name, fn, _ in self._patches:
            setattr(mod, name, fn)

    def totals(self) -> dict:
        """layer -> [calls, busy seconds, self seconds]"""
        out = {layer: [0, 0.0, 0.0] for layer in ["cli"] + LAYERS}
        for layer, dur, own in self.spans:
            row = out[layer]
            row[0] += 1
            row[1] += dur
            row[2] += own
        return out
