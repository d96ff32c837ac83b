"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer of ilrgp: its name is
``<module>.<call>``, and it records start and end (``perf_counter`` seconds),
the span that was open when it started, and the run id shared by every span
of one traced process. Spans stay in memory until :func:`write_spans`.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]



def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans) -> dict:
    """Seconds spent in each span name outside its child spans, summed.

    Spans of one run are nested and sequential (the traced process is
    single-threaded), so a span's children never overlap each other.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + (s["end"] - s["start"])
    out = {}
    for s in spans:
        own = (s["end"] - s["start"]) - child_time.get((s["run"], s["id"]), 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def layer_self_times(spans) -> dict:
    """:func:`self_times` summed per layer (the module part of the span name)."""
    out = {}
    for name, seconds in self_times(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out
