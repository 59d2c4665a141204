"""Spans recorded by the benchmark's own code, kept in memory until the run ends.

A span has a name, a trace id, its own id, its parent's id and start/end
times (seconds on the benchmark's ``perf_counter`` clock).  Client round
trips carry a pinned ``X-Fairank-Trace`` id; the server echoes it in the
envelope's ``timings``, whose phases (route, key, compute, score, cache)
become child spans.  The envelope gives phase durations but not their start
times, so those children are laid out in order, centred in their parent;
self times depend only on durations and nesting, not on that placement.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional

#: Span name -> the layer its self time is charged to.
SELF_LAYER = {
    "client.request": "http",
    "router.route": "router",
    "service.key": "service_key",
    "service.compute": "service_compute",
    "core.score": "core_score",
    "service.cache": "service_cache",
}


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    def add(
        self, name: str, trace_id: str, start: float, end: float,
        parent: Optional[int] = None,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "name": name, "trace_id": trace_id, "span_id": span_id,
            "parent_id": parent, "start": start, "end": end,
        })
        return span_id

    def round_trip(
        self, trace_id: str, sent: float, done: float, timings: Mapping[str, object]
    ) -> None:
        """A client round trip plus the envelope's phases as child spans."""
        root = self.add("client.request", trace_id, sent, done)
        parent, start, end = root, sent, done
        if "route_ms" in timings:
            parent, start, end = self._centred(
                "router.route", trace_id, parent, start, end, _ms(timings, "route_ms")
            )
        service, cursor, _ = self._centred(
            "service.execute", trace_id, parent, start, end, _ms(timings, "total_ms")
        )
        for phase in ("key", "compute", "cache"):
            length = _ms(timings, f"{phase}_ms")
            span = self.add(f"service.{phase}", trace_id, cursor, cursor + length, service)
            if phase == "compute" and "score_ms" in timings:
                score = _ms(timings, "score_ms")
                self.add("core.score", trace_id, cursor, cursor + score, span)
            cursor += length

    def _centred(self, name, trace_id, parent, start, end, length):
        begin = start + max(0.0, (end - start) - length) / 2.0
        return self.add(name, trace_id, begin, begin + length, parent), begin, begin + length

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer: duration minus what children cover."""
        children: Dict[int, List[Dict[str, object]]] = {}
        for span in self.spans:
            if span["parent_id"] is not None:
                children.setdefault(int(span["parent_id"]), []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            layer = SELF_LAYER.get(str(span["name"]))
            if layer is None:
                continue
            start, end = float(span["start"]), float(span["end"])
            covered, reach = 0.0, start
            intervals = sorted(
                (max(start, float(c["start"])), min(end, float(c["end"])))
                for c in children.get(int(span["span_id"]), ())
            )
            for child_start, child_end in intervals:
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
        return totals

    def write(self, path: Path, extra: Mapping[str, object]) -> None:
        path.write_text(json.dumps({"spans": self.spans, **extra}) + "\n", encoding="utf-8")


def _ms(timings: Mapping[str, object], key: str) -> float:
    return float(timings.get(key, 0.0)) / 1000.0  # type: ignore[arg-type]
