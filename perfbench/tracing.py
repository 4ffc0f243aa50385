"""Spans, a SIGPROF stage sampler and Chrome trace export.

Everything here observes the simulator from outside: spans are opened
by the benchmark around calls into the public layer functions, and the
sampler reads the interpreter's frame stack.  Nothing is installed in
``repro`` itself, so tracing costs nothing when the benchmark is not
running, and the untraced runs hold the no-op :data:`NULL_TRACER`.
"""

from __future__ import annotations

import json
import re
import signal
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed interval at a layer boundary (monotonic seconds)."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: str | None
    track: str
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order per tracer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None,
             track: str = "benchmark"):
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = parent.cell
        span = Span(len(self.spans), name, time.monotonic(), 0.0,
                    parent.id if parent is not None else None, cell, track)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.monotonic()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, *,
            parent: Span | None = None, cell: str | None = None,
            track: str = "benchmark", **args) -> Span:
        """Record an already-finished span (e.g. rebuilt from a journal)."""
        span = Span(len(self.spans), name, start, end,
                    parent.id if parent is not None else None, cell, track,
                    args)
        self.spans.append(span)
        return span

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span minus its children."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) \
                    + span.duration
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) \
                + span.duration - children.get(span.id, 0.0)
        return dict(sorted(totals.items()))

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (Perfetto opens it).

        One track (``tid``) per :attr:`Span.track`; complete (``X``)
        events carry the cell id and the parent span in ``args``.
        """
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span.start for span in self.spans)
        tids: dict[str, int] = {}
        events: list[dict] = [{"ph": "M", "name": "process_name", "pid": 1,
                               "tid": 0, "args": {"name": "perfbench"}}]
        for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
            tid = tids.get(span.track)
            if tid is None:
                tid = tids[span.track] = len(tids) + 1
                events.append({"ph": "M", "name": "thread_name", "pid": 1,
                               "tid": tid, "args": {"name": span.track}})
            args = {"cell": span.cell, "span": span.id,
                    "parent": span.parent}
            args.update(span.args)
            events.append({"ph": "X", "name": span.name, "pid": 1,
                           "tid": tid,
                           "ts": round((span.start - origin) * 1e6, 3),
                           "dur": round(span.duration * 1e6, 3),
                           "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.write_text(json.dumps(self.chrome_trace()) + "\n",
                        encoding="utf-8")


class NullTracer:
    """Tracing off: spans are no-ops (used by every untraced run)."""

    @contextmanager
    def span(self, name: str, cell: str | None = None,
             track: str = "benchmark"):
        yield None


NULL_TRACER = NullTracer()

_SECTION = re.compile(r"^\s*# -{3,} (.+?) -{3,}\s*$")


def stage_lines(core_source: Path) -> dict[int, str]:
    """Map each line of ``run_fast`` to its stage section.

    Sections are the loop's ``# ---- X stage ----`` comments, parsed at
    run time so no line number is hard-coded here: ``commit stage``
    becomes ``commit``, ``front end + accounting`` becomes
    ``front_end_accounting``.  Lines before the first section are
    ``loop``.
    """
    lines = core_source.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.lstrip().startswith("def run_fast("))
    indent = len(lines[start]) - len(lines[start].lstrip())
    stage = "loop"
    mapping: dict[int, str] = {}
    for i in range(start, len(lines)):
        line = lines[i]
        if i > start and line.strip() and \
                len(line) - len(line.lstrip()) <= indent:
            break
        match = _SECTION.match(line)
        if match:
            text = match.group(1).strip()
            if text.endswith(" stage"):
                text = text[:-len(" stage")]
            stage = re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")
        mapping[i + 1] = stage
    return mapping


class Sampler:
    """Dependency-free SIGPROF sampling profiler (traced runs only).

    Every ``interval`` seconds of process CPU time the handler walks
    the interrupted stack to the innermost frame inside the ``repro``
    package (the directory holding ``core_source``'s subpackage) and
    counts it for that module's layer; a sample inside ``run_fast`` is
    also counted for the stage section holding its line.  A frame
    without a line number (CPython 3.11 reports ``None`` for some
    instructions) counts as ``unknown`` stage.  Samples outside the
    package count as ``other``.
    """

    def __init__(self, core_source: Path, interval: float = 0.001) -> None:
        self.interval = interval
        self.stage_of = stage_lines(core_source)
        self.core_file = str(core_source)
        self.package = str(core_source.parent.parent) + "/"
        self.samples = 0
        self.unknown = 0
        self.layers: Counter[str] = Counter()
        self.stages: Counter[str] = Counter()
        self.seconds = 0.0
        self._previous = None
        self._t0 = 0.0

    def _handle(self, signum, frame) -> None:
        self.samples += 1
        package = self.package
        while frame is not None and \
                not frame.f_code.co_filename.startswith(package):
            frame = frame.f_back
        if frame is None:
            self.layers["other"] += 1
            return
        code = frame.f_code
        module, _, rest = code.co_filename[len(package):].partition("/")
        self.layers[module if rest else "repro"] += 1
        if code.co_name == "run_fast" and code.co_filename == self.core_file:
            line = frame.f_lineno
            if line is None:
                self.unknown += 1
            else:
                self.stages[self.stage_of.get(line, "loop")] += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._handle)
        self._t0 = time.monotonic()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.seconds += time.monotonic() - self._t0

    def share(self, count: int) -> float:
        return count / self.samples if self.samples else 0.0
