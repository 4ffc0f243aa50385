"""Fixtures shared by the campaign suites: an in-memory journal and a
fake clock for the cell queue."""

import pytest

from repro.campaign import queue as queue_mod


class RecordingJournal:
    """Journal stand-in that keeps every event in memory."""

    enabled = True
    path = None

    def __init__(self):
        self.events = []

    def emit(self, ev, **fields):
        self.events.append((ev, fields))

    def close(self):
        pass

    def of(self, ev):
        return [fields for name, fields in self.events if name == ev]


class FakeClock:
    """Stands in for the ``time`` module the queue reads, so lease
    deadlines are exact."""

    def __init__(self):
        self.now = 1000.0

    def time(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds

    advance = sleep


@pytest.fixture
def journal():
    return RecordingJournal()


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(queue_mod, "time", fake)
    return fake
