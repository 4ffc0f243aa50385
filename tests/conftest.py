"""Fixtures shared by every suite."""

import collections
import contextlib
import sys

import pytest

from repro.core import simulator


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls to functions, wherever they are bound.

    ``count_calls((owner, name), ...)`` wraps each ``owner.name`` and
    returns a :class:`collections.Counter` keyed by ``name``.  A class
    attribute is wrapped on the class, so every instance counts; a
    module function is wrapped in every loaded ``repro`` module that
    imported it, so a call through any of those bindings counts.
    """
    counts = collections.Counter()

    def watch(*targets):
        for owner, name in targets:
            original = getattr(owner, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            if isinstance(owner, type):
                monkeypatch.setattr(owner, name, counting)
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "repro" \
                        and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        return counts

    return watch


@pytest.fixture
def observe_commits():
    """Record the instructions committed by machines built in a block.

    ``with observe_commits() as committed:`` wraps ``make_engine`` as
    :mod:`repro.core.simulator` sees it, for the block only.  The core
    captures ``engine.commit`` when it is built, and calls it only for
    engines with commit training, so each engine built in the block
    reports commit training and appends every committed ``DynInst`` to
    ``committed`` before its own ``commit`` runs.  That ``commit`` is a
    no-op for gshare+BTB and gskew+FTB, so no result moves.  The
    fixture holds no state of its own, so one instance may serve many
    hypothesis examples.
    """
    @contextlib.contextmanager
    def observe():
        committed = []
        make_engine = simulator.make_engine

        def observed_engine(*args, **kwargs):
            engine = make_engine(*args, **kwargs)
            engine_commit = engine.commit

            def commit(di):
                committed.append(di)
                engine_commit(di)

            engine.commit = commit
            engine.commit_training = True
            return engine

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "make_engine", observed_engine)
            yield committed

    return observe
