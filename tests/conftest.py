"""Fixtures shared by every suite."""

import collections
import sys

import pytest


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
