"""Logging setup: formatters, idempotent configuration, CLI flags."""

import argparse
import io
import logging
import sys

import pytest

from repro.obs.logging_setup import (
    ROOT_LOGGER,
    add_logging_args,
    get_logger,
    setup_from_args,
    setup_logging,
)


@pytest.fixture(autouse=True)
def _restore_root_logger():
    """Leave the shared ``repro`` logger the way the session had it."""
    logger = logging.getLogger(ROOT_LOGGER)
    saved = (list(logger.handlers), logger.level, logger.propagate)
    yield
    logger.handlers[:] = saved[0]
    logger.setLevel(saved[1])
    logger.propagate = saved[2]


class TestGetLogger:
    def test_prefixes_bare_names(self):
        assert get_logger("campaign.worker").name \
            == "repro.campaign.worker"

    def test_keeps_qualified_names(self):
        assert get_logger("repro.perf").name == "repro.perf"


def redirect_stderr(monkeypatch) -> io.StringIO:
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stream)
    return stream


class TestSetup:
    def test_human_format(self, monkeypatch):
        stream = redirect_stderr(monkeypatch)
        setup_logging(level="info")
        get_logger("campaign.worker").info("leased %d cells", 4)
        line = stream.getvalue().strip()
        assert "info" in line
        assert "[repro.campaign.worker]" in line
        assert line.endswith("leased 4 cells")

    def test_level_filtering(self, monkeypatch):
        stream = redirect_stderr(monkeypatch)
        setup_logging(level="error")
        get_logger("x").warning("quiet")
        get_logger("x").error("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_reconfigure_replaces_handler(self, monkeypatch):
        stream = redirect_stderr(monkeypatch)
        setup_logging(level="info")
        setup_logging(level="info")
        assert len(logging.getLogger(ROOT_LOGGER).handlers) == 1
        get_logger("x").info("once")
        assert stream.getvalue().count("once") == 1

    def test_no_propagation_to_python_root(self):
        logger = setup_logging(level="info")
        assert logger.propagate is False

    def test_a_swapped_and_closed_stderr_loses_nothing(self,
                                                       monkeypatch):
        # An in-process caller (a test capturing a CLI's output) swaps
        # sys.stderr around setup, then closes the stream it swapped
        # in: later diagnostics must reach the stderr of the moment.
        captured = redirect_stderr(monkeypatch)
        setup_logging(level="warning")
        current = redirect_stderr(monkeypatch)
        captured.close()
        get_logger("x").warning("still heard")
        assert "still heard" in current.getvalue()
        assert "Logging error" not in current.getvalue()

    def test_each_line_reaches_the_stderr_of_its_moment(self,
                                                        monkeypatch):
        setup_logging(level="warning")
        first = redirect_stderr(monkeypatch)
        get_logger("x").warning("one")
        second = redirect_stderr(monkeypatch)
        get_logger("x").warning("two")
        assert "one" in first.getvalue() and "two" not in first.getvalue()
        assert "two" in second.getvalue() \
            and "one" not in second.getvalue()

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            setup_logging(level="loud")


class TestCliFlags:
    def _parser(self):
        parser = argparse.ArgumentParser()
        add_logging_args(parser)
        return parser

    def test_defaults(self):
        args = self._parser().parse_args([])
        assert args.log_level == "warning"

    def test_parses_flags(self):
        args = self._parser().parse_args(["--log-level", "debug"])
        assert args.log_level == "debug"

    def test_rejects_unknown_level(self):
        with pytest.raises(SystemExit):
            self._parser().parse_args(["--log-level", "loud"])

    def test_setup_from_args(self):
        args = self._parser().parse_args(["--log-level", "info"])
        logger = setup_from_args(args)
        assert logger.level == logging.INFO
