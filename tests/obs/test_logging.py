"""Logging setup: formatters, idempotent configuration, CLI flags."""

import argparse
import io
import logging

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


class TestSetup:
    def test_human_format(self):
        stream = io.StringIO()
        setup_logging(level="info", stream=stream)
        get_logger("campaign.worker").info("leased %d cells", 4)
        line = stream.getvalue().strip()
        assert "info" in line
        assert "[repro.campaign.worker]" in line
        assert line.endswith("leased 4 cells")

    def test_level_filtering(self):
        stream = io.StringIO()
        setup_logging(level="error", stream=stream)
        get_logger("x").warning("quiet")
        get_logger("x").error("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_reconfigure_replaces_handler(self):
        first, second = io.StringIO(), io.StringIO()
        setup_logging(level="info", stream=first)
        setup_logging(level="info", stream=second)
        assert len(logging.getLogger(ROOT_LOGGER).handlers) == 1
        get_logger("x").info("once")
        assert first.getvalue() == ""
        assert second.getvalue().count("once") == 1

    def test_no_propagation_to_python_root(self):
        logger = setup_logging(level="info", stream=io.StringIO())
        assert logger.propagate is False

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
