"""Shared logging configuration for the CLIs and workers.

Every diagnostic line the execution stack emits goes through the
``repro`` logger hierarchy (``repro.campaign.worker``,
``repro.campaign.engine``, ``repro.campaign_worker`` ...), configured
exactly once per process by :func:`setup_logging` as
``HH:MM:SS level [name] message`` lines on stderr.  The handler looks
``sys.stderr`` up as it writes each line, so an in-process caller that
swaps the stream and later closes it (a test capturing a CLI's output)
loses no later diagnostic.  The campaign's machine-readable record is
its event journal (:mod:`repro.obs.journal`), not its log.

CLIs opt in with the ``--log-level`` flag added by
:func:`add_logging_args` and a single :func:`setup_from_args` call.
Libraries only ever call :func:`get_logger` — configuration is the
entry point's job.
"""

from __future__ import annotations

import logging
import sys
import time

ROOT_LOGGER = "repro"

LEVELS = ("debug", "info", "warning", "error")


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (idempotent)."""
    if name.startswith(ROOT_LOGGER):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


class HumanFormatter(logging.Formatter):
    """``HH:MM:SS level [logger] message`` for terminal stderr."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S",
                              time.localtime(record.created))
        line = (f"{stamp} {record.levelname.lower():7s} "
                f"[{record.name}] {record.getMessage()}")
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


class StderrHandler(logging.StreamHandler):
    """A stream handler bound to ``sys.stderr`` at emit time, not at
    setup time."""

    def __init__(self) -> None:
        # Skips StreamHandler.__init__, which would store a stream in
        # place of the lookup below.
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def setup_logging(level: str = "warning") -> logging.Logger:
    """Configure the ``repro`` logger tree; returns the root logger.

    Idempotent per process: a second call replaces the handler (and
    level) instead of stacking duplicates — tests and REPL sessions
    reconfigure freely.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; choose from "
                         f"{', '.join(LEVELS)}")
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(getattr(logging, level.upper()))
    handler = StderrHandler()
    handler.setFormatter(HumanFormatter())
    for old in list(logger.handlers):
        logger.removeHandler(old)
    logger.addHandler(handler)
    logger.propagate = False
    return logger


def add_logging_args(parser) -> None:
    """Attach the shared ``--log-level`` flag."""
    parser.add_argument("--log-level", choices=LEVELS,
                        default="warning",
                        help="diagnostic verbosity on stderr "
                             "(default: warning)")


def setup_from_args(args) -> logging.Logger:
    """:func:`setup_logging` from a parsed argparse namespace."""
    return setup_logging(level=args.log_level)
