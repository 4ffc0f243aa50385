"""Experiment harness: regenerate every figure of the paper.

``FIGURES`` maps figure ids (``fig2`` ... ``fig8b``) to grid
specifications; :class:`ExperimentSession` executes grids (with
caching) and :meth:`~ExperimentSession.run_figure` returns rows in the
paper's plotting order; :mod:`paper_data` records the paper's claims
so results can be checked for *shape* agreement (who wins, by roughly
what factor) rather than absolute numbers.
"""

from repro.experiments.cache import ResultCache, cell_key
from repro.experiments.figures import FIGURES, FigureSpec
from repro.experiments.paper_data import PAPER_CLAIMS, Claim
from repro.experiments.runner import (
    ClaimOutcome,
    FigureResult,
    format_claims,
    format_figure,
)
from repro.experiments.session import Cell, ExperimentSession

__all__ = [
    "Cell",
    "Claim",
    "ClaimOutcome",
    "ExperimentSession",
    "FIGURES",
    "FigureResult",
    "FigureSpec",
    "PAPER_CLAIMS",
    "ResultCache",
    "cell_key",
    "format_claims",
    "format_figure",
]
