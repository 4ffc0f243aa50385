"""The simulation backend: how a cell executes.

There is one backend, ``reference`` — the fused cycle loop of
:mod:`repro.pipeline.core`, one machine per cell.  Its name still
rides on :attr:`repro.core.config.SimConfig.backend`, because that
field is hashed into every cell key, which the golden-parity suite
pins and only a ``CACHE_FORMAT_VERSION`` bump may move;
:func:`get_backend` is the one place that checks it, so a config
naming any other backend (a campaign planned before the others were
removed, say) fails with a message that names ``reference``.

A cell runs through :func:`repro.core.simulator.simulate`, which checks
that name and runs a :class:`~repro.core.simulator.Simulator`.
:class:`ReferenceBackend` only splits such a run into the
warm/advance/result phases the repository benchmark times; its
``warm`` is :meth:`Simulator.warm`, the one warm-up boundary.
"""

from repro.backend.reference import ReferenceBackend, get_backend

__all__ = [
    "ReferenceBackend",
    "get_backend",
]
