"""The simulation backend: how a cell executes.

There is one backend, ``reference`` — the fused cycle loop of
:mod:`repro.pipeline.core`, one machine per cell.  Its name still
rides on :attr:`repro.core.config.SimConfig.backend`, because that
field is hashed into every cell key, which the golden-parity suite
pins and only a ``CACHE_FORMAT_VERSION`` bump may move;
:func:`get_backend` is the one place that checks it, so a config
naming any other backend (a campaign planned before the others were
removed, say) fails with a message that names ``reference``.
"""

from repro.backend.reference import ReferenceBackend, get_backend

__all__ = [
    "ReferenceBackend",
    "get_backend",
]
