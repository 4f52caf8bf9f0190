"""``repro.server`` — the persistent solve daemon (``dprle serve``).

See ``docs/SERVER.md`` for the protocol, the job queue and deadline
semantics, and the persistent memo store that makes a restarted
daemon warm.  The pieces:

* :mod:`repro.server.config` — :class:`ServerConfig`, every knob;
* :mod:`repro.server.httpio` — dependency-free HTTP/1.1 framing;
* :mod:`repro.server.handlers` — solve/check/analyze payload handling;
* :mod:`repro.server.daemon` — the event loop, the FIFO job queue and
  its dispatcher, deadlines, shutdown.
"""

from __future__ import annotations

from .config import ServerConfig
from .daemon import SCHEMA, SolveDaemon, serve

__all__ = ["SCHEMA", "ServerConfig", "SolveDaemon", "serve"]
