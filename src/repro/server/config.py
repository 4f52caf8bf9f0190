"""Configuration for the solve daemon (`dprle serve`).

One frozen dataclass carries every knob from the CLI into
:mod:`repro.server.daemon`; tests construct it directly.  Defaults are
chosen for a local single-replica daemon: loopback only, no default
deadline, and no persistent store unless a ``--cache-db`` path is
given.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = ["ServerConfig"]


@dataclass(frozen=True)
class ServerConfig:
    """Everything the daemon needs to run (see ``docs/SERVER.md``)."""

    #: Interface to bind.  The daemon speaks plain unauthenticated HTTP,
    #: so anything beyond loopback is the deployer's explicit choice.
    host: str = "127.0.0.1"
    #: TCP port; 0 lets the OS pick (the chosen port is printed on the
    #: ``listening on`` line, which tests and the CI smoke parse).
    port: int = 8765
    #: Path of the persistent memo store
    #: (:class:`repro.cache.store.SignatureStore`); None runs with the
    #: in-memory LRU only.
    cache_db: Optional[Path] = None
    #: Default worker fan-out for solves (``repro.parallel``): None
    #: defers to ``DPRLE_WORKERS``, 0 forces serial.
    workers: Optional[int] = None
    #: Deadline applied to requests that do not carry their own
    #: ``deadline_ms``; None means no default deadline.
    default_deadline: Optional[float] = None
    #: Stream a JSONL event journal (:mod:`repro.obs.journal`) here.
    journal: Optional[Path] = None
    #: Largest request body accepted, in bytes.
    max_body_bytes: int = 4 * 1024 * 1024
    #: Validate config/bind/store and exit instead of serving.
    check_only: bool = False

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ValueError(f"port out of range: {self.port}")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
