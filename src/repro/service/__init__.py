"""Lifeguard-as-a-service: the multi-tenant monitoring gateway.

The paper's lifeguard pipeline couples one producer to one consumer
through a bounded log buffer.  This package exposes that pipeline to many
concurrent tenants: a long-running asyncio gateway
(:class:`~repro.service.gateway.MonitoringGateway`) accepts chunked trace
uploads from thousands of clients, applies the bounded-buffer coupling
*per client* as backpressure, replays each committed trace in one
supervised columnar replay worker that sees every chunk in order (a
bounded pool of sessions replays at once), and persists every trace and
report to an indexed on-disk store
(:class:`~repro.service.store.SessionStore`) -- engineered for failure
first: per-session state machines with idempotent resume, admission
control with load shedding, strict/degrade quarantine of damaged uploads,
graceful drain on SIGTERM, and deterministic crash recovery at startup.
"""

from repro.service.client import GatewayClient, upload_trace, upload_trace_sync
from repro.service.gateway import GatewayConfig, MonitoringGateway, report_document
from repro.service.session import (
    SESSION_EVENTS,
    SessionMachine,
    SessionState,
    TERMINAL_STATES,
)
from repro.service.store import SessionMeta, SessionStore, StoreError

__all__ = [
    "GatewayClient",
    "GatewayConfig",
    "MonitoringGateway",
    "SESSION_EVENTS",
    "SessionMachine",
    "SessionMeta",
    "SessionState",
    "SessionStore",
    "StoreError",
    "TERMINAL_STATES",
    "report_document",
    "upload_trace",
    "upload_trace_sync",
]
