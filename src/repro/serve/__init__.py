"""Layer 6: the streaming decision service.

Online sessions (:mod:`repro.serve.session`) queue telemetry chunks,
a hub (:mod:`repro.serve.hub`) settles each physics group's chunks in
one boundary solve and micro-batches decision epochs across sessions
through one stacked kernel pass, and an asyncio front-end
(:mod:`repro.serve.server`) exposes it all over TCP JSON lines.  The
load-bearing guarantee: online decisions are bit-identical to the
offline batch engine, at any chunk size.
"""

from repro.serve.hub import HubStats, SessionHub
from repro.serve.session import (
    DecisionRecord,
    StreamSession,
    offline_decision_log,
    write_decision_log,
)
from repro.serve.server import (
    StreamServer,
    run_demo,
    run_offline_reference,
    serve_forever,
)

__all__ = [
    "DecisionRecord",
    "HubStats",
    "SessionHub",
    "StreamServer",
    "StreamSession",
    "offline_decision_log",
    "run_demo",
    "run_offline_reference",
    "serve_forever",
    "write_decision_log",
]
