"""The barrier-service wire protocol: PR-5 frames, service verbs.

Clients and the :mod:`repro.serve.daemon` exchange the same
length-prefixed canonical-JSON :class:`~repro.net.frames.Message`
envelopes the peer-to-peer runtime uses -- strict ``from_bytes`` at the
service boundary, receiver-side :class:`~repro.net.frames.DedupIndex`
exactly-once filtering on ``(client, incarnation, seq)``, and
quarantine-not-crash on anything a hostile client could send.

Addressing: the daemon is node ``0``; client ids are ``>= 1`` and are
*claimed* by the client in its ``hello`` frame (the load generator and
the tests assign them deterministically).  The first frame on every
connection must be a valid ``hello``, which binds the connection to the
claimed id; a second connection claiming a live id is rejected unless
it carries a *higher* incarnation -- that is the crash-restart path,
and it supersedes the dead connection.

Request/reply verbs carry a client-chosen request id ``rid`` which the
daemon echoes, so one connection can pipeline requests.  The barrier
verbs (``arrive``/``release``) are the tree protocol's waves flattened
onto a star topology: a client resends ``arrive(group, round)`` until
it sees ``release(group, round')`` with ``round' >= round``, and the
daemon answers stale arrives with a direct one-shot release -- the same
idempotent healing rule, so duplicates, reconnects and backpressure
rejections are all harmless by construction.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.net.frames import Message

#: The daemon's node id; clients are >= 1.
SERVER_ID = 0

#: Protocol version spoken in ``hello``/``welcome``.
SERVE_VERSION = 1

# -- client -> server verbs --------------------------------------------
HELLO = "hello"          #: bind the connection to a client id
CREATE = "g.create"      #: create a group (capacity, barriers)
JOIN = "g.join"          #: join a group (admission-controlled)
LEAVE = "g.leave"        #: leave a group (mid-barrier allowed)
ARRIVE = "arrive"        #: barrier arrival for (group, round)
BYE = "bye"              #: clean disconnect

# -- server -> client verbs --------------------------------------------
WELCOME = "welcome"      #: hello accepted; session established
OK = "g.ok"              #: request succeeded (echoes rid)
REJECT = "g.reject"      #: request refused, with a structured reason
RELEASE = "release"      #: barrier (group, round) completed
GOODBYE = "bye.ok"       #: clean disconnect acknowledged
SHUTDOWN = "shutdown"    #: daemon is stopping; no further requests

#: Reasons a :data:`REJECT` frame may carry.  ``backpressure`` is the
#: only *transient* one -- the client backs off and retries; everything
#: else is a terminal answer for that request.
REASONS = (
    "group-full",        # admission: the group is at capacity
    "server-full",       # admission: max_groups live groups
    "no-such-group",     # join/leave/arrive against an unknown group
    "group-exists",      # create with a name already taken
    "group-done",        # the group already completed its barriers
    "not-a-member",      # arrive/leave without membership
    "backpressure",      # the group's inbox is full; retry after backoff
    "bad-request",       # schema-valid envelope, invalid verb payload
    "condemned",         # this client was ejected for misbehaviour
    "shutting-down",     # daemon is draining
    "idle",              # seat-less and silent for a lease: hung up on
)

#: Provably-hostile frames from one authenticated client before it is
#: condemned and ejected (mirrors :data:`repro.net.node.STRIKE_LIMIT`).
STRIKE_LIMIT = 3


def request(
    kind: str,
    client: int,
    seq: int,
    incarnation: int,
    rid: int,
    payload: Mapping[str, Any] | None = None,
) -> Message:
    """A client->daemon request envelope with its echoable ``rid``."""
    body = {"rid": rid}
    if payload:
        body.update(payload)
    return Message(
        kind=kind,
        src=client,
        dst=SERVER_ID,
        seq=seq,
        incarnation=incarnation,
        payload=body,
    )


def check_hello(payload: Mapping[str, Any], max_clients: int) -> str | None:
    """Validate a ``hello`` payload; returns a reason or None."""
    version = payload.get("v")
    if version != SERVE_VERSION:
        return f"bad protocol version {version!r}"
    client = payload.get("client")
    if not _is_pid(client) or client == SERVER_ID:
        return f"bad client id {client!r}"
    if client > max_clients:
        return f"client id {client} above server limit {max_clients}"
    return None


def check_round(value: Any) -> bool:
    """True when ``value`` is a well-formed round number."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_group_name(value: Any) -> bool:
    """Group names are short strings -- they label metrics and logs."""
    return isinstance(value, str) and 1 <= len(value) <= 64


def _is_pid(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0
