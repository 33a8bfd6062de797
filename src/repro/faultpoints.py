"""Named fault-injection points.

This is the *hook* half of the fault-injection facility: production code
calls :func:`trigger` (or :func:`pipe` when there is a value to corrupt)
at named sites, and :class:`repro.testing.faults.FaultPlan` installs
itself here to make those sites raise, delay, or corrupt.  Keeping the
hooks in this dependency-free module lets every layer participate
(engine, storage, dbapi pool, procedures) without importing the testing
package upward.

Disarmed cost is one module-global load and a ``None`` check, so hooks
are safe on per-statement paths.

Well-known sites:

==========================  ===============================================
site                        fired
==========================  ===============================================
``executor.run``            before a compiled query plan materialises rows
``storage.insert``          once per row an INSERT appends, all before
                            the statement's one heap append (so a fault
                            leaves the heap untouched)
``storage.delete``          once per DELETE that matched rows, before
                            they are claimed
``storage.update``          once per replacement row an UPDATE appends,
                            all before its one heap append
``storage.vacuum``          once per table in a vacuum pass, before
                            that table's dead versions are reclaimed
``mvcc.commit``             between commit-stamp allocation and the WAL
                            commit-marker append (the commit window)
``pool.checkout``           inside :meth:`ConnectionPool.checkout`, before
                            a connection is handed out
``pool.checkin``            when a pooled connection is returned (pipe
                            site: receives the session, may corrupt/kill)
``procedure.invoke``        before an external routine body runs
``wal.append``              before a redo record is framed and written
``wal.write``               pipe site: receives the framed record bytes
                            (corrupting them models a torn write)
``wal.written``             after the OS write, before the record is
                            durable (the classic lost-write window)
``wal.fsync``               just before ``os.fsync`` of the log
``lsm.flush``               before a checkpoint's flush writes anything
``lsm.manifest``            after the flush's run files are written,
                            before the manifest that names them
``lsm.flush.install``       after the manifest is atomically installed,
                            before the log is truncated
``lsm.compact``             before a compaction writes its merged run
``lsm.compact.install``     after a compaction's manifest install,
                            before its victim runs are unlinked
``net.connect``             in the remote driver, before the TCP
                            connection to a ``repro://`` server is dialed
``net.write``               pipe site: receives each outgoing frame's
                            bytes on the client (truncating them models a
                            torn frame; a ``delay`` models a slow peer)
``net.read``                on the client, before a response frame is
                            read off the socket
``net.accept``              on the server, when a new client connection
                            is accepted
``net.respond``             pipe site on the server: receives each
                            response frame's bytes before they are sent
                            (corrupt/truncate to model a mid-response
                            disconnect or garbled reply)
==========================  ===============================================
"""

from __future__ import annotations

import threading
from typing import Any, Optional

__all__ = ["install", "uninstall", "installed", "trigger", "pipe"]

_lock = threading.Lock()
_active: Optional[Any] = None  # duck-typed: has .fire(site, value=None)


def install(plan: Any) -> None:
    """Arm ``plan`` (an object with ``fire(site, value=None)``).

    Only one plan may be armed at a time; installing over an armed plan
    raises to catch tests that forget to clean up.
    """
    global _active
    with _lock:
        if _active is not None and _active is not plan:
            raise RuntimeError(
                "a fault plan is already installed; uninstall it first"
            )
        _active = plan


def uninstall() -> None:
    """Disarm whatever plan is installed (idempotent)."""
    global _active
    with _lock:
        _active = None


def installed() -> Optional[Any]:
    return _active


def trigger(site: str) -> None:
    """Fire ``site``; no-op unless a plan is armed."""
    plan = _active
    if plan is not None:
        plan.fire(site)


def pipe(site: str, value: Any) -> Any:
    """Fire ``site`` with a payload the plan may replace (corruption)."""
    plan = _active
    if plan is not None:
        return plan.fire(site, value)
    return value
