"""The contract of ``repro.engine.locks.ReadWriteLock``, the DDL latch.

Reentry in every granted direction, writer preference, a read→write
request failing at once instead of hanging, mismatched releases, and
blocked acquisitions reaching ``repro_stats.locks``.  Every helper
thread is joined with a timeout, so a regression fails the test
instead of hanging the suite.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.locks import ReadWriteLock

TIMEOUT = 5.0


def _in_thread(target):
    """Run ``target`` in a thread; returns (thread, done event, outcome)."""
    done = threading.Event()
    outcome = []

    def run():
        try:
            outcome.append(target())
        except BaseException as exc:  # noqa: BLE001 - reported below
            outcome.append(exc)
        finally:
            done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, done, outcome


def _join(thread):
    thread.join(TIMEOUT)
    assert not thread.is_alive(), "a lock acquisition hung"


def _wait_until(condition):
    deadline = time.monotonic() + TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _assert_free(lock):
    """Another thread can take ``lock`` exclusively now."""
    thread, _done, outcome = _in_thread(lambda: (
        lock.acquire_write(), lock.release_write()
    ))
    _join(thread)
    assert not isinstance(outcome[0], BaseException), outcome


# ---------------------------------------------------------------------------
# reentry
# ---------------------------------------------------------------------------


def test_write_reenters_write_and_read():
    lock = ReadWriteLock()
    lock.acquire_write()
    lock.acquire_write()
    lock.acquire_read()  # nested read stays exclusive
    assert lock.held_by_me() == "exclusive"
    assert lock.reader_count() == 0
    lock.release_read()
    lock.release_write()
    assert lock.held_by_me() == "exclusive"
    lock.release_write()
    assert lock.held_by_me() is None
    _assert_free(lock)


def test_read_reenters_read():
    lock = ReadWriteLock()
    with lock.read():
        with lock.read():
            assert lock.held_by_me() == "shared"
            assert lock.reader_count() == 1
        assert lock.held_by_me() == "shared"
    assert lock.held_by_me() is None
    assert lock.reader_count() == 0
    _assert_free(lock)


def test_readers_share():
    lock = ReadWriteLock()
    with lock.read():
        thread, done, outcome = _in_thread(
            lambda: (lock.acquire_read(), lock.reader_count(),
                     lock.release_read())[1]
        )
        _join(thread)
        assert outcome == [2]


# ---------------------------------------------------------------------------
# writer preference
# ---------------------------------------------------------------------------


def test_a_waiting_writer_blocks_a_new_reader():
    lock = ReadWriteLock()
    order = []
    lock.acquire_read()

    def write():
        with lock.write():
            order.append("writer")

    def read():
        with lock.read():
            order.append("reader")

    writer, wrote, _ = _in_thread(write)
    _wait_until(lambda: lock._waiting_writers == 1)
    reader, read_done, _ = _in_thread(read)
    # Neither gets in while the first reader holds on: the writer waits
    # for it, the new reader for the writer.
    assert not read_done.wait(0.1)
    assert not wrote.is_set()
    lock.release_read()
    _join(writer)
    _join(reader)
    assert order == ["writer", "reader"]


# ---------------------------------------------------------------------------
# no upgrade, no mismatched release
# ---------------------------------------------------------------------------


def test_read_to_write_raises_at_once():
    lock = ReadWriteLock()

    def upgrade():
        with lock.read():
            with pytest.raises(RuntimeError, match="shared hold"):
                lock.acquire_write()
            return lock.held_by_me()

    thread, _done, outcome = _in_thread(upgrade)
    _join(thread)
    assert outcome == ["shared"]
    assert lock.reader_count() == 0
    _assert_free(lock)


def _upgrade_once(lock):
    with lock.read():
        lock.acquire_write()


def test_read_to_write_raises_with_another_reader_present():
    """The old upgrade waited to be the sole reader; now nothing waits."""
    lock = ReadWriteLock()
    with lock.read():
        thread, _done, outcome = _in_thread(lambda: _upgrade_once(lock))
        _join(thread)
        assert lock.reader_count() == 1
    assert isinstance(outcome[0], RuntimeError)
    _assert_free(lock)


@pytest.mark.parametrize("release", ["release_read", "release_write"])
def test_release_without_a_hold_raises(release):
    lock = ReadWriteLock()
    with pytest.raises(RuntimeError):
        getattr(lock, release)()
    _assert_free(lock)


def test_release_write_under_a_read_hold_raises():
    lock = ReadWriteLock()
    with lock.read():
        with pytest.raises(RuntimeError):
            lock.release_write()
        assert lock.held_by_me() == "shared"
    _assert_free(lock)


def test_release_read_of_another_thread_raises():
    lock = ReadWriteLock()
    with lock.read():
        thread, _done, outcome = _in_thread(lock.release_read)
        _join(thread)
        assert isinstance(outcome[0], RuntimeError)
        assert lock.reader_count() == 1


# ---------------------------------------------------------------------------
# blocked acquisitions are observable
# ---------------------------------------------------------------------------


def test_blocked_acquisitions_show_in_repro_stats_locks(db):
    session = db.create_session(autocommit=True)
    session.execute("create table t (k int)")
    lock = db.lock

    def query():
        db.create_session(autocommit=True).execute("select k from t")

    with lock.write():  # a query queues behind an exclusive hold ...
        reader, _done, outcome = _in_thread(query)
        _wait_until(lambda: lock._cond._waiters)
        time.sleep(0.01)
    _join(reader)
    assert outcome == [None]
    with lock.read():  # ... and an exclusive request behind a shared one
        writer, _done, outcome = _in_thread(
            lambda: (lock.acquire_write(), lock.release_write())
        )
        _wait_until(lambda: lock._waiting_writers == 1)
        time.sleep(0.01)
    _join(writer)
    [row] = session.execute(
        "select shared_waits, exclusive_waits, shared_wait_ms, "
        "exclusive_wait_ms from repro_stats.locks "
        "where statement = '(database)'"
    ).rows
    shared, exclusive, shared_ms, exclusive_ms = row
    assert (shared, exclusive) == (1, 1)
    assert shared_ms >= 10.0 and exclusive_ms >= 10.0
