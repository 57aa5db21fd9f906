"""Shared fixtures for the service tests."""

import pytest

from repro.service import DEFAULT_CONFIG_KEY


@pytest.fixture()
def hold_shard():
    """Stall a scheduler's shard: ``release = hold_shard(scheduler)``.

    Holds the shard session's lock, so the runner that takes the shard's
    next batch stalls at the start of its solve and everything submitted
    after that waits in the shard queue behind it.  ``release()`` (called
    from the holding thread) lets the runner go on; teardown releases any
    hold a test left.
    """
    releases = []

    def hold(scheduler, shard=DEFAULT_CONFIG_KEY):
        entry = scheduler.pool.acquire(shard)
        entry.lock.acquire()
        held = [True]

        def release():
            if held[0]:
                held[0] = False
                entry.lock.release()
                scheduler.pool.release(entry)

        releases.append(release)
        return release

    yield hold
    for release in releases:
        release()
