"""Known-bad fixture: registry entries naming members their class lost.

Linted as a real library file (copied under ``src/repro/``): ``Watchdog``
renamed ``stuck_seen`` and ``OnlineAggregator`` renamed ``step``, but the
lock and epoch contracts still name the old members.
"""

import threading


class Watchdog:
    def __init__(self):
        self._lock = threading.Lock()
        self._active = {}
        self._next_id = 0
        self.stuck_count = 0

    def watch(self, deadline):
        with self._lock:
            self._next_id += 1
            self._active[self._next_id] = deadline
            return self._next_id


class OnlineAggregator:
    def __init__(self):
        self._lock = threading.RLock()
        self.accumulator = []
        self._db_versions = ()
        self.epochs_restarted = 0

    def _sync_epoch(self):
        with self._lock:
            self._db_versions = ()

    def advance(self, size):
        self._sync_epoch()
        with self._lock:
            self.accumulator.append(size)
