"""Event-queue implementations for the simulation kernel.

The kernel orders queue entries by the tuple ``(time, priority, sequence)``
— a *total* order, since sequence numbers are unique.  Two structures
implement it:

* the **heap** — a plain ``heapq`` list.  O(log n) per operation with an
  excellent constant for small queues, but at 10⁴–10⁵ pending events
  every sift walks a pointer-chasing path through a cache-hostile array
  and the constant degrades badly (measured ~4µs per push+pop pair at 10⁵
  pending).

* :class:`CalendarQueue` — a bucketed (calendar) queue: entries hash into
  fixed-width time buckets; only the *active* bucket (the one the cursor
  is in) is kept sorted, everything else is an unordered append-only
  list.  Pops from the active bucket are an index increment; advancing to
  the next bucket sorts it once in C.  Push and pop are O(1) amortized
  for the dense queues big simulations build (measured ~0.9µs per pair at
  10⁵ pending — 4–5x the heap).

Both produce the exact same pop order for the same pushed entries — a
property test drives randomized schedules (including timestamp ties)
through both and asserts entry-for-entry identity.  The kernel runs the
heap below :data:`PROMOTE_THRESHOLD` pending entries (micro-benchmarks
and unit tests never leave it) and migrates to a :class:`CalendarQueue`
when the queue grows past it; migration is order-transparent because both
structures realize the same total order.  Which one a run is on is the
kernel's choice, made from the queue size it observes; there is no option.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from typing import List, Tuple

__all__ = ["CalendarQueue", "PROMOTE_THRESHOLD", "DEFAULT_BUCKET_WIDTH"]

#: Entry shape shared with the kernel: (time, priority, sequence, event).
Entry = Tuple[float, int, int, object]

#: Heap size at which the kernel migrates to a CalendarQueue.  Below this
#: the C-implemented heap wins on constant factors; above it the heap's
#: cache behaviour degrades while the calendar stays flat.
PROMOTE_THRESHOLD = 4096

#: Bucket width in simulated time units.  Message latencies in this
#: codebase are O(1–100) units and request timeouts O(10³), so unit-width
#: buckets keep occupancy in the fast append/sort regime across shapes.
#: The queue re-tunes this itself when occupancy drifts (see ``_rebuild``).
DEFAULT_BUCKET_WIDTH = 1.0

#: Average entries-per-bucket the adaptive rebuild aims for.  Small enough
#: that an ``insort`` into the active bucket is a trivial memmove, large
#: enough that per-bucket bookkeeping (key heap, dict, sort) amortizes.
_TARGET_OCCUPANCY = 64

#: An active bucket larger than this triggers a geometry rebuild (too
#: coarse: insort cost grows with bucket size).
_SPLIT_LIMIT = 4096

#: Below this many pending entries geometry never rebuilds — the kernel
#: only uses the calendar above PROMOTE_THRESHOLD anyway, and tiny queues
#: are insensitive to width.
_REBUILD_MIN = 8192


class CalendarQueue:
    """Bucketed event queue with the same total order as the heap.

    Entries land in bucket ``int(time / width)``.  The bucket the cursor
    currently occupies (the *active* bucket) is sorted ascending and
    consumed through an index pointer — no ``list.pop(0)`` shifting.
    Entries pushed *into* the active bucket (same-bucket wakeups) are
    placed by ``bisect.insort`` over the unconsumed tail; entries for
    future buckets are plain ``list.append``.  Advancing pops the
    smallest key from a key-heap and sorts that bucket once.

    Correctness of the monotone cursor: scheduled times never precede the
    kernel clock, and the clock never precedes the active bucket, so a
    new entry's bucket key is always >= the active key — nothing can land
    *behind* the cursor.
    """

    __slots__ = (
        "_inv",
        "_buckets",
        "_keys",
        "_active",
        "_ai",
        "_akey",
        "_len",
        "_stamp",
        "_frozen",
    )

    def __init__(self, width: float = DEFAULT_BUCKET_WIDTH) -> None:
        self._inv = 1.0 / width
        self._buckets: dict = {}
        self._keys: List[int] = []
        self._active: List[Entry] = []
        self._ai = 0  # index of the next unconsumed entry in _active
        self._akey = -1
        self._len = 0
        #: queue size at the last geometry-rebuild attempt; rebuilds are
        #: reconsidered only after the size halves or doubles, so a failed
        #: attempt (all-tie bucket, stable width) is not retried per advance.
        self._stamp = 0
        #: True while a rebuild refills the buckets (its pushes must not
        #: recursively trigger another rebuild).
        self._frozen = False

    @classmethod
    def from_heap(cls, entries: List[Entry], width: float = DEFAULT_BUCKET_WIDTH) -> "CalendarQueue":
        """Migrate a heap's entries (any order) into a fresh calendar."""
        queue = cls(width)
        push = queue.push
        for entry in entries:
            push(entry)
        return queue

    def push(self, entry: Entry) -> None:
        """Insert an entry, keeping total-order pop semantics."""
        key = int(entry[0] * self._inv)
        if key <= self._akey:
            # Same-bucket (or, defensively, behind-cursor) wakeup: place it
            # in sorted position within the unconsumed tail.
            insort(self._active, entry, self._ai)
            self._len += 1
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [entry]
                heappush(self._keys, key)
                self._len += 1
            else:
                bucket.append(entry)
                self._len += 1
                if len(bucket) > _SPLIT_LIMIT:
                    self._push_rebuild()

    def pop(self) -> Entry:
        """Remove and return the least entry (time, priority, sequence)."""
        active = self._active
        ai = self._ai
        if ai >= len(active):
            active = self._advance()
            ai = 0
        self._ai = ai + 1
        self._len -= 1
        return active[ai]

    def peek_time(self) -> float:
        """Timestamp of the least entry without removing it.

        Advances (and sorts) the active bucket if it is exhausted — pure
        bookkeeping, invisible to pop order.
        """
        active = self._active
        ai = self._ai
        if ai >= len(active):
            active = self._advance()
            ai = 0
        return active[ai][0]

    def _advance(self) -> List[Entry]:
        """Make the next nonempty bucket active (sorted), re-tuning geometry
        when occupancy has drifted out of the fast regime.

        Geometry rebuilds change only *where* entries sit, never their
        relative order, so pop order is untouched.
        """
        while True:
            key = heappop(self._keys)  # IndexError on empty == contract
            active = self._buckets.pop(key)
            if (
                self._len > _REBUILD_MIN
                and not (self._stamp // 2 <= self._len <= self._stamp * 2)
                and (
                    # too coarse: mid-bucket insorts memmove huge tails
                    len(active) > _SPLIT_LIMIT
                    # too fine: nearly every entry owns a bucket, so every
                    # advance pays full bucket bookkeeping for ~1 entry
                    or len(self._buckets) * 4 > self._len
                )
                and self._rebuild(active)
            ):
                continue
            active.sort()
            self._active = active
            self._ai = 0
            self._akey = key
            return active

    def _push_rebuild(self) -> None:
        """Push-side geometry check: a bucket outgrew the split limit.

        Catches setup-heavy growth (many pushes before the first pop) that
        the advance-side check would only see at its first — then huge —
        rebuild.  Same stamp hysteresis as :meth:`_advance`.
        """
        if (
            not self._frozen
            and self._len > _REBUILD_MIN
            and not (self._stamp // 2 <= self._len <= self._stamp * 2)
        ):
            self._rebuild([])

    def _rebuild(self, orphan: List[Entry]) -> bool:
        """Re-bucket everything at a width targeting ``_TARGET_OCCUPANCY``.

        ``orphan`` is the bucket the caller just popped; on success it is
        re-bucketed with everything else.  Returns False (changing nothing)
        when the entries give no usable span (all-tie timestamps) or the
        computed width is within 2x of the current one — hysteresis so
        skewed distributions don't thrash.
        """
        self._stamp = self._len
        entries = list(orphan)
        entries.extend(self._active[self._ai:])
        for bucket in self._buckets.values():
            entries.extend(bucket)
        if not entries:
            return False
        lo = min(entry[0] for entry in entries)
        hi = max(entry[0] for entry in entries)
        span = hi - lo
        if span <= 0.0:
            return False
        width = max(span * _TARGET_OCCUPANCY / len(entries), 1e-9)
        current = 1.0 / self._inv
        if 0.5 * current <= width <= 2.0 * current:
            return False
        self._inv = 1.0 / width
        self._buckets = {}
        self._keys = []
        self._active = []
        self._ai = 0
        self._akey = -1
        self._len = 0
        self._frozen = True
        try:
            push = self.push
            for entry in entries:
                push(entry)
        finally:
            self._frozen = False
        return True

    def heap_entries(self) -> List[Entry]:
        """All pending entries as a fresh heapified list (for inspection)."""
        entries = list(self._active[self._ai:])
        for bucket in self._buckets.values():
            entries.extend(bucket)
        heapify(entries)
        return entries

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0
