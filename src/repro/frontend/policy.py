"""Fetch policies: which threads predict and fetch each cycle.

The paper's notation ``POLICY.N.X`` means "up to X instructions total
from up to N threads per cycle" (Tullsen et al.).  ``ICOUNT`` prioritises
the threads with the fewest instructions in the pre-issue stages of the
pipeline — balancing queue occupancy and starving threads that clog the
machine; ``RR`` rotates priority blindly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PolicySpec:
    """Parsed ``"ICOUNT.2.8"``-style policy specification.

    Attributes:
        name: ``"ICOUNT"`` or ``"RR"``.
        threads_per_cycle: N — threads fetched simultaneously (1 or 2 in
            the paper).
        width: X — total instructions fetched per cycle.
    """

    name: str
    threads_per_cycle: int
    width: int

    @classmethod
    def parse(cls, spec: str) -> "PolicySpec":
        """Parse ``"ICOUNT.1.16"`` into a :class:`PolicySpec`."""
        parts = spec.strip().upper().split(".")
        if len(parts) != 3:
            raise ValueError(
                f"policy spec must look like 'ICOUNT.2.8', got {spec!r}")
        name, n, x = parts
        if name not in ("ICOUNT", "RR"):
            raise ValueError(f"unknown fetch policy {name!r}")
        try:
            threads, width = int(n), int(x)
        except ValueError:
            threads = width = 0         # not numbers: rejected below
        if threads < 1 or width < 1:
            raise ValueError(f"bad policy parameters in {spec!r}")
        return cls(name, threads, width)

    def __str__(self) -> str:
        return f"{self.name}.{self.threads_per_cycle}.{self.width}"

    def for_threads(self, n_threads: int) -> "PolicySpec":
        """Normalise the spec for a machine with ``n_threads`` contexts.

        A spec requesting more simultaneous threads than the workload
        has (e.g. ``ICOUNT.2.8`` on a single-thread run) is clamped to
        ``n_threads`` with a warning rather than silently simulating
        bank-conflict arbitration that no real fetch could exercise.
        """
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        if self.threads_per_cycle <= n_threads:
            return self
        clamped = replace(self, threads_per_cycle=n_threads)
        warnings.warn(
            f"policy {self} requests {self.threads_per_cycle} threads "
            f"per cycle but the workload has only {n_threads}; "
            f"clamping to {clamped}", stacklevel=2)
        return clamped

    def make(self, n_threads: int) -> "FetchPolicy":
        """Instantiate the policy object for ``n_threads`` contexts."""
        if self.name == "RR":
            return RoundRobin(n_threads)
        return ICount(n_threads)


class FetchPolicy:
    """Interface: order candidate threads by fetch priority.

    ``order`` sorts **in place** and returns the same list: the fetch
    unit calls it twice per cycle on reusable scratch buffers, so the
    hot path never allocates a result list.
    """

    def order(self, cycle: int, candidates: list[int],
              icounts: list[int]) -> list[int]:
        """Sort ``candidates`` best-first for this cycle; returns it."""
        raise NotImplementedError


class RoundRobin(FetchPolicy):
    """Rotate priority across threads each cycle (Tullsen's RR)."""

    def __init__(self, n_threads: int) -> None:
        self.n_threads = n_threads

    def order(self, cycle: int, candidates: list[int],
              icounts: list[int]) -> list[int]:
        n = self.n_threads
        start = cycle % n
        num = len(candidates)
        if num == 2:
            # Two candidates — the overwhelmingly common case — need
            # one comparison, not the sort machinery.
            a, b = candidates
            if (b - start) % n < (a - start) % n:
                candidates[0] = b
                candidates[1] = a
            return candidates
        if num <= 8:
            # Allocation-free insertion sort (no key lambdas/tuples);
            # rotation distances are unique, so order is total.
            for i in range(1, num):
                t = candidates[i]
                rt = (t - start) % n
                j = i - 1
                while j >= 0:
                    u = candidates[j]
                    if (u - start) % n <= rt:
                        break
                    candidates[j + 1] = u
                    j -= 1
                candidates[j + 1] = t
            return candidates
        candidates.sort(key=lambda t: (t - start) % n)
        return candidates


class ICount(FetchPolicy):
    """Prioritise threads with the fewest pre-issue instructions.

    Ties break round-robin so equally-empty threads share the front end
    fairly instead of thread 0 monopolising it.
    """

    def __init__(self, n_threads: int) -> None:
        self.n_threads = n_threads

    def order(self, cycle: int, candidates: list[int],
              icounts: list[int]) -> list[int]:
        n = self.n_threads
        start = cycle % n
        num = len(candidates)
        if num == 2:
            # Two candidates — the overwhelmingly common case — need
            # one comparison, not the sort machinery.
            a, b = candidates
            ca = icounts[a]
            cb = icounts[b]
            if cb < ca or (cb == ca
                           and (b - start) % n < (a - start) % n):
                candidates[0] = b
                candidates[1] = a
            return candidates
        if num <= 8:
            # Allocation-free insertion sort on (icount, rotation)
            # without key lambdas/tuples.  Stable ordering is moot:
            # rotation distances are unique within a cycle.
            for i in range(1, num):
                t = candidates[i]
                ct = icounts[t]
                rt = (t - start) % n
                j = i - 1
                while j >= 0:
                    u = candidates[j]
                    cu = icounts[u]
                    if cu < ct or (cu == ct
                                   and (u - start) % n <= rt):
                        break
                    candidates[j + 1] = u
                    j -= 1
                candidates[j + 1] = t
            return candidates
        candidates.sort(key=lambda t: (icounts[t], (t - start) % n))
        return candidates
