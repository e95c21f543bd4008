"""Two names the benchmark still reads; no library code calls them.

The library runs on the calling thread. ``perfbench/run.py`` stamps
``thread_count()`` into its results and ``perfbench/spans.py`` wraps
``parallel_map`` in ``infoot.pipelines`` and ``infoot.projection``, so both
stay until the benchmark stops reading them; then this module goes.
"""

from __future__ import annotations

from typing import Callable, Iterable


def thread_count() -> int:
    """Threads the library starts of its own: the calling one."""
    return 1


def parallel_map(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]``."""
    return [fn(item) for item in items]
