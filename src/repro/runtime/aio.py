"""AsyncioRuntime: real clock; blocking work offloaded to a bounded
thread pool and awaited from the event loop.

The bouquet pipeline is CPU-bound synchronous Python (numpy kernels,
DP enumeration, instrumented execution), so the asyncio front-end never
runs it on the loop thread: handlers stay responsive by awaiting
:meth:`AsyncioRuntime.arun`, which bridges ``loop.run_in_executor`` over
the runtime's own bounded :class:`~concurrent.futures.ThreadPoolExecutor`.
Backpressure is enforced *before* work reaches the pool (admission
control in the gateway), so the executor queue cannot grow silently.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from ..exceptions import ReproError
from .base import Runtime


class AsyncioRuntime(Runtime):
    """Production runtime: asyncio event loop + bounded worker pool."""

    name = "asyncio"

    def __init__(self, max_workers: int = 8):
        if max_workers < 1:
            raise ReproError("asyncio runtime needs at least one worker")
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="bouquet-serve"
        )

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Blocking sleep — only sensible off the loop thread; coroutine
        code should ``await asleep`` instead."""
        if seconds > 0:
            time.sleep(seconds)

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        return self._pool.submit(fn, *args, **kwargs)

    async def arun(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Await ``fn(*args, **kwargs)`` executed on the worker pool, in a
        copy of the caller's context (as :func:`asyncio.to_thread` does),
        so its trace spans nest under the caller's."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool,
            functools.partial(contextvars.copy_context().run, fn, *args, **kwargs),
        )

    async def asleep(self, seconds: float) -> None:
        await asyncio.sleep(max(seconds, 0.0))

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
