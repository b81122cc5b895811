"""The one worker protocol: spawn-safe pools on a shared parameter block.

Both data-parallel engines (gradient workers in :mod:`repro.training`,
scoring workers in :mod:`repro.inference`) ship a model replica to spawned
processes; :class:`WorkerPool` is the only place that knows how.  A *worker*
is any picklable object with ``build() -> parameters`` (in the order of the
parent's parameter list) and a pure ``compute(*body)``:

* the pool creates a :class:`~repro.nn.shm.SharedParameterBlock` and
  publishes it before spawning; each worker calls ``build()`` once and
  swaps the result to zero-copy views of the block, and
  :meth:`WorkerPool.publish` refreshes every replica at once,
* work travels as ``(generation, body)`` messages answered with
  ``compute(*body)``; :meth:`WorkerPool.gather` reads every requested reply
  before raising, so a failure never leaves one in flight.  A worker
  exception arrives as its traceback, and a dead worker (``EOFError`` or
  ``OSError`` on its pipe) raises ``RuntimeError("a <name> died mid-call")``,
* :meth:`WorkerPool.close` is idempotent and safe on a half-started pool,
  and every started pool is tracked in a weak set that an ``atexit`` hook
  closes, so an exception, an early ``sys.exit`` or a Ctrl-C never leaks
  worker processes or orphaned shared-memory segments.
"""

from __future__ import annotations

import atexit
import multiprocessing
import traceback
import weakref
from typing import List, Optional, Sequence

from ..nn.shm import SharedParameterBlock, SharedParameterSpec, SharedParameterView

__all__ = ["WorkerPool"]

# Pools whose close() must run even if their owner never reaches its finally
# block.  Weak references: a pool that was garbage-collected needs no call.
_CLEANUP_REGISTRY: "weakref.WeakSet" = weakref.WeakSet()
_ATEXIT_INSTALLED = False


def _close_registered() -> None:  # pragma: no cover - exercised via subprocess
    for resource in list(_CLEANUP_REGISTRY):
        try:
            resource.close()
        except Exception:
            pass


def _register_cleanup(resource) -> None:
    global _ATEXIT_INSTALLED
    if not _ATEXIT_INSTALLED:
        # Registered lazily so importing repro never touches atexit; LIFO
        # ordering runs this hook before multiprocessing's own exit handler,
        # so workers get their shutdown sentinel while pipes are still alive.
        atexit.register(_close_registered)
        _ATEXIT_INSTALLED = True
    _CLEANUP_REGISTRY.add(resource)


def _worker_main(conn, worker, shm_spec: SharedParameterSpec, name: str) -> None:
    """The worker loop: build once, attach, answer ``(generation, body)`` messages.

    Runs in a spawned subprocess.  Start-up failures are remembered and
    re-raised per message, and per-message exceptions ship back as formatted
    tracebacks, so the parent never loses pipe lockstep.
    """
    view: Optional[SharedParameterView] = None
    failure: Optional[str] = None
    try:
        parameters = worker.build()
        view = SharedParameterView(shm_spec)
        view.attach_to(parameters)
    except Exception:  # noqa: BLE001 - reported on the first message
        failure = traceback.format_exc()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died / closed the pipe
            break
        if message is None:
            break
        generation, body = message
        try:
            if failure is not None:
                raise RuntimeError(f"{name} failed to initialise:\n" + failure)
            view.check_generation(generation)
            conn.send(("ok", worker.compute(*body)))
        except Exception:  # noqa: BLE001 - shipped to the parent verbatim
            conn.send(("error", traceback.format_exc()))
    if view is not None:
        view.close()


class WorkerPool:
    """Spawn-started daemon workers serving one picklable ``worker`` object.

    ``parameters`` is the parent's live parameter list; :meth:`start` and
    :meth:`publish` copy its current values into the shared block.  The
    messaging discipline (scatter/gather lockstep, round-robin pipelines)
    belongs to the caller, through :meth:`send` and :meth:`gather`.
    """

    def __init__(self, worker, parameters: Sequence, num_workers: int,
                 name: str = "worker") -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.worker = worker
        self.parameters = list(parameters)
        self.num_workers = int(num_workers)
        self.name = name
        self.generation = 0
        self._block: Optional[SharedParameterBlock] = None
        self._processes: List = []
        self._connections: List = []

    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return bool(self._processes)

    @property
    def size(self) -> int:
        return len(self._connections)

    @property
    def pids(self) -> List[int]:
        """PIDs of the live workers, in worker-index order."""
        return [process.pid for process in self._processes]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Publish the parameters and spawn the workers; idempotent."""
        if self._processes:
            return
        context = multiprocessing.get_context("spawn")  # fork-free by design
        try:
            self._block = SharedParameterBlock(self.parameters)
            self.publish()
            for index in range(self.num_workers):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, self.worker, self._block.spec(), self.name),
                    name=f"{self.name}-{index}", daemon=True)
                process.start()
                child_conn.close()
                self._processes.append(process)
                self._connections.append(parent_conn)
        except Exception:
            # A partial pool must never survive: reap what did spawn so a
            # retry starts from scratch instead of silently running with
            # fewer workers than requested.
            self.close()
            raise
        _register_cleanup(self)

    def publish(self) -> int:
        """Copy the current parameter values to every worker; returns the generation.

        Must only be called while no worker is computing (between a gather
        and the next send).
        """
        self.generation = self._block.publish(self.parameters)
        return self.generation

    def send(self, index: int, body: tuple) -> None:
        """Hand worker ``index`` one ``compute(*body)`` call at the current generation."""
        try:
            self._connections[index].send((self.generation, body))
        except (EOFError, OSError):
            raise self._died() from None

    def gather(self, indices: Sequence[int]) -> list:
        """The ``compute`` results of workers ``indices``, in that order.

        Reads every reply before raising, so a failed call leaves nothing in
        flight on the pipes that are still alive.
        """
        results, errors, died = [], [], False
        for index in indices:
            try:
                status, value = self._connections[index].recv()
            except (EOFError, OSError):
                died = True
                continue
            if status == "error":
                errors.append(value)
            else:
                results.append(value)
        if died:
            raise self._died()
        if errors:
            raise RuntimeError(f"{self.name} failed:\n" + "\n".join(errors))
        return results

    def _died(self) -> RuntimeError:
        return RuntimeError(
            f"a {self.name} died mid-call; the worker object is probably not "
            "spawn-safe (it must be picklable and rng-free in compute()), or "
            "the process was killed")

    def close(self) -> None:
        """Stop the workers and unlink the block; idempotent, safe half-started."""
        connections, self._connections = self._connections, []
        processes, self._processes = self._processes, []
        for conn in connections:
            try:
                conn.send(None)
            except OSError:
                pass
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=1.0)
        for conn in connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        block, self._block = self._block, None
        if block is not None:
            block.close()
        _CLEANUP_REGISTRY.discard(self)
