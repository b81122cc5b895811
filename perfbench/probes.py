"""Spans around the public entry points of every ``repro`` layer.

The traced run wraps methods and functions of ``repro`` from the outside
(``setattr`` on the owning class or module) so that no file under ``src/``
changes.  :meth:`Probes.uninstall` restores every original.  Untraced runs
never install the probes, so they pay nothing.

Layers and the calls that open their spans:

* ``training`` — ``Trainer.fit``, one ``SpecReducer.accumulate`` per batch,
  the loss spec's ``draw`` (noise) and ``compute`` (forward), ``Tensor.backward``,
  the optimizer's ``step``/``zero_grad``, and each batch the loader yields;
* ``nn`` — every ``Tensor`` operation and ``functional.layer_norm``.  Ops are
  leaves: an op called inside another op (``__matmul__`` -> ``matmul``, the
  arithmetic inside ``layer_norm``) is part of the outer op's self time;
* ``models`` — ``ImTransformer.forward`` and ``MultiHeadSelfAttention.forward``;
* ``diffusion`` — ``ImputedDiffusion.impute``, its noise pre-draw, and the
  reverse samplers' ``step`` (the transition);
* ``core`` — ``ImDiffusionDetector.score`` and the ensemble vote;
* ``inference`` — ``SerialScoreReducer.window_errors`` and each score task;
* ``serving`` — ``DetectorService.ingest``/``pump``/``drain``/``collect_alarms``
  (the alarm scan), the router, the micro-batcher's ``submit``/``flush``, the
  scorer's batch scoring, merge and ``decide``, and the model registry;
* ``analytics`` — ``AnalyticsEngine.observe_block``, alert-policy updates and
  score-store appends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from typing import Any, Callable, Dict, List, Tuple

from repro.analytics.engine import AnalyticsEngine
from repro.analytics.policy import PolicyMonitor
from repro.analytics.store import ScoreStore
from repro.core.detector import (ImDiffusionDetector,
                                 ImputationLossSpec,
                                 ImputationScoreSpec)
from repro.core.ensemble import EnsembleVoter
from repro.diffusion import samplers
from repro.diffusion.imputation import ImputedDiffusion
from repro.inference.parallel import SerialScoreReducer
from repro.models.imtransformer import ImTransformer
from repro.nn import functional, optim
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.tensor import Tensor, concat, stack
from repro.serving.batcher import MicroBatcher
from repro.serving.registry import ModelRegistry
from repro.serving.router import StreamRouter
from repro.serving.scorer import IncrementalScorer
from repro.serving.service import DetectorService
from repro.training.loader import WindowLoader
from repro.training.parallel import SpecReducer
from repro.training.trainer import Trainer

from .spans import Tracer

__all__ = ["Probes", "TENSOR_SKIP"]

#: Tensor methods that are not operations (bookkeeping, conversion, autograd).
TENSOR_SKIP = frozenset({
    "__init__", "__getstate__", "__setstate__", "__repr__", "_make",
    "_accumulate", "backward", "detach", "inference", "inference_", "item",
    "numpy", "zero_grad",
})


def _op_name(attr: str) -> str:
    name = attr.strip("_")
    if attr.startswith("__r"):
        name = name[1:]  # __radd__ -> add
    return "nn." + name


class Probes:
    """Install (and later remove) every probe on the imported ``repro`` modules."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: List[Tuple[Any, str, Any]] = []
        self._pending: Dict[int, List[float]] = {}  # batcher id -> enqueue times
        self.decide_calls = 0

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name: str, fn: Callable,
                 after: Callable[[tuple, Any], None] = None,
                 before: Callable[[tuple], None] = None) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            finally:
                tracer.end(sid)
            return result

        return wrapper

    def _op(self, name: str, fn: Callable, bytes_moved: bool = False) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.in_leaf:
                return fn(*args, **kwargs)
            tracer.in_leaf = True
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if bytes_moved:
                    # Operands read plus result written, from tensor sizes.
                    tracer.count(name + ".bytes", sum(
                        getattr(getattr(t, "data", t), "nbytes", 0)
                        for t in (*args[:2], result)))
            finally:
                tracer.end(sid)
                tracer.in_leaf = False
            return result

        return wrapper

    def _generator(self, name: str, fn: Callable) -> Callable:
        """Time each ``next()`` of the iterator ``fn`` returns as one span."""
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                sid = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(sid)
                yield item

        return wrapper

    def _wrap_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        self._patch(cls, attr, self._spanned(name, cls.__dict__[attr], **hooks))

    def _wrap_op_function(self, fn: Callable, name: str) -> None:
        """Wrap the op ``fn`` in every ``repro`` module that binds it by name."""
        wrapper = self._op(name, fn)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    # ------------------------------------------------------------------
    # Counting hooks
    # ------------------------------------------------------------------
    def _after_submit(self, args, result) -> None:
        batcher = args[0]
        self._pending.setdefault(id(batcher), []).append(self.tracer.clock())
        self.tracer.sample("serving.queue_depth", batcher.queue_depth)

    def _before_flush(self, args) -> None:
        queued = self._pending.pop(id(args[0]), [])
        if not queued:
            return
        now = self.tracer.clock()
        self.tracer.count("serving.batch.flushes")
        self.tracer.count("serving.batch.windows", len(queued))
        for enqueued in queued:
            self.tracer.sample("serving.batch.wait_s", now - enqueued)

    def _after_decide(self, args, result) -> None:
        self.decide_calls += 1

    def _scan_wrapper(self, fn: Callable) -> Callable:
        inner = self._spanned("serving.alarm_scan", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.decide_calls
            result = inner(*args, **kwargs)
            self.tracer.count("serving.alarm_scans")
            if self.decide_calls != before:
                self.tracer.count("serving.alarm_scans_useful")
            return result

        return wrapper

    def _after_observe(self, args, result) -> None:
        self.tracer.count("analytics.points", len(args[3]))
        self.tracer.count("analytics.events", len(result))

    # ------------------------------------------------------------------
    def install(self) -> "Probes":
        wrap = self._wrap_method
        # training
        wrap(Trainer, "fit", "training.fit")
        wrap(SpecReducer, "accumulate", "training.batch")
        wrap(ImputationLossSpec, "draw", "training.draw")
        wrap(ImputationLossSpec, "compute", "training.forward")
        wrap(Tensor, "backward", "training.backward")
        for cls in vars(optim).values():
            if inspect.isclass(cls) and issubclass(cls, optim.Optimizer):
                for attr in ("step", "zero_grad"):
                    if attr in cls.__dict__:
                        wrap(cls, attr, "training.optimizer")
        self._patch(WindowLoader, "__iter__",
                    self._generator("training.loader", WindowLoader.__iter__))
        # nn
        for attr, fn in list(vars(Tensor).items()):
            if isinstance(fn, types.FunctionType) and attr not in TENSOR_SKIP:
                name = _op_name(attr)
                self._patch(Tensor, attr,
                            self._op(name, fn, bytes_moved=name == "nn.matmul"))
        self._wrap_op_function(functional.layer_norm, "nn.layer_norm")
        self._wrap_op_function(concat, "nn.concat")
        self._wrap_op_function(stack, "nn.stack")
        # models
        wrap(ImTransformer, "forward", "models.imtransformer")
        wrap(MultiHeadSelfAttention, "forward", "models.attention")
        # diffusion
        wrap(ImputedDiffusion, "impute", "diffusion.impute")
        wrap(ImputedDiffusion, "draw_impute_noise", "diffusion.draw_noise")
        for cls in vars(samplers).values():
            if (inspect.isclass(cls) and issubclass(cls, samplers.ReverseSampler)
                    and "step" in cls.__dict__):
                wrap(cls, "step", "diffusion.transition")
        # core
        wrap(ImDiffusionDetector, "score", "core.score")
        wrap(EnsembleVoter, "vote", "core.vote")
        wrap(EnsembleVoter, "single_step_labels", "core.vote")
        # inference
        wrap(SerialScoreReducer, "window_errors", "inference.window_errors")
        wrap(ImputationScoreSpec, "draw", "inference.draw")
        wrap(ImputationScoreSpec, "compute", "inference.task")
        # serving
        wrap(DetectorService, "ingest", "serving.ingest")
        wrap(DetectorService, "pump", "serving.pump")
        wrap(DetectorService, "drain", "serving.drain")
        self._patch(DetectorService, "collect_alarms",
                    self._scan_wrapper(DetectorService.collect_alarms))
        wrap(StreamRouter, "ingest_points", "serving.router")
        wrap(MicroBatcher, "submit", "serving.batch.submit",
             after=self._after_submit)
        wrap(MicroBatcher, "flush", "serving.batch.flush",
             before=self._before_flush)
        wrap(IncrementalScorer, "score_window_batch", "serving.score_batch")
        wrap(IncrementalScorer, "merge", "serving.merge")
        wrap(IncrementalScorer, "score_pending", "serving.score_pending")
        wrap(IncrementalScorer, "decide", "serving.decide",
             after=self._after_decide)
        wrap(ModelRegistry, "save", "serving.registry")
        wrap(ModelRegistry, "load", "serving.registry")
        # analytics
        wrap(AnalyticsEngine, "observe_block", "analytics.observe_block",
             after=self._after_observe)
        wrap(PolicyMonitor, "update", "analytics.policy_update")
        wrap(ScoreStore, "append", "analytics.store_append")
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
