"""Numerical-health guards for the training loop.

A single NaN gradient is enough to poison every Adam moment and destroy
a multi-epoch run. :class:`HealthMonitor` sits between ``backward()``
and ``optimizer.step()`` and enforces three policies:

* **global-norm gradient clipping** — rescale all gradients when their
  joint L2 norm exceeds ``max_grad_norm``;
* **non-finite / spike detection** — a NaN/Inf loss, NaN/Inf gradient,
  or a loss above ``spike_factor`` × the running loss mean marks the
  batch as unhealthy; the step is *skipped* (parameters untouched);
* **skip budget** — after ``skip_budget`` skipped batches the monitor
  raises :class:`NumericalHealthError` instead of letting a silently
  broken run burn the rest of its schedule.

If parameters themselves have already gone non-finite (a crash class
the skip policy cannot undo), :meth:`params_healthy` reports it so the
trainer can roll back to its last good checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..nn import Parameter

__all__ = ["NumericalHealthError", "StepVerdict", "HealthMonitor",
           "global_grad_norm", "clip_grad_norm"]


class NumericalHealthError(RuntimeError):
    """Raised when a run exhausts its unhealthy-batch skip budget."""


def global_grad_norm(params: list[Parameter]) -> float:
    """Joint L2 norm over every present gradient (NaN-propagating)."""
    total = 0.0
    # errstate: squaring an Inf/huge gradient must report a non-finite
    # norm, not trip numpy's overflow warning machinery.
    with np.errstate(over="ignore", invalid="ignore"):
        for param in params:
            if param.grad is not None:
                total += float(np.sum(param.grad * param.grad))
        return float(np.sqrt(total))


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global norm is <= ``max_norm``.

    Returns the pre-clip norm. Non-finite norms are left untouched —
    the caller is expected to skip the step entirely.
    """
    norm = global_grad_norm(params)
    if np.isfinite(norm) and max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm


@dataclass
class StepVerdict:
    """Outcome of one health inspection."""

    healthy: bool
    reason: str = ""
    grad_norm: float = 0.0


@dataclass
class HealthMonitor:
    """Stateful batch-health policy for one training run.

    Parameters
    ----------
    max_grad_norm:
        Global-norm clipping threshold (``0`` disables clipping).
    spike_factor:
        A finite loss above ``spike_factor × running-mean`` is treated
        as a divergence spike and skipped (``0`` disables the check).
    skip_budget:
        Unhealthy batches tolerated per run before hard failure.
    warmup_steps:
        Healthy steps observed before spike detection activates (the
        running mean is meaningless on the first few batches).
    on_event:
        Optional ``callable(kind, detail_dict)`` observability hook,
        fired on every guard action: ``"clip"`` (with the pre-clip
        norm), ``"skip"`` (with the reason), ``"rollback"``.  The
        trainer wires this into the telemetry layer; the monitor's
        policy is unaffected by it.
    """

    max_grad_norm: float = 10.0
    spike_factor: float = 25.0
    skip_budget: int = 8
    warmup_steps: int = 5
    skipped: int = 0
    rollbacks: int = 0
    skip_log: list[str] = field(default_factory=list)
    on_event: Callable[[str, dict], None] | None = \
        field(default=None, repr=False, compare=False)
    _loss_mean: float = 0.0
    _loss_count: int = 0

    def _emit(self, kind: str, detail: dict) -> None:
        if self.on_event is not None:
            self.on_event(kind, detail)

    # ------------------------------------------------------------------
    def inspect_step(self, loss: float,
                     params: list[Parameter]) -> StepVerdict:
        """Judge one batch *after* backward, *before* the optimizer step.

        Healthy gradients are clipped in place as a side effect.
        Unhealthy batches consume the skip budget; exhausting it raises
        :class:`NumericalHealthError`.
        """
        if not np.isfinite(loss):
            return self.record_unhealthy(f"non-finite loss ({loss!r})")
        if (self.spike_factor > 0 and self._loss_count >= self.warmup_steps
                and self._loss_mean > 0
                and loss > self.spike_factor * self._loss_mean):
            return self.record_unhealthy(
                f"loss spike ({loss:.4g} > {self.spike_factor:g} x "
                f"running mean {self._loss_mean:.4g})")
        norm = global_grad_norm(params)
        if not np.isfinite(norm):
            return self.record_unhealthy("non-finite gradient")
        if self.max_grad_norm > 0 and norm > self.max_grad_norm:
            scale = self.max_grad_norm / norm
            for param in params:
                if param.grad is not None:
                    param.grad *= scale
            self._emit("clip", {"grad_norm": norm,
                                "clipped_to": self.max_grad_norm})

        self._loss_count += 1
        self._loss_mean += (loss - self._loss_mean) / self._loss_count
        return StepVerdict(healthy=True, grad_norm=norm)

    def record_unhealthy(self, reason: str) -> StepVerdict:
        """Charge one unhealthy event against the skip budget."""
        self.skipped += 1
        self.skip_log.append(reason)
        self._emit("skip", {"reason": reason, "skipped": self.skipped,
                            "budget": self.skip_budget})
        if self.skipped > self.skip_budget:
            raise NumericalHealthError(
                f"skip budget exhausted ({self.skipped} unhealthy batches "
                f"> budget {self.skip_budget}); last reason: {reason}")
        return StepVerdict(healthy=False, reason=reason)

    # ------------------------------------------------------------------
    @staticmethod
    def params_healthy(params: list[Parameter]) -> bool:
        """Whether every parameter is still finite."""
        return all(np.isfinite(param.data).all() for param in params)

    def note_rollback(self) -> None:
        self.rollbacks += 1
        self._emit("rollback", {"rollbacks": self.rollbacks})

    def summary(self) -> str:
        return (f"health: {self.skipped} skipped batch(es), "
                f"{self.rollbacks} rollback(s), "
                f"budget {self.skip_budget}")
