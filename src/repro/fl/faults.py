"""Deterministic fault injection and fault-tolerance policies for FL rounds.

Production FL fleets lose clients constantly — crashes, stragglers, poisoned
updates, dead workers — and the sync loop historically treated any of them as
fatal.  This module supplies the two halves of surviving them *replayably*:

* :class:`FaultPlan` — a seeded chaos schedule.  Whether a given
  ``(round, client, attempt)`` job crashes, hangs, returns a NaN/Inf-poisoned
  or wrong-shape update, or kills its worker process mid-task is a pure
  function of ``plan.seed`` drawn from named RNG streams (the
  ``event_rng`` discipline of :mod:`repro.fl.async_sim.events`; the fault
  stream tags share that module's collision-checked namespace).  Two runs
  with the same plan produce bit-identical failure schedules on every
  execution backend.
* :class:`FaultPolicy` — how the server responds: per-client wall-clock
  timeouts, bounded retries with seeded backoff, update sanitization at the
  aggregation boundary, and quorum-based graceful degradation (aggregate over
  the survivors when at least ``min_clients`` succeed, else raise a
  structured :class:`~repro.fl.errors.RoundFailedError`).

Determinism contract: a retried client re-derives the *same* RNG stream as a
first-try client (``derive_client_seed`` does not see the attempt number), so
retry-then-succeed is bit-identical to never-failed; and a quorum-degraded
round reduces the survivors in selection order, so its aggregate is
bitwise-equal to a round that selected only the survivors.

This module sits below :mod:`repro.fl.config` (which embeds the two
dataclasses) and imports nothing from the execution/simulation layers — the
orchestrator :func:`run_tolerant_round` receives the executor as an argument.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ClientFailure, ExecutorError, RoundFailedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..data.partition import ClientSpec
    from .execution import ClientExecutor, ModelFactory, Outcome
    from .strategies.base import FLContext, Strategy
    from .training import ClientResult

__all__ = [
    "FAULT_KINDS",
    "FAULT_STREAMS",
    "FaultPlan",
    "FaultPolicy",
    "RoundFaultReport",
    "fault_rng",
    "sanitize_result",
    "run_tolerant_round",
]

# The injectable fault kinds, in the order the cumulative injection draw
# consumes their rates (frozen: reordering would reshuffle every existing
# chaos schedule).
FAULT_KINDS = ("crash", "hang", "nan", "shape", "kill")

# Named RNG stream tags for the fault layer.  They live in the same
# collision-checked namespace as the async simulator's event streams (tags
# 1-5 in repro.fl.async_sim.events, which merges this dict in at import and
# refuses overlaps), so fault draws can never alias latency/availability/
# dispatch draws at the same seed.
FAULT_STREAMS = {
    "inject": 16,   # which fault (if any) hits a (round, client, attempt) job
    "backoff": 17,  # seeded retry-backoff jitter per (round, wave)
}


def fault_rng(seed: int, stream: str, *indices: int) -> np.random.Generator:
    """A fresh generator on a named fault stream (see ``event_rng``).

    Seeded only by ``(stream tag, plan seed, indices)`` — never by wall
    clock, backend, or worker identity — so every fault decision is
    replayable bit-for-bit.
    """
    return np.random.default_rng([FAULT_STREAMS[stream], seed, *indices])


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic chaos schedule for client jobs.

    Each rate is the marginal probability that the corresponding fault hits
    one ``(round, client, attempt)`` job; the rates must sum to at most 1
    because one uniform draw per job decides among them cumulatively.

    ``first_attempt_only=True`` restricts injection to attempt 0, which makes
    every fault recoverable by a single retry — the usual setting for
    retry-determinism tests; ``False`` re-draws on every attempt, so retried
    jobs can fail again (with fresh, still-deterministic draws).
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    nan_rate: float = 0.0
    shape_rate: float = 0.0
    kill_rate: float = 0.0
    hang_seconds: float = 0.05
    first_attempt_only: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        total = 0.0
        for kind in FAULT_KINDS:
            rate = getattr(self, f"{kind}_rate")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")
            total += rate
        if total > 1.0 + 1e-12:
            raise ValueError(
                f"fault rates must sum to at most 1 (one draw decides among "
                f"them), got {total}")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")
        if not isinstance(self.first_attempt_only, bool):
            raise ValueError("first_attempt_only must be a bool")

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire (all-zero plans are free)."""
        return any(getattr(self, f"{kind}_rate") > 0.0 for kind in FAULT_KINDS)

    def decide(self, round_index: int, client_id: int,
               attempt: int = 0) -> Optional[str]:
        """The fault (if any) injected into one job — a pure function.

        Depends only on ``(plan.seed, round_index, client_id, attempt)``: the
        same job draws the same fault on every backend, in every run, no
        matter what ran before it.
        """
        if not self.active:
            return None
        if self.first_attempt_only and attempt > 0:
            return None
        draw = float(fault_rng(self.seed, "inject", round_index, client_id,
                               attempt).random())
        edge = 0.0
        for kind in FAULT_KINDS:
            edge += getattr(self, f"{kind}_rate")
            if draw < edge:
                return kind
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (inverse of constructing from a dict)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class FaultPolicy:
    """How the server responds to client/worker failures in a round.

    Parameters
    ----------
    max_retries:
        Failed client jobs are retried up to this many times (in later
        *waves*, so one flaky client never blocks its round-mates).  A
        retried client is bit-identical to a first-try client: its RNG
        stream derives from ``(seed, round, client)`` only.
    backoff_seconds:
        Upper bound of the seeded jitter slept between retry waves (actual
        delay is uniform in ``[backoff/2, backoff]``, drawn from the
        ``"backoff"`` fault stream).  Wall-clock only — never observable in
        results.
    client_timeout:
        Per-client wall-clock deadline in seconds (``None`` disables).
        Injected hangs are judged *deterministically* — the configured
        ``hang_seconds`` is compared against this deadline, and the sleep is
        capped at the deadline — so chaos runs stay replayable; a genuine
        straggler is judged post-hoc by measured wall time, which is
        inherently machine-dependent (determinism holds provided no healthy
        client actually exceeds the deadline).
    min_clients:
        The quorum: a round degrades gracefully — aggregating over the
        survivors, bitwise-equal to a survivors-only round — while at least
        this many clients succeed, and raises
        :class:`~repro.fl.errors.RoundFailedError` otherwise.
    sanitize:
        Reject non-finite or out-of-layout client updates at the aggregation
        boundary (counted as per-client failures, retried under the policy)
        instead of letting them poison the server model.
    """

    max_retries: int = 1
    backoff_seconds: float = 0.0
    client_timeout: Optional[float] = None
    min_clients: int = 1
    sanitize: bool = True

    def __post_init__(self) -> None:
        if (isinstance(self.max_retries, bool)
                or not isinstance(self.max_retries, int)
                or self.max_retries < 0):
            raise ValueError(
                f"max_retries must be a non-negative integer, got "
                f"{self.max_retries!r}")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.client_timeout is not None and not self.client_timeout > 0:
            raise ValueError("client_timeout must be positive or None")
        if (isinstance(self.min_clients, bool)
                or not isinstance(self.min_clients, int)
                or self.min_clients < 1):
            raise ValueError(
                f"min_clients must be a positive integer, got "
                f"{self.min_clients!r}")
        if not isinstance(self.sanitize, bool):
            raise ValueError("sanitize must be a bool")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering (inverse of constructing from a dict)."""
        return dataclasses.asdict(self)


def sanitize_result(result: "ClientResult", global_vec: np.ndarray) -> Optional[str]:
    """Validate one client update against the broadcast vector; reason or ``None``.

    The aggregation boundary's defense: a single NaN/Inf element or a
    wrong-length update from one client would silently poison the
    aggregated global model (NaN absorbs every weighted sum it touches).
    Returns a human-readable rejection reason, or ``None`` for a clean
    update.
    """
    vector = result.vector
    if vector is None:
        return None  # already folded into a streaming accumulator
    if vector.shape != global_vec.shape:
        return (f"weights of shape {vector.shape} do not fit the broadcast's "
                f"{global_vec.shape}")
    # A float64 sum propagates every NaN/Inf without materialising the bool
    # mask np.isfinite(vector) would.
    if not math.isfinite(vector.sum(dtype=np.float64)):
        return "non-finite values in the weights"
    if not (math.isfinite(result.train_loss)
            and (result.init_loss is None or math.isfinite(result.init_loss))):
        return (f"non-finite reported losses (train={result.train_loss}, "
                f"init={result.init_loss})")
    return None


@dataclass
class RoundFaultReport:
    """What a fault-tolerant round survived, for records and telemetry."""

    num_failures: int = 0                 # failed attempts (all causes)
    num_retries: int = 0                  # attempts beyond each job's first
    dropped_clients: List[int] = dataclasses.field(default_factory=list)
    failure_kinds: Dict[str, int] = dataclasses.field(default_factory=dict)
    # Last failure message per failed client id (diagnostics, not persisted).
    messages: Dict[int, str] = dataclasses.field(default_factory=dict)

    @property
    def any_faults(self) -> bool:
        return self.num_failures > 0


def run_tolerant_round(
    executor: "ClientExecutor",
    strategy: "Strategy",
    model_fn: "ModelFactory",
    selected: Sequence["ClientSpec"],
    global_vec: np.ndarray,
    context: "FLContext",
    policy: Optional[FaultPolicy] = None,
) -> Tuple[List["ClientSpec"], Iterable["ClientResult"], Optional[RoundFaultReport]]:
    """Run one round's client jobs; return ``(cohort, results, report)``.

    ``results`` are the cohort's client results in selection order — the
    order ``Strategy.aggregate_stream`` requires.

    Without a policy the round is fail-fast: the cohort is the selection,
    ``results`` streams the executor's outcomes straight through, and the
    first :class:`~repro.fl.errors.ExecutorError` (in selection order) is
    raised, closing the executor's generator so no later client keeps
    training.  ``report`` is ``None``.

    Under a policy, jobs run in *waves*: the full selection first, then one
    retry wave per remaining attempt containing only the failed jobs.
    Failures are collected and retried (after sanitization, when enabled)
    up to the policy's budget; the cohort is the survivors, so aggregating
    it is bitwise-equal to a round that selected only the survivors.  Raises
    :class:`~repro.fl.errors.RoundFailedError` when fewer than
    ``policy.min_clients`` survive every retry.
    """
    selected = list(selected)
    if policy is None:
        outcomes = executor.iter_round(strategy, model_fn,
                                       [(spec, 0) for spec in selected],
                                       global_vec, context)
        return selected, _raise_first_error(outcomes), None

    from .training import ClientResult  # runtime import: cycle-free leaf

    plan = context.config.faults
    backoff_seed = plan.seed if plan is not None else context.config.seed
    results_by_pos: Dict[int, "ClientResult"] = {}
    report = RoundFaultReport()
    wave: List[Tuple[int, int]] = [(pos, 0) for pos in range(len(selected))]
    wave_index = 0
    while wave:
        jobs = [(selected[pos], attempt) for pos, attempt in wave]
        retry: List[Tuple[int, int]] = []
        with closing(executor.iter_round(strategy, model_fn, jobs,
                                         global_vec, context)) as outcomes:
            for (pos, attempt), outcome in zip(wave, outcomes, strict=True):
                spec = selected[pos]
                if isinstance(outcome, ClientResult):
                    reason = (sanitize_result(outcome, global_vec)
                              if policy.sanitize else None)
                    if reason is None:
                        results_by_pos[pos] = outcome
                        continue
                    outcome = ClientFailure(
                        f"client {spec.client_id} update rejected on attempt "
                        f"{attempt} of round {context.round_index}: {reason}",
                        client_id=spec.client_id,
                        round_index=context.round_index,
                        attempt=attempt, kind="sanitize")
                report.num_failures += 1
                report.failure_kinds[outcome.kind] = (
                    report.failure_kinds.get(outcome.kind, 0) + 1)
                report.messages[spec.client_id] = str(outcome)
                if attempt < policy.max_retries:
                    retry.append((pos, attempt + 1))
                    report.num_retries += 1
        wave = retry
        wave_index += 1
        if wave and policy.backoff_seconds > 0:
            jitter = float(fault_rng(backoff_seed, "backoff",
                                     context.round_index, wave_index).random())
            time.sleep(policy.backoff_seconds * (0.5 + 0.5 * jitter))
    report.dropped_clients = [selected[pos].client_id
                              for pos in range(len(selected))
                              if pos not in results_by_pos]
    if len(results_by_pos) < policy.min_clients:
        raise RoundFailedError(
            f"round {context.round_index} lost its quorum: only "
            f"{len(results_by_pos)} of {len(selected)} clients succeeded "
            f"(min_clients={policy.min_clients}); last failures: "
            + "; ".join(f"client {cid}: {msg}"
                        for cid, msg in sorted(report.messages.items())),
            round_index=context.round_index, num_ok=len(results_by_pos),
            num_selected=len(selected), min_clients=policy.min_clients,
            failures=report.messages)
    survivor_pos = sorted(results_by_pos)
    survivors = [selected[pos] for pos in survivor_pos]
    results = [results_by_pos[pos] for pos in survivor_pos]
    return survivors, results, report


def _raise_first_error(outcomes: Iterator["Outcome"]) -> Iterator["ClientResult"]:
    """Pass results through; raise the first failure and stop the executor."""
    with closing(outcomes):
        for outcome in outcomes:
            if isinstance(outcome, ExecutorError):
                raise outcome
            yield outcome
