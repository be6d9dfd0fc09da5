"""Request batching: admission control that coalesces compatible queries.

A similarity kernel answering one query row wastes most of its work —
the engine materializations, bound stacks and GEMM blocks are all batch
structures.  The batcher exploits that: queued requests that would
execute *identically* (same collection, same technique key, same
decision parameters) are coalesced into one planner ``(M, N)`` matrix
execution, then the per-query rows are scattered back to their
requests.  Nothing waits on a timer: a batch key with nothing executing
dispatches on the next event-loop tick, and requests that arrive while
its batch executes coalesce into the batch that starts when it
finishes (at most :data:`MAX_BATCH` jobs).

The module is split so the semantics are testable without a daemon:

* a **pure core** — :func:`batch_key` (what may coalesce),
  :func:`merge_requests` (stack the query rows + per-query ε) and
  :func:`scatter_rows` (slice a batch result back per request) — that
  works on any :class:`~repro.queries.session.SimilaritySession`;
* an **asyncio queue** — :class:`BatchQueue` — that owns the waiting
  jobs and their futures; the daemon supplies the dispatch coroutine
  (which runs the merged kernel in its thread pool).

Coalescing never changes results: the planner's matrix kernels are
row-independent (per-query ε vectors, row-wise kNN merges, per-row
adaptive Monte Carlo decisions), so a batched row is bit-identical to
the same query executed alone — tests assert exactly that for every
technique family.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..queries.knn import local_topk_rows
from ..queries.planner import PlanPolicy
from ..queries.session import (
    KnnResult,
    QuerySet,
    RangeResult,
    SimilaritySession,
)
from ..queries.techniques import Technique
from .registry import batch_key  # noqa: F401  (canonical home; re-exported)

#: Most jobs one batch takes; a longer backlog runs as consecutive batches.
MAX_BATCH = 32


def _batch_policy(jobs: Sequence[QueryJob]) -> Optional[PlanPolicy]:
    """The batch's plan policy, decoded from the jobs' wire params.

    The policy payload is part of :func:`batch_key`, so every job of a
    coalesced batch carries the same one — the first job speaks for the
    batch (exactly like ``k`` and ``tau``).
    """
    payload = jobs[0].params.get("policy")
    if payload is None:
        return None
    return PlanPolicy.from_wire(payload)


@dataclass
class QueryJob:
    """One admitted query request, ready to coalesce.

    ``items`` are the query series objects and ``positions`` their
    **global** collection positions (``-1`` for non-member raw-value
    queries), as :class:`~repro.queries.session.QuerySet` expects.
    ``params`` holds the op parameters (``k`` / ``epsilon`` / ``tau``);
    ``candidates`` scopes the job to a column slice of the collection
    (the cluster scatter unit — part of the batch key, so every job of
    a batch shares one slice); ``enqueued`` is the admission timestamp
    the occupancy report is computed from.
    """

    request_id: str
    op: str
    items: Sequence
    positions: np.ndarray
    params: Dict[str, Any]
    candidates: Optional[Tuple[int, int]] = None
    enqueued: float = field(default_factory=time.monotonic)

    @property
    def n_queries(self) -> int:
        return len(self.items)


def merge_requests(
    jobs: Sequence[QueryJob],
) -> Tuple[List, np.ndarray, Optional[np.ndarray], List[slice]]:
    """Stack the jobs' query rows into one workload.

    Returns ``(items, positions, epsilons, slices)`` — the concatenated
    query series, their collection positions, the per-query ε vector
    (``None`` for kNN jobs, which carry no ε), and each job's row slice
    of the merged workload (for :func:`scatter_rows`).
    """
    if not jobs:
        raise InvalidParameterError("cannot merge an empty batch")
    items: List = []
    positions: List[np.ndarray] = []
    epsilons: List[np.ndarray] = []
    slices: List[slice] = []
    offset = 0
    for job in jobs:
        rows = job.n_queries
        items.extend(job.items)
        positions.append(np.asarray(job.positions, dtype=np.intp))
        if "epsilon" in job.params:
            epsilon = np.asarray(job.params["epsilon"], dtype=np.float64)
            if epsilon.ndim == 0:
                epsilon = np.full(rows, float(epsilon))
            elif epsilon.shape != (rows,):
                raise InvalidParameterError(
                    f"request {job.request_id!r}: epsilon has shape "
                    f"{epsilon.shape}, expected scalar or ({rows},)"
                )
            epsilons.append(epsilon)
        slices.append(slice(offset, offset + rows))
        offset += rows
    if epsilons and len(epsilons) != len(jobs):
        raise InvalidParameterError(
            "either every request of a batch carries epsilon or none does"
        )
    merged_epsilon = np.concatenate(epsilons) if epsilons else None
    return items, np.concatenate(positions), merged_epsilon, slices


def execute_batch(
    session: SimilaritySession,
    technique: Technique,
    op: str,
    jobs: Sequence[QueryJob],
):
    """Run one coalesced batch through the session's planner kernels.

    Returns the batch-level result object
    (:class:`~repro.queries.session.KnnResult` /
    :class:`~repro.queries.session.RangeResult`) together with the
    per-job row slices for :func:`scatter_rows`.
    """
    items, positions, epsilon, slices = merge_requests(jobs)
    query_set = QuerySet(
        session, items, positions, technique, policy=_batch_policy(jobs)
    )
    if op == "knn":
        result = query_set.knn(int(jobs[0].params["k"]))
    elif op == "range":
        result = query_set.range(epsilon)
    elif op == "prob_range":
        result = query_set.prob_range(epsilon, float(jobs[0].params["tau"]))
    else:
        raise InvalidParameterError(f"op {op!r} is not batchable")
    return result, slices


def execute_shard_batch(
    session: SimilaritySession,
    technique: Technique,
    op: str,
    jobs: Sequence[QueryJob],
    col_offset: int,
):
    """Run one coalesced batch against a column-shard session.

    ``session`` holds only the collection columns ``[col_offset,
    col_offset + width)``; the jobs' positions stay global.  This is the
    shard half of the cluster's sharding: a coordinator merging the
    shard replies with :func:`~repro.queries.knn.merge_knn_rows`'s
    stable-by-index rule reproduces the single-host answer bit for
    bit:

    * **knn** returns the shard's per-row local top-``k`` (global
      indices, ``-1`` / ``+inf`` padded when the shard is narrower than
      ``k``) — :func:`scatter_rows` drops the padding before the wire;
    * **range** / **prob_range** return match sets offset back to
      global indices (ascending within the shard, so shard-ordered
      concatenation stays globally sorted).
    """
    items, positions, epsilon, slices = merge_requests(jobs)
    width = len(session.collection)
    local = np.where(
        (positions >= col_offset) & (positions < col_offset + width),
        positions - col_offset,
        -1,
    ).astype(np.intp)
    query_set = QuerySet(
        session, items, local, technique, policy=_batch_policy(jobs)
    )
    if op == "knn":
        k = int(jobs[0].params["k"])
        values, elapsed, stats = query_set._run_matrix("distance", knn_k=k)
        indices, scores = local_topk_rows(values, k, local, col_offset)
        result = KnnResult(
            technique_name=technique.name,
            indices=indices,
            scores=scores,
            query_positions=positions,
            elapsed_seconds=elapsed,
            pruning_stats=stats,
        )
    elif op == "range":
        shard = query_set.range(epsilon)
        result = replace(
            shard,
            matches=tuple(
                np.asarray(found, dtype=np.intp) + col_offset
                for found in shard.matches
            ),
            query_positions=positions,
        )
    elif op == "prob_range":
        shard = query_set.prob_range(epsilon, float(jobs[0].params["tau"]))
        result = replace(
            shard,
            matches=tuple(
                np.asarray(found, dtype=np.intp) + col_offset
                for found in shard.matches
            ),
            query_positions=positions,
        )
    else:
        raise InvalidParameterError(f"op {op!r} is not batchable")
    return result, slices


def scatter_rows(result, job_slice: slice):
    """One job's share of a batch result.

    Slices row-wise structures only — scores, rankings, match sets,
    ε vectors; batch-level metadata (timings, pruning stats) is shared
    by every member and reported separately.  kNN rows from a
    column-shard execution may be ``-1`` / ``+inf`` padded (the shard
    was narrower than ``k``); padding is dropped here — the wire
    encoder forbids non-finite JSON, so ragged rows carry only real
    candidates.
    """
    if isinstance(result, KnnResult):
        indices = result.indices[job_slice]
        scores = result.scores[job_slice]
        if indices.size and indices.min() < 0:
            return {
                "indices": [
                    row[row >= 0].tolist() for row in indices
                ],
                "scores": [
                    score_row[row >= 0].tolist()
                    for row, score_row in zip(indices, scores)
                ],
            }
        return {
            "indices": indices.tolist(),
            "scores": scores.tolist(),
        }
    if isinstance(result, RangeResult):
        payload = {
            "matches": [
                [int(i) for i in found]
                for found in result.matches[job_slice]
            ],
            "epsilons": result.epsilons[job_slice].tolist(),
        }
        if result.tau is not None:
            payload["tau"] = result.tau
        return payload
    raise InvalidParameterError(
        f"cannot scatter result of type {type(result).__name__}"
    )


# ---------------------------------------------------------------------------
# The asyncio admission queue
# ---------------------------------------------------------------------------


@dataclass
class BatchInfo:
    """Occupancy report for one dispatched batch (attached per response)."""

    size: int
    n_queries: int
    waited_ms: float

    def payload(self) -> Dict[str, Any]:
        return {
            "size": self.size,
            "n_queries": self.n_queries,
            "waited_ms": round(self.waited_ms, 3),
        }


class BatchQueue:
    """Coalesce submitted jobs per key; one batch per key runs at a time.

    ``dispatch(key, jobs)`` is awaited off the queue's internal task and
    must return one result per job (the daemon runs the merged kernel in
    its thread pool and scatters with :func:`scatter_rows`).  A dispatch
    exception is delivered to every member request's future — one bad
    batch never wedges the queue.

    A key with nothing executing dispatches on the next event-loop tick,
    so jobs admitted in the same tick share one batch.  Jobs submitted
    while the key's batch executes wait behind it and start together
    when it finishes, :data:`MAX_BATCH` at a time.
    """

    def __init__(
        self,
        dispatch: Callable[[Tuple, List[QueryJob]], Awaitable[List[Any]]],
    ) -> None:
        self._dispatch = dispatch
        self._waiting: Dict[Tuple, List[Tuple[QueryJob, asyncio.Future]]] = {}
        self._busy: set = set()
        self._tasks: set = set()

    async def submit(self, key: Tuple, job: QueryJob) -> Tuple[Any, BatchInfo]:
        """Admit one job; resolves to ``(result, batch_info)``.

        ``result`` is whatever the dispatch coroutine returned for this
        job's position; ``batch_info`` reports how the admission played
        out (batch size, total query rows, how long this job waited).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._waiting.setdefault(key, []).append((job, future))
        if key not in self._busy:
            self._busy.add(key)
            loop.call_soon(self._start, key)
        return await future

    def _start(self, key: Tuple) -> None:
        """Dispatch the key's waiting jobs, or mark the key idle."""
        waiting = self._waiting.get(key)
        if not waiting:
            self._waiting.pop(key, None)
            self._busy.discard(key)
            return
        batch = waiting[:MAX_BATCH]
        del waiting[:MAX_BATCH]
        task = asyncio.get_running_loop().create_task(self._run(key, batch))
        self._tasks.add(task)
        task.add_done_callback(lambda done: self._finish(key, done))

    def _finish(self, key: Tuple, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        self._start(key)

    async def _run(
        self, key: Tuple, batch: List[Tuple[QueryJob, asyncio.Future]]
    ) -> None:
        dispatched_at = time.monotonic()
        jobs = [job for job, _ in batch]
        n_queries = sum(job.n_queries for job in jobs)
        try:
            results = await self._dispatch(key, jobs)
            if len(results) != len(jobs):
                raise InvalidParameterError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(jobs)} jobs"
                )
        except BaseException as error:  # delivered, never swallowed
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (job, future), result in zip(batch, results):
            if future.done():
                continue  # requester gave up (per-request timeout)
            info = BatchInfo(
                size=len(jobs),
                n_queries=n_queries,
                waited_ms=(dispatched_at - job.enqueued) * 1e3,
            )
            future.set_result((result, info))

    async def drain(self) -> None:
        """Wait until no batch runs and no job waits."""
        while self._busy:
            if self._tasks:
                await asyncio.gather(*list(self._tasks), return_exceptions=True)
            else:
                await asyncio.sleep(0)  # a dispatch is scheduled this tick
