"""Batched MUNICH convolution: stacked candidate blocks on a shared bin grid.

:func:`~repro.munich.exact.convolved_probability` evaluates one ``(q, c)``
pair by convolving ``n`` per-timestamp histograms over the full
``n_bins``-wide grid — hundreds of small NumPy calls per pair, repeated
for every undecided candidate of a query row.  The batched evaluator here
answers a whole block of candidates against one query in a single stacked
pass, and restructures the DP itself so that blocks do strictly less work
than the per-pair loop:

* **shared bin grid** — all candidates of a block share the query's
  ``δ = ε²/n_bins`` grid, so the per-timestamp squared sample differences
  of the entire ``(B, n, s_q·s_c)`` block are binned in one shot;
* **min-offset shifting** — each timestamp's smallest bin offset is a
  deterministic shift of the whole distribution; subtracting it per row
  moves the threshold instead of convolving, so timestamps whose samples
  all land in one bin cost *nothing*;
* **span compression** — after the shift, the DP state only needs
  ``min(Σ spans, max residual threshold) + 1`` bins instead of
  ``n_bins``; in bound-undecided workloads that is typically 10–100×
  narrower than the full grid;
* **span-ordered schedule** — timestamps are convolved narrowest kernel
  first, keeping the growing support (and therefore every vectorized
  multiply-add) as small as possible for as long as possible.

The computed quantity is the same integer-offset CDF the per-pair
evaluator produces — identical binning rules, identical edge handling at
``ε²`` — so results agree to accumulated float rounding (~1e-12), far
inside the engine's 1e-9 batch-kernel tolerance.

When the decision threshold ``τ`` is known, most rows never reach the
DP: a Hoeffding bound on the binned distance sum, then a Berry–Esseen
bound from its exact atoms, already puts them on one side of ``τ`` (see
:func:`convolved_probability_batch`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core import normalize_tau
from ..core.errors import InvalidParameterError
from ..core.uncertain import MultisampleUncertainTimeSeries
from ..stats.normal import std_normal_cdf
from .exact import DEFAULT_BINS

#: Element budget for one block's ``(B, n, s_q·s_c)`` difference tensor.
BATCH_BLOCK_ELEMENTS = 1 << 20

#: Element budget for one DP chunk's ``(rows, width)`` probability state:
#: ~0.25 MB of float64 keeps the state, the update buffer, and the padded
#: window source all cache-resident (measured fastest from 2^12–2^19 at
#: both 512 and 4096 bins), which is what lets the stacked passes beat
#: the per-pair loop's L1-sized slices on memory traffic as well as call
#: overhead.
DP_CHUNK_ELEMENTS = 1 << 15

#: Least margin a bound must clear ``τ`` by before it decides a row in
#: decision mode: the floor of a slack that covers the DP's rounding and
#: the bound's own (derived in :func:`convolved_probability_batch`).
DECISION_SLACK = 1e-9

#: Berry–Esseen constant for independent, non-identically distributed
#: summands (Shevtsova 2010): ``sup_x |F(x) − Φ((x − μ)/σ)| <= C₀·Σ_t
#: E|X_t − μ_t|³ / σ³``.
BERRY_ESSEEN_CONSTANT = 0.5600


def stack_candidate_samples(candidates) -> np.ndarray:
    """``(B, n, s)`` stacked sample matrices of multisample candidates.

    Raises when sample counts differ across candidates (the per-pair
    evaluator is the fallback for such ragged collections).
    """
    matrices = [
        candidate.samples
        if isinstance(candidate, MultisampleUncertainTimeSeries)
        else np.asarray(candidate, dtype=np.float64)
        for candidate in candidates
    ]
    shapes = {matrix.shape for matrix in matrices}
    if len(shapes) > 1:
        raise InvalidParameterError(
            f"candidates must share one (n, s) sample shape, got {shapes}"
        )
    return np.stack(matrices) if matrices else np.empty((0, 0, 0))


def convolved_probability_batch(
    x: MultisampleUncertainTimeSeries,
    candidate_samples: np.ndarray,
    epsilon: float,
    n_bins: int = DEFAULT_BINS,
    tau=None,
) -> np.ndarray:
    """``Pr(L2(X, Y_b) <= ε)`` for a stacked block of candidates.

    ``candidate_samples`` is a ``(B, n, s_c)`` tensor of the candidates'
    per-timestamp sample draws (one slice of a collection's materialized
    sample tensor).  Equivalent to calling
    :func:`~repro.munich.exact.convolved_probability` per candidate with
    the same ``n_bins``; returns the ``(B,)`` probability vector.

    **Decision mode.** ``tau`` (a scalar or a τ-grid tuple, as
    :func:`~repro.core.normalize_tau` returns it) says the
    caller reads only each row's side of ``τ``.  After binning and the
    min-offset shift, row ``b``'s DP result is exactly
    ``P = Pr(S <= c)``, ``S = Σ_t X_t``, with independent ``X_t``
    uniform over timestamp ``t``'s ``K = s_q·s_c`` integer residual
    atoms, each in ``[0, span_t]``, and ``c`` the row's cutoff.  Two
    stages bound ``P`` before the DP, cheapest first:

    1. *Hoeffding*, from the spans alone.  With ``μ = E S``,
       ``s² = Σ_t span_t²`` and ``g = μ − c``, ``P <= exp(−2g²/s²)``
       when ``g > 0`` and ``P >= 1 − exp(−2g²/s²)`` when ``g < 0``.
    2. *Berry–Esseen*, from the exact atoms, on the rows Hoeffding
       leaves open.  With ``σ² = Var S`` and
       ``β = C₀·Σ_t E|X_t − E X_t|³ / σ³``
       (:data:`BERRY_ESSEEN_CONSTANT`), ``P <= Φ((c − μ)/σ) + β`` and,
       because ``S`` is integer, ``P >= Φ((c + 1 − μ)/σ) − β``.  It
       settles rows nearer the centre, whose ``P`` is well inside
       ``(0, 1)`` but still clear of ``τ``.

    A row whose upper bound is below ``min τ − slack`` is a miss and one
    whose lower bound is at least ``max τ + slack`` a hit; its recorded
    value is that bound, which sits on the verdict's side of every grid
    ``τ`` (the contract adaptive Monte Carlo keeps).  Every other row
    runs the DP and keeps its exact probability.

    The slack covers the DP's rounding and the bounds' own.  Every DP
    quantity is a sum of non-negative products; one timestamp adds at
    most ``K + 2`` roundings (the atoms, the ``1/K`` weight, the
    product), and the closing cumulative sum at most ``n_bins``.  So the
    DP's ``P̂`` obeys ``|P̂ − P| <= γ_m`` with ``m = n·(K + 2) + n_bins``
    and ``γ_m = m·u / (1 − m·u)``, ``u = 2⁻⁵³``.  Hoeffding's gap comes
    from exact integer sums, so its bound is good to a few ``u``.
    Berry–Esseen's ``K·(c − μ)``, ``K²·Var X_t`` and ``K·(a − E X_t)``
    are exact integers, so only the ``n·K`` cubes and their sum, the
    square root, the divisions and ``Φ`` round: a decided row's
    evaluated bound is within ``m_B·u`` of the exact one,
    ``m_B = n·K + 16``.  The slack ``max(1e-9, 4·(m + m_B)·u)`` is at
    least ``2·γ_m`` and at least ``γ_m + m_B·u``
    (:data:`DECISION_SLACK` is the floor; 32 timestamps of 3 × 3
    samples on 4,096 bins give ``m + m_B`` ≈ 4,800), so a decided row's
    verdict is the one the DP would have reached.  The DP's rounding
    also depends on which rows share its chunk, so a refined row whose
    ``P̂`` lies within the slack of a threshold is re-run in the chunk
    the τ-free call would put it in: every verdict equals that of the
    τ-free result thresholded at ``τ``, and with ``tau=None`` the
    result is unchanged.
    """
    if not epsilon >= 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    if n_bins < 2:
        raise InvalidParameterError(f"n_bins must be >= 2, got {n_bins}")
    thresholds = _tau_grid(tau)
    candidate_samples = np.asarray(candidate_samples, dtype=np.float64)
    if candidate_samples.ndim != 3:
        raise InvalidParameterError(
            f"candidate_samples must be a (B, n, s) tensor, got shape "
            f"{candidate_samples.shape}"
        )
    n_candidates, length, _ = candidate_samples.shape
    if length != len(x):
        raise InvalidParameterError(
            f"series lengths differ: {len(x)} != {length}"
        )
    out = np.empty(n_candidates)
    per_row = max(1, length * x.samples_per_timestamp
                  * candidate_samples.shape[2])
    block = max(1, BATCH_BLOCK_ELEMENTS // per_row)
    for start in range(0, n_candidates, block):
        stop = min(start + block, n_candidates)
        out[start:stop] = _block_probabilities(
            x.samples, candidate_samples[start:stop], epsilon, n_bins,
            thresholds,
        )
    return out


def _tau_grid(tau) -> Optional[np.ndarray]:
    """The sorted thresholds of a decision target, validated by
    :func:`~repro.core.normalize_tau`; ``None`` without one."""
    target = normalize_tau(tau)
    if target is None:
        return None
    return np.atleast_1d(np.asarray(target, dtype=np.float64))


def _block_probabilities(
    query_samples: np.ndarray,
    candidate_block: np.ndarray,
    epsilon: float,
    n_bins: int,
    thresholds: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One bounded block of the batched convolution (see module docstring)."""
    n_rows, length, s_candidate = candidate_block.shape
    s_query = query_samples.shape[1]
    # (B, n, s_q, s_c) signed differences, flattened to the per-pair
    # evaluator's (s_q, s_c) row-major atom order.
    differences = (
        query_samples[None, :, :, None] - candidate_block[:, :, None, :]
    )
    values = np.square(differences).reshape(n_rows, length, -1)

    squared_threshold = epsilon * epsilon
    if squared_threshold == 0.0:
        return np.prod((values == 0.0).mean(axis=2), axis=1)

    delta = squared_threshold / n_bins
    # Identical binning to the per-pair evaluator: clamp before the cast,
    # keep values exactly at ε² in range, send larger ones to overflow.
    scaled = np.minimum(values / delta, float(n_bins))
    bins = scaled.astype(np.intp)
    bins = np.where(
        values <= squared_threshold, np.minimum(bins, n_bins - 1), n_bins
    )

    # Min-offset shift: each timestamp's smallest offset is deterministic.
    minima = bins.min(axis=2)
    residuals = bins - minima[:, :, None]
    cutoffs = (n_bins - 1) - minima.sum(axis=1)
    spans = residuals.max(axis=2)
    total_spans = spans.sum(axis=1)

    probabilities = np.empty(n_rows)
    # Deterministic rows: every atom combination overflows, or none can.
    probabilities[cutoffs < 0] = 0.0
    probabilities[(cutoffs >= 0) & (total_spans <= cutoffs)] = 1.0
    live = np.flatnonzero((cutoffs >= 0) & (total_spans > cutoffs))
    needed = np.minimum(total_spans, cutoffs)
    n_atoms = s_query * s_candidate
    refine = live
    if thresholds is not None and live.size:
        # max(1e-9, 4·(m + m_B)·u) with m = n·(K + 2) + n_bins and
        # m_B = n·K + 16: covers the DP's rounding and the bounds' own
        # (derived in convolved_probability_batch).
        rounding_steps = n_bins + length * (2 * n_atoms + 2) + 16
        slack = max(
            DECISION_SLACK, 2.0 * rounding_steps * np.finfo(np.float64).eps
        )
        bounds, decided = _hoeffding_decisions(
            residuals[live], cutoffs[live], spans[live], thresholds, slack
        )
        probabilities[live[decided]] = bounds[decided]
        refine = live[~decided]
        bounds, decided = _berry_esseen_decisions(
            residuals[refine], cutoffs[refine], thresholds, slack
        )
        probabilities[refine[decided]] = bounds[decided]
        refine = refine[~decided]
    for rows in _width_chunks(refine, needed[refine]):
        probabilities[rows] = _dp_chunk(
            residuals[rows], cutoffs[rows], n_atoms
        )
    if thresholds is not None and refine.size:
        # A DP value within rounding of a threshold can land on either
        # side of it depending on which rows share its chunk.  Re-run
        # such rows in the chunks the τ-free path forms, so every
        # verdict equals the τ-free matrix's bit for bit.
        near = refine[np.any(
            np.abs(probabilities[refine, None] - thresholds) <= slack,
            axis=1,
        )]
        for rows in _width_chunks(live, needed[live]):
            if np.isin(rows, near).any():
                probabilities[rows] = _dp_chunk(
                    residuals[rows], cutoffs[rows], n_atoms
                )
    return probabilities


def _width_chunks(rows: np.ndarray, needed: np.ndarray):
    """Yield width-sorted DP chunks of ``rows`` (``needed`` aligned).

    Rows needing similar DP state widths run together, and each chunk is
    sized so its state stays cache-resident instead of streaming a
    ``(B, n_bins)`` block through DRAM per pass.
    """
    order = np.argsort(needed, kind="stable")
    position = 0
    while position < rows.size:
        width = int(needed[order[position]]) + 1
        chunk_rows = max(4, DP_CHUNK_ELEMENTS // width)
        yield rows[order[position:position + chunk_rows]]
        position += chunk_rows


def _hoeffding_decisions(
    residuals: np.ndarray,
    cutoffs: np.ndarray,
    spans: np.ndarray,
    thresholds: np.ndarray,
    slack: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hoeffding bounds on ``P = Pr(Σ_t X_t <= cutoff)`` for live rows.

    Returns ``(values, decided)``: rows whose bound clears every ``τ``
    by ``slack`` are decided, and ``values`` holds the deciding bound
    (the upper bound for misses, the lower bound for hits).  The mean
    gap is formed from exact integer sums, ``K·g = Σ atoms − K·cutoff``,
    so only the final divisions and ``exp`` round.
    """
    n_atoms = residuals.shape[2]
    scaled_gap = (
        residuals.sum(axis=(1, 2)) - n_atoms * cutoffs
    ).astype(np.float64)
    spread = np.square(spans.astype(np.float64)).sum(axis=1)
    tail = np.exp(-2.0 * np.square(scaled_gap / n_atoms) / spread)
    misses = (scaled_gap > 0) & (tail < thresholds[0] - slack)
    hits = (scaled_gap < 0) & (1.0 - tail >= thresholds[-1] + slack)
    return np.where(misses, tail, 1.0 - tail), misses | hits


def _berry_esseen_decisions(
    residuals: np.ndarray,
    cutoffs: np.ndarray,
    thresholds: np.ndarray,
    slack: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Berry–Esseen bounds on ``P = Pr(S <= c)`` from the exact atoms.

    Same contract as :func:`_hoeffding_decisions` (the bounds are
    derived in :func:`convolved_probability_batch`).  ``K·(c − μ)``,
    each timestamp's ``K²·Var X_t`` and the deviations ``K·a − Σ_k a``
    are exact integers, so only the cubes, the closing sums and the
    divisions round; ``variance`` is ``Q = K²σ²``.
    """
    n_atoms = residuals.shape[2]
    sums = residuals.sum(axis=2)
    scaled_gap = sums.sum(axis=1) - n_atoms * cutoffs
    variance = (
        n_atoms * np.square(residuals).sum(axis=2) - np.square(sums)
    ).astype(np.float64).sum(axis=1)
    deviations = np.abs(n_atoms * residuals - sums[:, :, None])
    third = (deviations.astype(np.float64) ** 3).sum(axis=(1, 2))
    scale = np.sqrt(variance)
    # C₀·Σ_t E|X_t − μ_t|³ / σ³ = C₀·Σ|K·a − Σ_k a|³ / (K·Q^{3/2}).
    drift = BERRY_ESSEEN_CONSTANT * third / (n_atoms * variance * scale)
    upper = std_normal_cdf(-scaled_gap / scale) + drift
    lower = std_normal_cdf((n_atoms - scaled_gap) / scale) - drift
    misses = upper < thresholds[0] - slack
    hits = lower >= thresholds[-1] + slack
    return np.where(misses, upper, lower), misses | hits


def _dp_chunk(
    residuals: np.ndarray, cutoffs: np.ndarray, n_atoms: int
) -> np.ndarray:
    """Exact residual-sum CDF for one chunk of undecided rows.

    ``residuals`` is the ``(L, n, K)`` integer atom tensor after the
    min-offset shift; ``cutoffs[b]`` is row ``b``'s largest in-range
    residual sum.  Timestamps are convolved narrowest first, and each
    step picks the cheaper of two equivalent updates:

    * **dense kernels** — per-row histograms applied by offset, ideal
      when the timestamp's span is comparable to the atom count;
    * **atom gathers** — one shifted gather per atom rank (uniform
      weights), ideal when few atoms are spread over a wide span, where
      the dense loop would mostly multiply by zero.
    """
    n_rows = residuals.shape[0]
    block_spans = residuals.max(axis=2).max(axis=0)
    # Row b only ever needs indices up to min(Σ spans_b, cutoff_b): its
    # support cannot outgrow the former and everything past the latter is
    # certainly out of range, so the chunk width is the max of those.
    width = int(
        np.minimum(residuals.sum(axis=(1, 2)), cutoffs).max()
    ) + 1
    atom_weight = 1.0 / n_atoms
    row_offsets = np.arange(n_rows)[:, None]

    pmf = np.zeros((n_rows, 2))
    pmf[:, 0] = 1.0
    occupied = 1
    for timestamp in np.argsort(block_spans, kind="stable"):
        kernel_span = int(block_spans[timestamp])
        if kernel_span == 0:
            continue
        stride = min(kernel_span, width) + 1
        grown = min(occupied + kernel_span, width)
        # One trailing always-zero column doubles as the dump slot for
        # out-of-support gather indices.
        updated = np.zeros((n_rows, grown + 1))
        if stride <= 2 * residuals.shape[2]:
            # Dense mode: per-row kernel histograms, one shifted
            # multiply-add per offset.  An atom clipped at
            # ``stride - 1 = width`` is a certain overflow and is dropped
            # by the offset loop's bound.
            clipped = np.minimum(residuals[:, timestamp, :], stride - 1)
            kernels = np.bincount(
                (clipped + row_offsets * stride).ravel(),
                minlength=n_rows * stride,
            ).reshape(n_rows, stride) * atom_weight
            for offset in range(stride):
                span_here = min(occupied, grown - offset)
                if span_here <= 0:
                    break
                updated[:, offset:offset + span_here] += (
                    kernels[:, offset:offset + 1] * pmf[:, :span_here]
                )
        else:
            # Atom mode: every atom shifts the whole pmf by its own
            # per-row offset.  Shifts are realized as *contiguous* window
            # copies out of a zero-padded state — one row-indexed window
            # per atom rank — so the inner work is memcpy-speed instead
            # of element gathers.  Uniform atom weights let one final
            # scale close the convolution out.
            pad = stride - 1
            padded = np.zeros((n_rows, pad + grown))
            padded[:, pad:pad + occupied] = pmf[:, :occupied]
            windows = np.lib.stride_tricks.sliding_window_view(
                padded, grown, axis=1
            )
            atoms = residuals[:, timestamp, :]
            overflowing = atoms > pad
            starts = pad - np.minimum(atoms, pad)
            row_index = np.arange(n_rows)
            for rank in range(atoms.shape[1]):
                block = windows[row_index, starts[:, rank]]
                lost = overflowing[:, rank]
                if lost.any():
                    # Atoms past the state width are certain overflow;
                    # drop their (already copied-out) contribution.
                    block[lost] = 0.0
                updated[:, :grown] += block
            updated *= atom_weight
        pmf = updated
        occupied = grown
    cumulative = np.cumsum(pmf[:, :occupied], axis=1)
    return np.take_along_axis(
        cumulative, np.minimum(cutoffs, occupied - 1)[:, None], axis=1
    )[:, 0]
