"""Canonical technique registry for the service tier.

One table maps wire names to :class:`~repro.queries.techniques.Technique`
constructors, so a technique the protocol validates is exactly one the
daemon can build.  Everything that names a servable technique imports
from here:

* :func:`normalize_technique_spec` / :func:`build_technique` — wire
  spec → validated spec → a fresh instance; the daemon builds one per
  request (a technique holds parameters only, so building costs a few
  microseconds and loses no warm state), and
  :mod:`repro.service.protocol` normalizes each request's spec;
* :func:`technique_spec` — the *reverse* mapping, a local technique
  instance → its wire spec, so remote backends can ship the technique a
  fluent :class:`~repro.queries.session.QuerySet` was built with.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..core.errors import ReproError
from ..queries.techniques import (
    DustDtwTechnique,
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichDtwTechnique,
    MunichTechnique,
    ProudTechnique,
    Technique,
)


class ProtocolError(ReproError):
    """A request violates the wire protocol (shape, version, values)."""


def _build_munich(params: Dict[str, Any]) -> Technique:
    from ..munich import Munich

    munich_kwargs = {
        key: params[key]
        for key in ("tau", "method", "n_bins", "n_samples", "rng")
        if key in params
    }
    if munich_kwargs:
        munich_kwargs.setdefault("tau", 0.5)
        return MunichTechnique(Munich(**munich_kwargs))
    return MunichTechnique()


def _build_munich_dtw(params: Dict[str, Any]) -> Technique:
    from ..munich import Munich

    munich_kwargs = {
        key: params[key]
        for key in ("tau", "n_samples", "rng")
        if key in params
    }
    munich = None
    if munich_kwargs:
        munich_kwargs.setdefault("tau", 0.5)
        munich_kwargs.setdefault("rng", 0)
        munich = Munich(method="montecarlo", **munich_kwargs)
    return MunichDtwTechnique(window=params.get("window"), munich=munich)


_TechniqueBuilder = Callable[[Dict[str, Any]], Technique]

#: wire name -> (builder over the params dict, accepted parameter names)
_TECHNIQUES: Dict[str, Tuple[_TechniqueBuilder, Tuple[str, ...]]] = {
    "euclidean": (lambda p: EuclideanTechnique(), ()),
    "uma": (
        lambda p: FilteredTechnique.uma(window=p.get("window", 2)),
        ("window",),
    ),
    "uema": (
        lambda p: FilteredTechnique.uema(
            window=p.get("window", 2), decay=p.get("decay", 1.0)
        ),
        ("window", "decay"),
    ),
    "dust": (lambda p: DustTechnique(), ()),
    "proud": (
        lambda p: ProudTechnique(assumed_std=p.get("assumed_std")),
        ("assumed_std",),
    ),
    "munich": (
        _build_munich,
        ("tau", "method", "n_bins", "n_samples", "rng"),
    ),
    "dust-dtw": (
        lambda p: DustDtwTechnique(window=p.get("window")),
        ("window",),
    ),
    "munich-dtw": (
        _build_munich_dtw,
        ("window", "tau", "n_samples", "rng"),
    ),
}

#: Wire names of every servable technique family.
TECHNIQUE_NAMES = tuple(sorted(_TECHNIQUES))


def normalize_technique_spec(spec: Any) -> Dict[str, Any]:
    """Validate a request's technique spec into ``{"name", "params"}``.

    Accepts a bare name string or a ``{"name": ..., "params": {...}}``
    mapping; unknown names and parameters raise :class:`ProtocolError`
    (a typo must never silently fall back to defaults).
    """
    if spec is None:
        spec = "euclidean"
    if isinstance(spec, str):
        spec = {"name": spec, "params": {}}
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise ProtocolError(
            f"technique spec must be a name or {{'name', 'params'}} "
            f"mapping, got {spec!r}"
        )
    name = spec["name"].lower()
    params = spec.get("params") or {}
    if name not in _TECHNIQUES:
        raise ProtocolError(
            f"unknown technique {name!r}; servable techniques: "
            f"{', '.join(TECHNIQUE_NAMES)}"
        )
    if not isinstance(params, dict):
        raise ProtocolError(
            f"technique params must be a mapping, got {params!r}"
        )
    accepted = _TECHNIQUES[name][1]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ProtocolError(
            f"technique {name!r} does not accept parameter(s) "
            f"{', '.join(map(repr, unknown))}; accepted: "
            f"{list(accepted) or 'none'}"
        )
    return {"name": name, "params": dict(params)}


def build_technique(spec: Any) -> Technique:
    """A fresh :class:`Technique` instance for a (normalized) spec."""
    normalized = normalize_technique_spec(spec)
    return _TECHNIQUES[normalized["name"]][0](normalized["params"])


# ---------------------------------------------------------------------------
# The reverse mapping: instance -> wire spec
# ---------------------------------------------------------------------------


def _wire_rng(technique_name: str, rng: Any) -> Optional[int]:
    """An rng seed a remote daemon can rebuild, or raise.

    Only plain integer seeds (and ``None``) survive the wire: the Monte
    Carlo evaluators re-seed per pair from the integer, so a remote
    execution with the same seed is draw-for-draw identical.  A live
    ``Generator`` object carries hidden state and cannot be shipped.
    """
    if rng is None or isinstance(rng, int):
        return rng
    raise ProtocolError(
        f"technique {technique_name!r} carries a non-integer rng "
        f"({type(rng).__name__}); remote execution needs a plain seed "
        f"for draw-for-draw reproducibility"
    )


def technique_spec(technique: Technique) -> Dict[str, Any]:
    """The wire spec that rebuilds ``technique`` on a daemon.

    The inverse of :func:`build_technique` for the servable families:
    ``build_technique(technique_spec(t))`` scores identically to ``t``
    (same parameters, same Monte Carlo seeds).  Custom
    :class:`Technique` subclasses — and instances whose configuration
    cannot cross the wire, like a live ``Generator`` seed — raise
    :class:`ProtocolError` so a remote backend fails loudly instead of
    silently serving a near-miss.
    """
    cls = type(technique)
    if cls is EuclideanTechnique:
        return {"name": "euclidean", "params": {}}
    if cls is DustTechnique:
        return {"name": "dust", "params": {}}
    if cls is FilteredTechnique:
        filtered = technique.filtered
        if filtered.kind == "uma":
            return {"name": "uma", "params": {"window": int(filtered.window)}}
        if filtered.kind == "uema":
            return {
                "name": "uema",
                "params": {
                    "window": int(filtered.window),
                    "decay": float(filtered.decay),
                },
            }
        raise ProtocolError(
            f"filtered technique kind {filtered.kind!r} is not servable "
            f"(wire families: uma, uema)"
        )
    if cls is ProudTechnique:
        if technique.assumed_std is None:
            return {"name": "proud", "params": {}}
        return {
            "name": "proud",
            "params": {"assumed_std": float(technique.assumed_std)},
        }
    if cls is MunichTechnique:
        munich = technique.munich
        params: Dict[str, Any] = {
            "tau": float(munich.tau),
            "method": munich.method,
            "n_bins": int(munich.n_bins),
            "n_samples": int(munich.n_samples),
        }
        rng = _wire_rng("munich", munich.rng)
        if rng is not None:
            params["rng"] = rng
        return {"name": "munich", "params": params}
    if cls is DustDtwTechnique:
        params = {}
        if technique.window is not None:
            params["window"] = int(technique.window)
        return {"name": "dust-dtw", "params": params}
    if cls is MunichDtwTechnique:
        munich = technique.munich
        if munich.method != "montecarlo":
            raise ProtocolError(
                f"munich-dtw with method {munich.method!r} is not "
                f"servable; the wire family is Monte Carlo only"
            )
        params = {
            "tau": float(munich.tau),
            "n_samples": int(munich.n_samples),
        }
        rng = _wire_rng("munich-dtw", munich.rng)
        if rng is None:
            raise ProtocolError(
                "munich-dtw needs an integer rng seed for remote "
                "execution (draws must replay identically on the daemon)"
            )
        params["rng"] = rng
        if technique.window is not None:
            params["window"] = int(technique.window)
        return {"name": "munich-dtw", "params": params}
    raise ProtocolError(
        f"technique {type(technique).__name__} is not a servable wire "
        f"family ({', '.join(TECHNIQUE_NAMES)}); remote backends can "
        f"only ship registered techniques"
    )
