"""DUST: a generalized distance for uncertain time series (Section 2.3).

:class:`Dust` scores series through φ lookup tables
(:class:`DustTable`).  Every table comes from one process-wide store,
:func:`dust_table`, keyed by ``(error_x, error_y, n_points,
tail_workaround)``, so each error pair is built once per process
whichever ``Dust`` or technique asks for it.
"""

from __future__ import annotations

from .distance import Dust
from .phi import phi, phi_normal_closed_form, phi_numeric, phi_support_radius
from .tables import DEFAULT_TABLE_POINTS, PHI_FLOOR, DustTable, dust_table

__all__ = [
    "Dust",
    "DustTable",
    "dust_table",
    "phi",
    "phi_numeric",
    "phi_normal_closed_form",
    "phi_support_radius",
    "PHI_FLOOR",
    "DEFAULT_TABLE_POINTS",
]
