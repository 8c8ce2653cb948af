"""Citation metrics toolkit: h-index and the half-harmonic-mean HM index.

Exact-rational metric computation, citation CSV / profile JSON ingestion
with a file-backed store, bundled demo cohorts, and table rendering.
"""

from . import metrics, profiles, report
from .metrics import *
from .profiles import *
from .report import *

__version__ = "0.1.0"

__all__ = [*metrics.__all__, *profiles.__all__, *report.__all__]
