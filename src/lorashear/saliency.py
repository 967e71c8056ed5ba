"""The saliency proxy ranking structure groups by estimated importance.

Knowledge analysis (which structures to drop first inside a probed node
group), the pruning optimizer (which groups become redundant each period)
and the one-shot baseline all rank by this one definition.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import StructureGroup, effective_slice_vector
from .model import LoraModel


def effective_l2(model: LoraModel, group: StructureGroup) -> float:
    """Size-normalized l2 of the effective weight (host + gamma*B@A) slices."""
    v = effective_slice_vector(model, group)
    return float(np.linalg.norm(v)) / math.sqrt(v.size)
