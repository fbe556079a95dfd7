"""Common interface for graph models.

Every model implements ``forward(x, adjacency)`` where ``x`` is a feature
:class:`~repro.autograd.Tensor` and ``adjacency`` is the *raw* (unnormalised)
sparse adjacency of the local subgraph; each model applies its own propagation
operator internally and caches it per adjacency object, so repeated epochs
over the same subgraph do not re-normalise.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor
from repro.autograd.backend import cached_transpose
from repro.graph.normalize import normalize_adjacency
from repro.nn import Module


def prepare_propagation(adjacency: sp.spmatrix, r: float = 0.5,
                        self_loops: bool = True) -> sp.csr_matrix:
    """Symmetric-normalised propagation operator (Eq. 1 with r = 1/2)."""
    return normalize_adjacency(adjacency, r=r, self_loops=self_loops)


class GraphModel(Module):
    """Base class providing propagation-operator caching."""

    def __init__(self):
        super().__init__()
        #: id(adjacency) → (adjacency, operator).  The entry holds its
        #: adjacency, so that id cannot be reused while the entry lives, and
        #: a hit checks ``is`` (a copied or unpickled entry carries ids of
        #: objects that may be gone).
        self._prop_cache: Dict[int, Tuple[sp.spmatrix, sp.csr_matrix]] = {}

    def propagation_matrix(self, adjacency: sp.spmatrix,
                           r: float = 0.5) -> sp.csr_matrix:
        key = id(adjacency)
        entry = self._prop_cache.get(key)
        if entry is None or entry[0] is not adjacency:
            # Keep the cache tiny: one operator per adjacency object.
            if len(self._prop_cache) > 8:
                self._prop_cache.clear()
            entry = (adjacency, prepare_propagation(adjacency, r=r))
            self._prop_cache[key] = entry
        return entry[1]

    def propagation_matrix_t(self, adjacency: sp.spmatrix,
                             r: float = 0.5) -> sp.csr_matrix:
        """CSR transpose of :meth:`propagation_matrix`, cached alongside it.

        The hot operand of every ``spmm`` backward (``P̃ᵀ @ grad``): passing
        it as ``adjacency_t`` replaces the per-backward CSC product with a
        cached CSR one.  Both accumulate each output row's contributions in
        ascending source-row order, so results are bitwise-unchanged.

        Delegates to the dispatch layer's process-wide
        :func:`~repro.autograd.backend.cached_transpose`, the same cache the
        ``spmm`` backward consults when no ``adjacency_t`` is supplied — so
        serial, batched and personalized paths all share one transpose per
        operator object.
        """
        return cached_transpose(self.propagation_matrix(adjacency, r=r))

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        raise NotImplementedError

    def predict_probabilities(self, x, adjacency) -> np.ndarray:
        """Convenience inference helper returning softmax probabilities."""
        from repro.autograd import functional as F
        from repro.autograd import no_grad

        was_training = self.training
        self.eval()
        with no_grad():
            logits = self.forward(F.as_tensor(x), adjacency)
            probs = F.softmax(logits, axis=-1).numpy()
        if was_training:
            self.train()
        return probs
