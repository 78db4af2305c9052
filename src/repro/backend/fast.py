"""The opt-in ``fast`` backend: float32, pooled scratch, fused kernels.

Three levers over the paper-exact default, each documented in
``docs/PERFORMANCE.md``:

* **float32 compute dtype** — halves memory traffic through every GEMM
  and keeps metric drift within documented tolerances (the equivalence
  suite bounds it);
* **scratch-buffer pool** — per-step kernel intermediates come from a
  size-bucketed pool reclaimed at optimizer-step boundaries
  (:meth:`end_step`), so steady-state training stops allocating;
* **fused kernels** (``fused = True``) — model code dispatches routing,
  attention and the sampled-softmax loss to the single-kernel
  implementations in :mod:`repro.backend.fused` instead of building
  op-by-op autograd graphs.

Threaded-BLAS control lives here too: on the tiny per-user matrices the
paper trains (d=32), multi-threaded OpenBLAS loses to a single core, so
:func:`set_blas_threads` lets runs pin the thread count explicitly.
"""

from __future__ import annotations

import ctypes
import ctypes.util
from typing import Dict, Optional

import numpy as np

from ..contracts import shape_contract
from ..obs import trace as obs
from .base import Backend
from .pool import BufferPool


def set_blas_threads(n: int) -> Optional[int]:
    """Best-effort cap on BLAS threads; returns the previous count.

    Tries ``threadpoolctl`` first, then the OpenBLAS C API via ctypes.
    Returns ``None`` when neither mechanism is available (the setting is
    then a no-op — correctness never depends on it).
    """
    try:
        from threadpoolctl import ThreadpoolController  # type: ignore

        controller = ThreadpoolController()
        infos = [i for i in controller.info() if i.get("user_api") == "blas"]
        previous = infos[0].get("num_threads") if infos else None
        controller.limit(limits={"blas": int(n)})
        return previous
    except (ImportError, AttributeError, KeyError, IndexError, ValueError):
        pass
    try:
        path = ctypes.util.find_library("openblas")
        if path is None:
            return None
        lib = ctypes.CDLL(path)
        previous = int(lib.openblas_get_num_threads())
        lib.openblas_set_num_threads(int(n))
        return previous
    except (OSError, AttributeError, ValueError):
        return None


class FastBackend(Backend):
    """float32 + pooled scratch + fused kernels (opt-in, tolerance-gated)."""

    name = "fast"
    compute_dtype = np.dtype(np.float32)
    fused = True

    def __init__(self, blas_threads: Optional[int] = 1):
        self.pool = BufferPool()
        # counters already flushed into repro.obs (flush emits deltas)
        self._flushed: Dict[str, int] = {"hits": 0, "misses": 0,
                                         "bytes_reused": 0}
        if blas_threads is not None:
            set_blas_threads(blas_threads)

    def scratch(self, shape, pooled: bool = True) -> np.ndarray:
        if pooled:
            return self.pool.acquire(shape, self.compute_dtype)
        return np.empty(shape, dtype=self.compute_dtype)

    @shape_contract("(N, D) f, _, (...I, D) f -> _")
    def scatter_add(self, out: np.ndarray, indices: np.ndarray,
                    updates: np.ndarray) -> None:
        """Bincount scatter: one C pass instead of ``np.add.at``'s
        per-element inner loop (~2x at embedding-gradient sizes).

        ``np.bincount`` accumulates in float64, so the fast path's
        scatter is *more* accurate than a float32 ``np.add.at`` chain;
        the sum is rounded to float32 once at the end.  Falls back to
        ``np.add.at`` when the flattened table is large enough that the
        dense float64 accumulator costs more than it saves (measured
        crossover ~32k elements at training scatter shapes).
        """
        idx = np.asarray(indices).reshape(-1)
        flat_elems = out.size
        if idx.size <= 1 or flat_elems > (1 << 15):
            np.add.at(out, idx, updates.reshape(idx.size, -1))
            return
        cols = out.shape[1] if out.ndim > 1 else 1
        flat = (idx[:, None] * cols + np.arange(cols)).ravel()
        acc = np.bincount(flat, weights=updates.reshape(-1),
                          minlength=flat_elems)
        out += acc.reshape(out.shape)

    def end_step(self) -> None:
        """Reclaim step scratch and flush pool counters into repro.obs."""
        self.pool.reclaim()
        if obs.enabled():
            stats = self.pool.stats()
            for key, metric in (("hits", "backend.pool_hits"),
                                ("misses", "backend.pool_misses"),
                                ("bytes_reused", "backend.bytes_reused")):
                delta = stats[key] - self._flushed[key]
                if delta:
                    obs.counter(metric, delta, backend=self.name)
                    self._flushed[key] = stats[key]

    def pool_stats(self) -> Optional[Dict[str, int]]:
        return self.pool.stats()
