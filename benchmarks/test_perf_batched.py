"""Performance: batched vs per-user interest extraction (inference path)."""

import time

import numpy as np

from conftest import report

from repro.autograd import no_grad
from repro.models import ComiRecDR, batched_compute_interests
from repro.experiments import shape_check


def test_perf_batched_extraction(run_once):
    def build():
        rng = np.random.default_rng(0)
        model = ComiRecDR(num_items=2000, dim=32, num_interests=4, seed=0)
        jobs = []
        for user in range(300):
            state = model.init_user_state(user)
            if user % 3 == 0:
                model.expand_user(state, 3, span=1)
            seq = rng.integers(0, 2000, size=int(rng.integers(8, 40))).tolist()
            jobs.append((state, seq))

        start = time.perf_counter()
        slow = [model.compute_interests(s, seq).data for s, seq in jobs]
        per_user_s = time.perf_counter() - start

        start = time.perf_counter()
        with no_grad():
            interests, _, ks = batched_compute_interests(model, jobs)
        fast = [interests.data[b, :k] for b, k in enumerate(ks)]
        batched_s = time.perf_counter() - start

        max_err = max(
            float(np.abs(a - b).max()) for a, b in zip(slow, fast)
        )
        return per_user_s, batched_s, max_err

    per_user_s, batched_s, max_err = run_once(build)
    speedup = per_user_s / max(batched_s, 1e-9)
    checks = [
        shape_check("batched extraction outputs match per-user (1e-8)",
                    max_err < 1e-8),
        # the per-user path is already numpy-bound, so the win is the
        # removed graph/python overhead; padding waste caps it on ragged
        # batches
        shape_check("batched extraction is not slower than per-user",
                    speedup >= 1.0),
    ]
    report(
        "Performance: batched vs per-user extraction (300 users)",
        f"per-user: {per_user_s*1000:.1f} ms   batched: {batched_s*1000:.1f} ms"
        f"   speedup: {speedup:.1f}x   max err: {max_err:.2e}",
        checks,
    )
