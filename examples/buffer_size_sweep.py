"""Real buffer-size sensitivity sweep (the paper's Fig. 8, on real execution).

The paper shows end-to-end iteration time is sensitive to the tensor-fusion
buffer size: tiny buffers pay per-bucket latency (alpha) many times over,
one giant buffer forfeits WFBP overlap. This example runs the *actual*
training hot path — `DataParallelTrainer` with the bucketed WFBP reducer
(`buffer_bytes=...`) — across several buffer sizes on the same model, data
and seeds, and reports:

- mean step time and bucket count per buffer size (Fig. 8's axes);
- per-bucket reduction timings for one representative size;
- an alpha-beta link fit from those timings
  (`repro.sim.fit_link_from_bucket_timings`), closing the loop between
  measurement and the simulator's cost model;
- a bit-exactness check: every buffer size must land on identical weights
  (fusion is a scheduling choice, not a numerical one).

Run:
    python examples/buffer_size_sweep.py [--steps 8]
"""

import argparse
import time

import numpy as np

from repro.comm import ProcessGroup
from repro.models import make_small_vgg
from repro.optim import SGD, make_aggregator
from repro.sim import fit_link_from_bucket_timings
from repro.train import DataParallelTrainer, make_cifar_like
from repro.utils import format_bytes

WORLD_SIZE = 4

# None = the one-bucket end point of the same path (one fused all-reduce).
BUFFER_SIZES = [None, 2 * 1024, 8 * 1024, 16 * 1024, 64 * 1024]


def run_sweep_point(buffer_bytes, steps):
    """Train `steps` steps at one buffer size; return timing + weights."""
    train_data, test_data = make_cifar_like(num_train=256, num_test=64, seed=3)
    model = make_small_vgg(base_width=4, rng=np.random.default_rng(5))
    aggregator = make_aggregator("ssgd", ProcessGroup(WORLD_SIZE))
    trainer = DataParallelTrainer(
        model, SGD(model, lr=0.05, momentum=0.9), aggregator,
        train_data, test_data, batch_size_per_worker=8, seed=13,
        buffer_bytes=buffer_bytes,
    )
    trainer.train_step()  # warmup: learns per-parameter ready counts
    times = []
    bucket_samples = []
    for _ in range(steps):
        start = time.perf_counter()
        trainer.train_step()
        times.append(time.perf_counter() - start)
        bucket_samples.extend(
            (elements * 8, seconds)
            for _, elements, seconds in trainer.reducer.last_timings
        )
    return {
        "mean_s": float(np.mean(times)),
        "num_buckets": trainer.reducer.num_buckets,
        "bucket_samples": bucket_samples,
        "weights": model.state_vector(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=8)
    args = parser.parse_args()

    print(f"Buffer-size sweep: S-SGD, {WORLD_SIZE} workers, "
          f"{args.steps} timed steps per point\n")
    print(f"{'buffer':>10s} {'buckets':>8s} {'step ms':>9s}")
    results = {}
    for buffer_bytes in BUFFER_SIZES:
        point = run_sweep_point(buffer_bytes, args.steps)
        results[buffer_bytes] = point
        label = ("monolithic" if buffer_bytes is None
                 else format_bytes(buffer_bytes))
        print(f"{label:>10s} {point['num_buckets']:>8d} "
              f"{point['mean_s'] * 1e3:>9.2f}")

    # Fusion is a scheduling choice: every point must land on the same
    # weights, bit for bit.
    baseline = results[None]["weights"]
    exact = all(
        np.array_equal(baseline, point["weights"])
        for point in results.values()
    )
    print(f"\nweights across all buffer sizes: "
          f"{'MATCH bit-exactly' if exact else 'DIVERGED (bug!)'}")
    if not exact:
        raise SystemExit(1)

    # Calibrate the simulator's link model from the measured per-bucket
    # timings of the finest-grained point (most distinct sizes).
    samples = results[2 * 1024]["bucket_samples"]
    print(f"\nper-bucket samples collected: {len(samples)}")
    try:
        spec = fit_link_from_bucket_timings(samples, WORLD_SIZE)
        print(f"fitted link: alpha = {spec.alpha * 1e6:.2f} us, "
              f"beta = {spec.beta / 1e9:.2f} GB/s")
        print("(feed this LinkSpec to repro.sim to re-anchor the cost "
              "model to this machine)")
    except ValueError as exc:
        # In-process "communication" is a memory-bandwidth proxy; on fast
        # machines the fit can be noise-dominated. That's expected.
        print(f"link fit skipped: {exc}")


if __name__ == "__main__":
    main()
