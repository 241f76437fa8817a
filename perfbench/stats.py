"""The benchmark's arithmetic: slice percentiles, per-operation
normalisation, failure fractions and the determinism gate.

Kept apart from run.py so test_stats.py can check it without building or
running the simulator.
"""

import json
import math
import os


class ZeroOps(ValueError):
    """No operation completed, so no per-operation figure exists."""


class TooFewSlices(ValueError):
    """A tail percentile was asked of too few slices to be meaningful."""


def per_op_slices(slices):
    """Host microseconds per operation, one value per slice.

    `slices` is a list of (host seconds, operations issued) for
    consecutive slices of equal simulated duration. Operations are counted
    when issued, not when they finish: under faults an open loop keeps
    issuing while few operations finish, and the host's extra work then is
    what the tail should show, not the model's outage. A slice that issued
    nothing has no per-operation cost of its own: its host time is carried
    into the next slice that issues one, and host time after the last such
    slice is charged to it. Raises ZeroOps if no slice issued an operation.
    """
    pairs = []
    carry = 0.0
    for wall_s, ops in slices:
        carry += wall_s
        if ops > 0:
            pairs.append([carry, ops])
            carry = 0.0
    if not pairs:
        raise ZeroOps("no operation completed in any slice")
    pairs[-1][0] += carry
    return [wall * 1e6 / ops for wall, ops in pairs]


def slice_minimum(executions):
    """Per slice, the least host time over executions of one seed.

    `executions` holds one list of (host seconds, operations) per
    execution. The model is deterministic, so every execution runs the same
    operations in the same slices, and a slice's least time is its cost
    with the host's transient stalls left out. Raises Nondeterministic if
    the executions' operation counts differ in any slice.
    """
    counts = [[ops for _, ops in slices] for slices in executions]
    if any(c != counts[0] for c in counts[1:]):
        raise Nondeterministic("executions of one seed finished different "
                               "operations in some slice")
    return [(min(walls), ops)
            for walls, ops in zip(zip(*([w for w, _ in s] for s in executions)), counts[0])]


def nearest_rank(values, q):
    """The nearest-rank q-quantile (0 < q <= 1) of a non-empty list."""
    if not values:
        raise ValueError("quantile of an empty list")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def slice_percentile(values, q, min_beyond=10):
    """Nearest-rank percentile that insists on `min_beyond` samples above
    it, so a tail figure never rests on a handful of slices."""
    rank = max(1, math.ceil(q * len(values)))
    beyond = len(values) - rank
    if beyond < min_beyond:
        raise TooFewSlices(
            "p%g of %d slices leaves %d beyond it, need %d"
            % (100 * q, len(values), beyond, min_beyond))
    return nearest_rank(values, q)


def per_op(total, ops):
    """`total` per completed operation; ZeroOps when none completed."""
    if ops <= 0:
        raise ZeroOps("no operation completed")
    return total / ops


def ratio(num, den):
    """A per-layer ratio that reads 0 when its base is empty."""
    return num / den if den else 0.0


def failed_count(tally):
    """Simulated operations that did not succeed: timed out, refused by the
    servers, or abandoned (a transfer still aborted after every retry)."""
    return tally["timed_out"] + tally["refused"] + tally["aborted"]


def failed_frac(tally):
    return per_op(failed_count(tally), tally["attempted"])


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty list")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


# Host nanoseconds of one reference pass (a sequential read of 8 MiB, see
# harness/probe.ml) on the nominal host that every scaled host time refers
# to. A fixed constant, so scaled times of different runs, hosts and
# commits compare directly.
NOMINAL_REFERENCE_NS = 1.0e6


def host_scale(ref_ns):
    """Factor that turns a host time measured beside reference passes of
    `ref_ns` nanoseconds (their median counts) into the time it would have
    taken on the nominal host: below 1 on a host running slower than it."""
    return NOMINAL_REFERENCE_NS / median(ref_ns)


def scaled_pairs(times, ref_ns):
    """Each host time scaled by the reference pass taken beside it."""
    if len(times) != len(ref_ns):
        raise ValueError("every host time needs its own reference pass")
    return [t * host_scale([r]) for t, r in zip(times, ref_ns)]


class Nondeterministic(Exception):
    """Model outputs of one seed differ between runs of one commit."""


def check_model(store_dir, key, model):
    """The determinism gate. The first run of `key` (workload, seed, run
    length and source digest) records its model outputs and history
    fingerprint; every later run must reproduce them bit for bit."""
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            first = json.load(f)
        if first != model:
            diff = sorted(k for k in set(first) | set(model)
                          if first.get(k) != model.get(k))
            raise Nondeterministic("%s differs from the first run in %s"
                                   % (key, ", ".join(diff)))
        return
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(model, f, sort_keys=True)
    os.replace(tmp, path)
