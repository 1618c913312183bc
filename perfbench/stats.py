"""Statistics and operation accounting for perfbench/run.py.

Kept apart from the driver so perfbench/selftest.py can check them without
building anything.
"""

import hashlib
import math

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise the highest percentile that has them is reported.
MIN_BEYOND = 10


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile %r outside [0, 100]" % p)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(values, p):
    """(value, percentile actually used, sample count): the highest
    percentile <= p with MIN_BEYOND samples beyond it. The value and the
    percentile are None when there are too few samples for any tail."""
    n = len(values)
    if n <= MIN_BEYOND:
        return None, None, n
    used = min(p, 100.0 * (1.0 - MIN_BEYOND / n))
    return percentile(values, used), used, n


def pass_digest(run):
    """One digest of a pass's outputs: its operations' digests, in order."""
    joined = "\n".join(op["digest"] for op in run["ops"])
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def account_ops(passes, reference):
    """Count attempted and failed operations over every pass.

    An operation fails when it reported an error (exception, timeout,
    nonzero exit, broken invariant), when it differs from the same operation
    in the first untraced pass (passes of one run repeat the same inputs,
    and traced passes must reproduce untraced outputs), or when the first
    untraced pass's digest differs from the recorded reference: that
    reference covers a whole pass, so a mismatch fails every operation.
    Returns (attempted, failed, problems) with one line per failure.
    """
    attempted = 0
    failed = 0
    problems = []
    baseline = next((p for p in passes if not p["traced"]), None)
    mismatch = None
    if reference is not None and baseline is not None:
        got = pass_digest(baseline)
        if got != reference:
            mismatch = "pass digest %s != reference %s" % (got, reference)
    for index, run in enumerate(passes):
        for i, op in enumerate(run["ops"]):
            attempted += 1
            why = op["error"] or mismatch
            if not why and op["digest"] != baseline["ops"][i]["digest"]:
                why = "digest %s != untraced pass's %s" % (
                    op["digest"], baseline["ops"][i]["digest"])
            if why:
                failed += 1
                problems.append("pass %d (%s) op %d: %s" % (
                    index, "traced" if run["traced"] else "untraced", i, why))
    return attempted, failed, problems
