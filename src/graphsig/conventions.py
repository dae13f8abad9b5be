"""Shared numerical conventions.

Every denominator guard in the pipeline (Fisher scores, score
standardization, share normalization) uses the same epsilon, and every
scale normalizer uses the population standard deviation (divide by
count).  Reports embed these switches so runs are auditable.
"""

EPSILON = 1e-12

PACKAGE_VERSION = "0.1.0"

# "population" = divide by N; repeat-level accuracy aggregation uses the
# sample (N-1) convention instead and says so where it does.
STD_MODE = "population"


def conventions(split_mode: str | None = None) -> dict:
    """Convention switches embedded in report files."""
    out = {"std_mode": STD_MODE, "epsilon": EPSILON}
    if split_mode is not None:
        out["split_mode"] = split_mode
    return out
