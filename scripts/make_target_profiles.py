#!/usr/bin/env python3
"""Regenerate the bundled retrieval-test target profiles.

The target per-degree counts come from the varieties' defining systems (V1:
a single sextic; V2: one linear and one cubic polynomial; V3: a single
quartic).  Each profile is cross-checked numerically before being written:

* V2, V3: a fit on dense exact samples with epsilon = 1e-10 must reproduce
  the profile (their exact-sample spectra separate cleanly).
* V1: the exact-sample function system on the short parameter arc is
  numerically degenerate at degrees 5-6 (non-member combinations with
  evaluation norms down to ~1e-10), so no single tiny epsilon is reliable
  there; instead we require that, on mildly perturbed samples, the epsilon
  scan finds a nonempty window whose profile equals the target (the noise
  floor lifts the fine-tuned near-vanishing combinations but not the true
  generator).

A regeneration that drifts from the algebra fails loudly instead of
shipping a bad file.
"""

import json
import sys
from pathlib import Path

from mavik.datasets import center_and_unitbox, perturb, sample_variety
from mavik.engine import EngineConfig, Fitter, NormalizationMode, fit
from mavik.retrieval import _matches_target, grid_epsilons, mode_from_kind, scan_g_profiles

EXPECTED = {
    "V1": [0, 0, 0, 0, 0, 0, 1],
    "V2": [0, 1, 0, 1],
    "V3": [0, 0, 0, 0, 1],
}
SAMPLE_COUNT = 300
EPSILON = 1e-10
SEED = 0


def exact_fit_profile(which, max_degree):
    X = center_and_unitbox(sample_variety(which, SAMPLE_COUNT, seed=SEED))
    mode = NormalizationMode.gradient(z=1.0)
    _, report = fit(X, EngineConfig(epsilon=EPSILON, mode=mode, max_degree=max_degree))
    counts = report.g_counts + [0] * (max_degree + 1 - len(report.g_counts))
    return counts[: max_degree + 1]


def noisy_window_exists(which, target, nu=0.05):
    # nu in the regime the retrieval experiments run at: smaller noise lets
    # the exact-sample degeneracy (adaptive near-vanishing combinations)
    # resurface and the window closes again.
    clean = center_and_unitbox(sample_variety(which, 100, seed=SEED))
    X = perturb(clean, nu, seed=SEED + 1)
    mode = mode_from_kind("grad", n_points=len(X))
    profiles = scan_g_profiles(Fitter(X), mode, len(target) - 1, grid_epsilons(1.0))
    return any(_matches_target(p, target) for p in profiles)


def main():
    for which, expected in EXPECTED.items():
        if which == "V1":
            ok = noisy_window_exists(which, expected)
            detail = "noisy epsilon-scan window"
        else:
            got = exact_fit_profile(which, max_degree=len(expected) - 1)
            ok = got == expected
            detail = f"exact fit gave {got}"
        if not ok:
            print(f"{which}: cross-check failed ({detail}); expected {expected}",
                  file=sys.stderr)
            return 1
        print(f"{which}: {expected} confirmed ({detail})")
    out = Path(__file__).resolve().parents[1] / "src" / "mavik" / "data" / "target_profiles.json"
    payload = {
        "schema_version": 1,
        "method": {
            "derivation": "degrees of the defining systems",
            "cross_check": {
                "V1": "epsilon-scan window at noise 0.05, 100 samples",
                "V2": f"exact-sample fit, epsilon {EPSILON}, {SAMPLE_COUNT} samples",
                "V3": f"exact-sample fit, epsilon {EPSILON}, {SAMPLE_COUNT} samples",
            },
            "seed": SEED,
        },
        "profiles": EXPECTED,
    }
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
