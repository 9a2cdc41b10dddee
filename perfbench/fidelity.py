"""Model-vs-paper error over the emergent groups of ``repro.harness.scorecard``.

Usage: ``python perfbench/fidelity.py`` (with the sources on the path)
prints ``{"fidelity_mean_err": ..., "fidelity_max_err": ...}`` in
percent: the point-weighted mean and the maximum absolute relative
error over every group except the anchored (calibrated) ones.
"""

from __future__ import annotations

import json

from repro.harness.scorecard import scorecard


def main() -> None:
    emergent = [s for s in scorecard() if "anchored" not in s.name]
    points = sum(s.n_points for s in emergent)
    print(
        json.dumps(
            {
                "fidelity_mean_err": 100 * sum(s.mean_abs_rel_err * s.n_points for s in emergent) / points,
                "fidelity_max_err": 100 * max(s.max_abs_rel_err for s in emergent),
            }
        )
    )


if __name__ == "__main__":
    main()
