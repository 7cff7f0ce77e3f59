"""Score a batch of expert ratings as a normal cloud and grade it.

Run: python3 demos/cloud_grading.py  (writes grading_demo.svg next to this file)
"""

from pathlib import Path

import numpy as np

from cloudmcdm.cloud import CloudParams, DEFAULT_SCHEME, assign_grade, forward_cloud, indicator_cloud
from cloudmcdm.svgplot import cloud_diagram

# pretend 200 experts scored one indicator; their ratings follow a normal cloud
ratings = np.clip(forward_cloud(CloudParams(82, 6, 1.5), 200, seed=7).x, 0, 100)

[concept] = indicator_cloud(ratings)  # one column, so one cloud
print(f"estimated cloud: Ex={concept.ex:.3f}  En={concept.en:.3f}  He={concept.he:.3f}")

label, similarities = assign_grade(concept, DEFAULT_SCHEME)
print("similarity to each grade band:")
for band, s in similarities.items():
    marker = "  <-- assigned" if band == label else ""
    print(f"  {band:<10} {s:.4f}{marker}")

out = Path(__file__).resolve().parent / "grading_demo.svg"
out.write_bytes(cloud_diagram(concept, DEFAULT_SCHEME, seed=0))
print(f"wrote {out}")
