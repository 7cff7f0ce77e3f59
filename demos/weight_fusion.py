"""Compare subjective, objective, and fused indicator weights on the demo data.

Run: python3 demos/weight_fusion.py
"""

from pathlib import Path

from cloudmcdm.pipeline import PipelineConfig, compute_weights, load_inputs

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"

cfg = PipelineConfig.from_json(DEMO / "config_before.json")
inputs = load_inputs(cfg)
w = compute_weights(inputs).to_dict()  # the `weights` section of report.json

print(f"fusion coefficients theta = ({w['theta']['subjective']:.4f}, {w['theta']['objective']:.4f})")
print(f"{'criterion':<10}{'subjective':>12}{'objective':>12}{'combined':>12}")
for cid in w["criterion"]["subjective"]:
    print(f"{cid:<10}" + "".join(f"{w['criterion'][kind][cid]:>12.4f}"
                                 for kind in ("subjective", "objective", "combined")))

# the five most influential leaf indicators under the fused weighting
top = sorted(w["indicator_global"]["combined"].items(), key=lambda kv: -kv[1])[:5]
print("\ntop 5 leaf indicators by combined weight:")
for leaf, weight in top:
    print(f"  {leaf}: {weight:.4f}")
