"""Config-driven evaluation pipeline and report model.

One JSON config references every input (hierarchy, judgment matrices, data,
ratings, grade scheme, seed, droplet counts), so an evaluation is archivable
and replayable. Identical inputs and seed yield a byte-identical report.json on
every platform, because its floats are written at REPORT_DIGITS significant
digits. droplets.csv keeps full-precision floats and diagram.svg writes
coordinates at 2 decimals; both are byte-identical when replayed on one
machine, but droplets.csv may differ in the last digit across numpy builds and
CPUs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cloud import (
    CloudParams,
    DEFAULT_SCHEME,
    GradeScheme,
    aggregate_clouds,
    assign_grade,  # unused; stays bound because perfbench/spans.py wraps pipeline.assign_grade by name
    forward_cloud,
    grade_clouds,
    indicator_cloud,
    load_scheme,
)
from .combiner import combine_weights
from .dataprep import DataMatrix, load_data_csv, min_max_normalize
from .ewm import WeightVector, entropy_weights
from .fce import fce_score, membership_matrix
from .hierarchy import IndexHierarchy, leaf_indicators, load_hierarchy, validate_hierarchy
from .iahp import RepairConfig, auto_correct, load_judgment_csv, principal_weights

ENV_SEED = "CLOUDMCDM_SEED"

# Significant digits of every float in report.json. The Monte Carlo similarities
# take the mean of numpy's SIMD exp, whose last ulp depends on the numpy build and
# the CPU; a 1-ulp change in any demo report value does not change it at 12 digits,
# and the similarities carry a standard error of about 1e-3.
REPORT_DIGITS = 12


@dataclass(frozen=True)
class PipelineConfig:
    scenario: str
    hierarchy: Path
    criterion_matrix: Path
    indicator_matrices: dict[str, Path]
    data: Path
    ratings: Path
    scheme: Path | None = None
    seed: int = 0
    droplets: int = 20_000
    aggregation: str = "linear"
    sigma: float = 0.8
    tau: float = 0.1
    max_iter: int = 20

    @staticmethod
    def from_json(path: str | Path, seed: int | None = None, sigma: float | None = None,
                  tau: float | None = None) -> "PipelineConfig":
        """Load a config file; paths resolve relative to the file.

        Seed precedence: explicit argument > config value > CLOUDMCDM_SEED
        environment variable > 0.
        """
        path = Path(path)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        base = path.parent

        def ref(key):
            if key not in doc:
                raise ValueError(f"{path}: config is missing required key {key!r}")
            return base / doc[key]

        if "scenario" not in doc:
            raise ValueError(f"{path}: config is missing required key 'scenario'")

        if seed is None:
            seed = doc.get("seed")
        if seed is None:
            seed = int(os.environ.get(ENV_SEED, 0))
        return PipelineConfig(
            scenario=str(doc["scenario"]),
            hierarchy=ref("hierarchy"),
            criterion_matrix=ref("criterion_matrix"),
            indicator_matrices={k: base / v for k, v in doc.get("indicator_matrices", {}).items()},
            data=ref("data"),
            ratings=ref("ratings"),
            scheme=base / doc["scheme"] if "scheme" in doc else None,
            seed=int(seed),
            droplets=int(doc.get("droplets", 20_000)),
            aggregation=str(doc.get("aggregation", "linear")),
            sigma=float(sigma if sigma is not None else doc.get("sigma", 0.8)),
            tau=float(tau if tau is not None else doc.get("tau", 0.1)),
            max_iter=int(doc.get("max_iter", 20)),
        )


@dataclass
class PipelineInputs:
    hierarchy: IndexHierarchy
    leaves: list[str]
    data: DataMatrix
    normalized: DataMatrix
    ratings: DataMatrix
    scheme: GradeScheme


@dataclass
class WeightSet:
    theta: tuple[float, float]
    global_subjective: WeightVector
    global_objective: WeightVector
    global_combined: WeightVector
    criterion: dict[str, WeightVector]           # kind -> weights over criterion ids
    local_combined: dict[str, WeightVector]      # criterion id -> leaf weights within it
    entropies: dict[str, float]


@dataclass
class EvaluationReport:
    scenario: str
    seed: int
    aggregation: str
    hierarchy_digest: str
    scheme: dict
    weights: dict
    criterion_clouds: dict
    comprehensive_cloud: dict
    grade: str
    similarity: dict
    fce: dict
    tool_version: str = __version__

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "aggregation": self.aggregation,
            "hierarchy_digest": self.hierarchy_digest,
            "scheme": self.scheme,
            "weights": self.weights,
            "criterion_clouds": self.criterion_clouds,
            "comprehensive_cloud": self.comprehensive_cloud,
            "grade": self.grade,
            "similarity": self.similarity,
            "fce": self.fce,
            "tool_version": self.tool_version,
        }

    def to_json_bytes(self) -> bytes:
        """The report.json bytes: sorted keys, every float at REPORT_DIGITS
        significant digits, so the bytes are the same on every platform.
        `to_dict` and the report itself keep full precision."""
        self._check_simplex()
        return (json.dumps(_round_floats(self.to_dict()), sort_keys=True, indent=2) + "\n").encode()

    def _check_simplex(self) -> None:
        # defense in depth: every emitted weight table must sit on the simplex
        tables = [self.weights["criterion"][k] for k in self.weights["criterion"]]
        tables.append(self.weights["indicator_global"]["combined"])
        tables.append(self.weights["indicator_global"]["subjective"])
        tables.append(self.weights["indicator_global"]["objective"])
        for table in tables:
            total = sum(table.values())
            if abs(total - 1.0) > 1e-9 or any(v < -1e-12 for v in table.values()):
                raise ValueError(f"weight table leaves the simplex (sum {total})")

    @staticmethod
    def from_dict(doc: dict) -> "EvaluationReport":
        return EvaluationReport(
            scenario=doc["scenario"], seed=doc["seed"], aggregation=doc["aggregation"],
            hierarchy_digest=doc["hierarchy_digest"], scheme=doc["scheme"], weights=doc["weights"],
            criterion_clouds=doc["criterion_clouds"], comprehensive_cloud=doc["comprehensive_cloud"],
            grade=doc["grade"], similarity=doc["similarity"], fce=doc["fce"],
            tool_version=doc.get("tool_version", __version__),
        )


def _round_floats(doc):
    """Copy of a JSON document with every float at REPORT_DIGITS significant digits."""
    if isinstance(doc, float):
        return float(f"{doc:.{REPORT_DIGITS}g}")
    if isinstance(doc, dict):
        return {k: _round_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_round_floats(v) for v in doc]
    return doc


def hierarchy_digest(h: IndexHierarchy) -> str:
    doc = {
        "root": h.root_id,
        "nodes": {
            nid: [n.label, n.layer, n.direction, n.parent_id, list(n.children)]
            for nid, n in sorted(h.nodes.items())
        },
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def load_inputs(cfg: PipelineConfig) -> PipelineInputs:
    h = load_hierarchy(cfg.hierarchy)
    violations = validate_hierarchy(h)
    if violations:
        raise ValueError("invalid hierarchy: " + "; ".join(violations))
    leaves = leaf_indicators(h)
    data = load_data_csv(cfg.data, leaves)
    z = min_max_normalize(data, h.directions())
    ratings = load_data_csv(cfg.ratings, leaves)
    for bad, what in ((~np.isfinite(ratings.values), "non-finite rating"),
                      ((ratings.values < 0) | (ratings.values > 100), "rating outside [0, 100]")):
        if bad.any():
            s, k = np.argwhere(bad)[0]
            raise ValueError(f"{cfg.ratings}: {what} at sample {ratings.object_ids[s]!r}, "
                             f"indicator {ratings.indicator_ids[k]!r}: {float(ratings.values[s, k])}")
    scheme = load_scheme(cfg.scheme) if cfg.scheme else DEFAULT_SCHEME
    return PipelineInputs(h, leaves, data, z, ratings, scheme)


def _subjective_weights(inputs: PipelineInputs, cfg: PipelineConfig
                        ) -> tuple[WeightVector, dict[str, WeightVector]]:
    """Criterion-layer weights and per-criterion local leaf weights via repaired AHP."""
    h = inputs.hierarchy
    repair = RepairConfig(sigma=cfg.sigma, tau=cfg.tau, max_iter=cfg.max_iter)
    crit_ids = h.criterion_ids()

    def weights_for(matrix_path: Path, ids: list[str], what: str) -> WeightVector:
        if len(ids) == 1:
            return WeightVector(tuple(ids), np.array([1.0]), kind="subjective")
        j = load_judgment_csv(matrix_path)
        if j.shape[0] != len(ids):
            raise ValueError(f"{matrix_path}: order {j.shape[0]} does not match {len(ids)} {what}")
        repaired, _ = auto_correct(j, repair)
        return principal_weights(repaired, ids=ids)

    crit_w = weights_for(cfg.criterion_matrix, crit_ids, "criteria")
    local: dict[str, WeightVector] = {}
    for cid in crit_ids:
        ids = leaf_indicators(h, cid)
        if len(ids) > 1 and cid not in cfg.indicator_matrices:
            raise ValueError(f"no judgment matrix configured for criterion {cid!r}")
        path = cfg.indicator_matrices.get(cid)
        local[cid] = weights_for(path, ids, f"leaves of {cid}")
    return crit_w, local


def _level_sums(h: IndexHierarchy, global_w: WeightVector, kind: str) -> WeightVector:
    """Criterion-layer weights as per-criterion sums of global leaf weights."""
    table = global_w.as_dict()
    ids = h.criterion_ids()
    sums = np.array([sum(table[leaf] for leaf in leaf_indicators(h, cid)) for cid in ids])
    return WeightVector(tuple(ids), sums / sums.sum(), kind=kind)


def _localize(h: IndexHierarchy, global_w: WeightVector, kind: str) -> dict[str, WeightVector]:
    """Renormalize global leaf weights within each criterion (uniform if all zero)."""
    table = global_w.as_dict()
    out = {}
    for cid in h.criterion_ids():
        ids = leaf_indicators(h, cid)
        w = np.array([table[leaf] for leaf in ids])
        total = w.sum()
        w = np.full(len(ids), 1.0 / len(ids)) if total == 0 else w / total
        out[cid] = WeightVector(tuple(ids), w, kind=kind)
    return out


def compute_weights(inputs: PipelineInputs, cfg: PipelineConfig) -> WeightSet:
    h = inputs.hierarchy
    crit_s, local_s = _subjective_weights(inputs, cfg)

    # global subjective = criterion weight x local leaf weight
    gs = {leaf: crit_s.as_dict()[cid] * lw
          for cid, wv in local_s.items() for leaf, lw in wv.as_dict().items()}
    global_s = WeightVector(tuple(inputs.leaves), np.array([gs[i] for i in inputs.leaves]),
                            kind="subjective")

    global_o, entropies = entropy_weights(inputs.normalized)
    combo = combine_weights(global_s, global_o, inputs.normalized)

    criterion = {
        "subjective": crit_s,
        "objective": _level_sums(h, global_o, "objective"),
        "combined": _level_sums(h, combo.combined, "combined"),
    }
    return WeightSet(
        theta=combo.theta,
        global_subjective=global_s,
        global_objective=global_o,
        global_combined=combo.combined,
        criterion=criterion,
        local_combined=_localize(h, combo.combined, "combined"),
        entropies=dict(zip(inputs.leaves, (float(e) for e in entropies))),
    )


def score_clouds(inputs: PipelineInputs, ws: WeightSet, cfg: PipelineConfig
                 ) -> tuple[dict[str, CloudParams], dict[str, CloudParams], CloudParams]:
    """Leaf clouds from the ratings, criterion clouds aggregated from them with the
    local combined weights, and the comprehensive cloud aggregated from those."""
    h = inputs.hierarchy
    leaf_clouds = {leaf: indicator_cloud(inputs.ratings.values[:, k])
                   for k, leaf in enumerate(inputs.leaves)}
    crit_clouds = {cid: aggregate_clouds([leaf_clouds[i] for i in leaf_indicators(h, cid)],
                                         ws.local_combined[cid], strategy=cfg.aggregation)
                   for cid in h.criterion_ids()}
    comprehensive = aggregate_clouds(list(crit_clouds.values()), ws.criterion["combined"],
                                     strategy=cfg.aggregation)
    return leaf_clouds, crit_clouds, comprehensive


def run_pipeline(config: PipelineConfig | str | Path, out_dir: str | Path | None = None
                 ) -> EvaluationReport:
    """Execute the full chain: hierarchy -> normalization -> subjective/objective/
    combined weighting -> cloud scoring -> grading -> FCE cross-check.

    With `out_dir`, writes report.json, droplets.csv (comprehensive cloud) and
    diagram.svg there.
    """
    cfg = config if isinstance(config, PipelineConfig) else PipelineConfig.from_json(config)
    inputs = load_inputs(cfg)
    ws = compute_weights(inputs, cfg)
    h = inputs.hierarchy
    leaf_clouds, crit_clouds, comprehensive = score_clouds(inputs, ws, cfg)

    (grade, sim_table), *crit_grades = grade_clouds(
        [comprehensive, *crit_clouds.values()], inputs.scheme, n=cfg.droplets, seed=cfg.seed)
    crit_entries = {cid: {"ex": cloud.ex, "en": cloud.en, "he": cloud.he, "grade": g, "similarity": table}
                    for (cid, cloud), (g, table) in zip(crit_clouds.items(), crit_grades)}

    leaf_scores = [min(100.0, max(0.0, leaf_clouds[i].ex)) for i in inputs.leaves]
    m = membership_matrix(leaf_scores, inputs.scheme)
    fce = fce_score(m, ws.global_combined, inputs.scheme)

    report = EvaluationReport(
        scenario=cfg.scenario,
        seed=cfg.seed,
        aggregation=cfg.aggregation,
        hierarchy_digest=hierarchy_digest(h),
        scheme={"he_ratio": inputs.scheme.he_ratio,
                "bands": [{"label": l, "lower": lo, "upper": hi} for l, lo, hi in inputs.scheme.bands]},
        weights={
            "theta": {"subjective": ws.theta[0], "objective": ws.theta[1]},
            "criterion": {k: v.as_dict() for k, v in ws.criterion.items()},
            "indicator_global": {
                "subjective": ws.global_subjective.as_dict(),
                "objective": ws.global_objective.as_dict(),
                "combined": ws.global_combined.as_dict(),
            },
            "indicator_local_combined": {cid: v.as_dict() for cid, v in ws.local_combined.items()},
            "indicator_entropy": ws.entropies,
        },
        criterion_clouds=crit_entries,
        comprehensive_cloud={"ex": comprehensive.ex, "en": comprehensive.en, "he": comprehensive.he},
        grade=grade,
        similarity=sim_table,
        fce={"score": fce, "gap_vs_cloud_ex": fce - comprehensive.ex},
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_bytes(report.to_json_bytes())
        drops = forward_cloud(comprehensive, cfg.droplets, cfg.seed)
        (out / "droplets.csv").write_bytes(droplets_csv_bytes(drops))
        from .svgplot import cloud_diagram  # local import: keeps plotting optional

        (out / "diagram.svg").write_text(
            cloud_diagram(comprehensive, inputs.scheme, seed=cfg.seed), encoding="utf-8"
        )
    return report


def droplets_csv_bytes(drops) -> bytes:
    lines = ["x,mu"]
    lines += [f"{repr(float(x))},{repr(float(mu))}" for x, mu in zip(drops.x, drops.mu)]
    return ("\n".join(lines) + "\n").encode()


def compare_scenarios(a: EvaluationReport | dict, b: EvaluationReport | dict) -> dict:
    """Per-level parameter deltas between two reports on the same hierarchy/scheme.

    Flags the three directional signals individually: delta Ex > 0,
    delta En < 0, delta He < 0 on the comprehensive cloud.
    """
    da = a.to_dict() if isinstance(a, EvaluationReport) else a
    db = b.to_dict() if isinstance(b, EvaluationReport) else b
    if da["hierarchy_digest"] != db["hierarchy_digest"]:
        raise ValueError("reports were produced from different hierarchies")
    if da["scheme"] != db["scheme"]:
        raise ValueError("reports use different grade schemes")

    def delta(pa: dict, pb: dict) -> dict:
        return {k: {"a": pa[k], "b": pb[k], "delta": pb[k] - pa[k]} for k in ("ex", "en", "he")}

    comp = delta(da["comprehensive_cloud"], db["comprehensive_cloud"])
    criteria = {}
    for cid in da["criterion_clouds"]:
        if cid not in db["criterion_clouds"]:
            raise ValueError(f"criterion {cid!r} missing from second report")
        criteria[cid] = delta(da["criterion_clouds"][cid], db["criterion_clouds"][cid])
    return {
        "scenario_a": da["scenario"],
        "scenario_b": db["scenario"],
        "comprehensive": comp,
        "criteria": criteria,
        "flags": {
            "ex_increases": comp["ex"]["delta"] > 0,
            "en_decreases": comp["en"]["delta"] < 0,
            "he_decreases": comp["he"]["delta"] < 0,
        },
        "grades": {"a": da["grade"], "b": db["grade"]},
    }
