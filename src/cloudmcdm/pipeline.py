"""Config-driven evaluation pipeline and report model.

One JSON config references every input (hierarchy, judgment matrices, data,
ratings, grade scheme, seed, droplet counts), so an evaluation is archivable
and replayable. report.json has the bytes of `json.dumps(sort_keys=True, indent=2)`
(orjson writes them) with floats at REPORT_DIGITS significant digits, so a last-ulp
difference between platforms changes it only through a value within an ulp of a
rounding boundary (none in the demo reports). droplets.csv keeps full-precision
floats and diagram.svg writes coordinates at 2 decimals; both replay byte for
byte on one machine, but droplets.csv may differ in the last digit across numpy
builds and CPUs.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cloud import (AGGREGATIONS, DEFAULT_SCHEME, MIN_DROPLETS, MIN_SAMPLES, CloudParams, GradeScheme,
                    aggregate_clouds, forward_cloud, grade_clouds, indicator_cloud, load_scheme)
from .cloud import assign_grade  # unused; stays bound because perfbench/spans.py wraps it by name
from .combiner import combine_weights
from .dataprep import (MISSING, DataMatrix, json_float, json_int, json_object, json_str, json_value, load_data_csv,
                       min_max_normalize, read_json)
from .ewm import MIN_OBJECTS, WeightVector, entropy_weights
from .fce import fce_score, membership_matrix
from .hierarchy import IndexHierarchy, leaf_indicators, load_hierarchy, validate_hierarchy
from .iahp import RepairConfig, RepairError, load_judgment_csv, weigh_judgments
from .iahp import auto_correct, principal_weights  # unused; perfbench/spans.py wraps both by name

ENV_SEED = "CLOUDMCDM_SEED"

# Significant digits of every float in report.json. The similarities sum numpy's
# SIMD exp over quadrature nodes, and its last ulp depends on the numpy build and
# the CPU; a 1-ulp change in any demo report value does not change it at 12 digits,
# and the quadrature itself is only accurate to about 1e-14.
REPORT_DIGITS = 12


class PipelineConfig(NamedTuple):
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
    repair: RepairConfig = RepairConfig()  # keys sigma, tau and max_iter
    source: Path | None = None  # the config file, named in errors about its keys

    @staticmethod
    def from_json(path: str | Path, seed: int | None = None, sigma: float | None = None,
                  tau: float | None = None) -> "PipelineConfig":
        """Load a config file; paths resolve relative to the file. A syntax
        error, a missing, mistyped or out-of-range value and an unknown key are
        ValueErrors naming the file and key; a `sigma` or `tau` argument out of
        range is one naming neither, and a negative `seed` one naming `--seed`.

        Seed precedence: explicit argument > config value > CLOUDMCDM_SEED
        environment variable > 0.
        """
        path = Path(path)
        doc = read_json(path)
        base = path.parent

        read = set()

        def value(key, convert, default=MISSING):
            read.add(key)
            return json_value(path, doc, key, convert, default)

        def refs(table):
            return {k: base / v for k, v in json_object(table).items()}

        def aggregation(v):
            if v not in AGGREGATIONS:
                raise ValueError(f"expected one of {AGGREGATIONS}")
            return v

        def repair_value(key, convert):
            # RepairConfig checks the file's value on its own, so that an error names the key
            return value(key, lambda v: getattr(RepairConfig(**{key: convert(v)}), key),
                         RepairConfig._field_defaults[key])

        def natural(v):  # numpy's SeedSequence rejects a negative seed
            if json_int(v) < 0:
                raise ValueError(f"seed must be non-negative, got {v}")
            return json_int(v)

        # the file's values are checked even when an argument overrides them
        file_seed = value("seed", lambda v: v if v is None else natural(v), None)
        file_sigma = repair_value("sigma", json_float)
        file_tau = repair_value("tau", json_float)
        if seed is not None and seed < 0:
            raise ValueError(f"--seed: seed must be non-negative, got {seed}")
        if seed is None:
            seed = file_seed
        if seed is None:
            env = os.environ.get(ENV_SEED, "0")
            try:
                seed = natural(int(env))
            except ValueError:
                raise ValueError(f"environment variable {ENV_SEED}: invalid seed {env!r}") from None
        cfg = PipelineConfig(
            scenario=value("scenario", json_str),
            hierarchy=value("hierarchy", base.joinpath),
            criterion_matrix=value("criterion_matrix", base.joinpath),
            indicator_matrices=value("indicator_matrices", refs, {}),
            data=value("data", base.joinpath),
            ratings=value("ratings", base.joinpath),
            scheme=value("scheme", base.joinpath) if "scheme" in doc else None,
            seed=int(seed),
            droplets=value("droplets", json_int, PipelineConfig._field_defaults["droplets"]),
            aggregation=value("aggregation", aggregation, PipelineConfig._field_defaults["aggregation"]),
            repair=RepairConfig(sigma=file_sigma if sigma is None else float(sigma),
                                tau=file_tau if tau is None else float(tau),
                                max_iter=repair_value("max_iter", json_int)),
            source=path,
        )
        unknown = sorted(doc.keys() - read)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {', '.join(map(repr, unknown))}")
        return cfg


class PipelineInputs(NamedTuple):
    hierarchy: IndexHierarchy
    leaves: list[str]
    data: DataMatrix
    normalized: DataMatrix
    ratings: DataMatrix
    scheme: GradeScheme
    subjective: dict[str, WeightVector]  # see _subjective_weights


class WeightSet(NamedTuple):
    theta: tuple[float, float]
    criterion: dict[str, WeightVector]           # kind -> weights over criterion ids
    indicator_global: dict[str, WeightVector]    # kind -> weights over all leaves
    local_combined: dict[str, WeightVector]      # criterion id -> leaf weights within it
    entropies: dict[str, float]

    def to_dict(self) -> dict:
        """The `weights` section of report.json; `cli weights` prints slices of it."""
        return {
            "theta": {"subjective": self.theta[0], "objective": self.theta[1]},
            "criterion": {k: v.as_dict() for k, v in self.criterion.items()},
            "indicator_global": {k: v.as_dict() for k, v in self.indicator_global.items()},
            "indicator_local_combined": {cid: v.as_dict() for cid, v in self.local_combined.items()},
            "indicator_entropy": self.entropies,
        }


class EvaluationReport(NamedTuple):
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
        """One key per field, in field order; the values are shared, not copied."""
        return self._asdict()

    def to_json_bytes(self) -> bytes:
        """The report.json bytes: `json.dumps(doc, sort_keys=True, indent=2)` and a newline,
        written by one orjson call. doc is `to_dict` with every float at REPORT_DIGITS significant
        digits, which a one-ulp platform difference changes only across a rounding boundary."""
        import orjson  # local import: validate and weights never load it
        spliced = []
        raw = orjson.dumps(_json_doc(self.to_dict(), spliced),
                           option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE)
        # every other string orjson wrote is printable ASCII, so only a placeholder reads "\u0000<k>"
        return re.sub(rb'"\\u0000(\d+)"', lambda m: spliced[int(m[1])], raw) if spliced else raw


def _json_doc(doc, spliced: list):
    """`doc` for orjson: floats at REPORT_DIGITS significant digits, dicts in sorted key
    order, and each key or value whose orjson text is not json.dumps's (a float outside
    1e-4 <= |v| < 1e16 but the zeros, NaN and +-inf among them, an int outside
    [-2**63, 2**64), a string json.dumps escapes) as "\\x00<k>", its json.dumps text at spliced[k]."""
    if isinstance(doc, float):
        doc = float(f"{doc:.{REPORT_DIGITS}g}")
        plain = 1e-4 <= abs(doc) < 1e16 or doc == 0.0
    elif isinstance(doc, dict):  # a key is a str, as orjson requires
        return {k if k.isascii() and k.isprintable() else _json_doc(k, spliced): _json_doc(v, spliced)
                for k, v in sorted(doc.items())}
    elif isinstance(doc, (list, tuple)):
        return [_json_doc(v, spliced) for v in doc]
    elif isinstance(doc, str):  # json.dumps escapes all but printable ASCII
        plain = doc.isascii() and doc.isprintable()
    else:  # True, False and None read alike
        plain = not isinstance(doc, int) or -2**63 <= doc < 2**64
    if plain:
        return doc
    spliced.append(json.dumps(doc).encode())
    return f"\x00{len(spliced) - 1}"


def hierarchy_digest(h: IndexHierarchy) -> str:
    doc = {
        "root": h.root_id,
        "nodes": {
            nid: [n.label, n.layer, n.direction, n.parent_id, list(n.children)]
            for nid, n in sorted(h.nodes.items())
        },
    }
    import hashlib  # local import: only evaluate takes a digest
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def load_inputs(cfg: PipelineConfig) -> PipelineInputs:
    """Every input a run reads, loaded and checked: hierarchy, data, ratings, scheme
    and judgment matrices, each matrix repaired and weighed. Every command loads
    through here, `validate` included."""
    h = load_hierarchy(cfg.hierarchy)
    violations = validate_hierarchy(h)
    if violations:
        raise ValueError(f"{cfg.hierarchy}: invalid hierarchy: " + "; ".join(violations))
    leaves = leaf_indicators(h)
    data = load_data_csv(cfg.data, leaves)
    if len(data.object_ids) < MIN_OBJECTS:
        raise ValueError(f"{cfg.data}: entropy weighting needs at least {MIN_OBJECTS} evaluation objects, "
                         f"got {len(data.object_ids)}")
    try:
        z = min_max_normalize(data, h.cost_leaves())
    except ValueError as e:  # a non-finite cell or an overflowing range
        raise ValueError(f"{cfg.data}: {e}") from None
    ratings = load_data_csv(cfg.ratings, leaves)
    if len(ratings.object_ids) < MIN_SAMPLES:
        raise ValueError(f"{cfg.ratings}: backward generator needs at least {MIN_SAMPLES} rating samples, "
                         f"got {len(ratings.object_ids)}")
    v = ratings.values
    if not (v.min() >= 0 and v.max() <= 100):  # NaN fails both; only then are the masks built
        bad, what = ~np.isfinite(v), "non-finite rating"
        if not bad.any():
            bad, what = (v < 0) | (v > 100), "rating outside [0, 100]"
        s, k = np.argwhere(bad)[0]
        raise ValueError(f"{cfg.ratings}: {what} at sample {ratings.object_ids[s]!r}, "
                         f"indicator {ratings.indicator_ids[k]!r}: {float(v[s, k])}")
    scheme = load_scheme(cfg.scheme) if cfg.scheme else DEFAULT_SCHEME
    return PipelineInputs(h, leaves, data, z, ratings, scheme, _subjective_weights(h, cfg))


def _subjective_weights(h: IndexHierarchy, cfg: PipelineConfig) -> dict[str, WeightVector]:
    """Local AHP weights of every group: the criteria under the root id, then each
    criterion's leaves under its id. The matrices are loaded in that order and
    weighed in one `weigh_judgments` call; those before a file that fails to load
    are weighed first, so the first faulty file in config order is the one named.
    A criterion with one leaf needs no matrix: it is weighed as the order-1 matrix
    `1`, which gives weight 1, and a matrix configured for it must read `1`.

    A matrix whose order does not match its group, that is not a valid reciprocal
    matrix on the 1/9..9 scale or that the repair cannot fix is a ValueError naming
    the file; a missing or unknown `indicator_matrices` key is one naming the config.
    """
    config = cfg.source or "config"
    unknown = sorted(cfg.indicator_matrices.keys() - set(h.criterion_ids()))
    if unknown:
        raise ValueError(f"{config}: 'indicator_matrices' keys {', '.join(map(repr, unknown))} "
                         f"name no criterion of {cfg.hierarchy}")
    groups = [(h.root_id, h.criterion_ids(), cfg.criterion_matrix, "criteria")] + [
        (cid, leaf_indicators(h, cid), cfg.indicator_matrices.get(cid), f"leaves of {cid}")
        for cid in h.criterion_ids()]
    loaded, failed = [], None
    for key, ids, path, what in groups:
        try:
            if path is None and len(ids) > 1:
                raise ValueError(f"{config}: no judgment matrix configured for criterion {key!r}")
            j = np.ones((1, 1)) if path is None else load_judgment_csv(path)
            if j.shape[0] != len(ids):
                raise ValueError(f"{path}: order {j.shape[0]} does not match {len(ids)} {what}")
        except (ValueError, OSError) as e:
            failed = e
            break
        loaded.append((key, ids, path, j))
    weighed = weigh_judgments([j for *_, j in loaded], cfg.repair)
    for (_, _, path, _), got in zip(loaded, weighed):
        if isinstance(got, Exception):
            why = "judgment-matrix repair failed: " if isinstance(got, RepairError) else ""
            raise ValueError(f"{path}: {why}{got}") from None
    if failed:
        raise failed
    return {key: WeightVector(tuple(ids), got[1]) for (key, ids, _, _), got in zip(loaded, weighed)}


def _by_criterion(h: IndexHierarchy, w: WeightVector) -> tuple[WeightVector, dict[str, WeightVector]]:
    """Per-criterion sums of global leaf weights (in leaf order), renormalized, and each
    criterion's leaf weights renormalized within it (uniform if all zero)."""
    sums, local, start = [], {}, 0
    for cid in h.criterion_ids():
        ids = leaf_indicators(h, cid)
        part = w.weights[start:start + len(ids)]
        start += len(ids)
        sums.append(sum(part.tolist()))
        total = part.sum()
        local[cid] = WeightVector(tuple(ids), np.full(len(ids), 1.0 / len(ids)) if total == 0 else part / total)
    sums = np.array(sums)
    return WeightVector(tuple(h.criterion_ids()), sums / sums.sum()), local


def compute_weights(inputs: PipelineInputs) -> WeightSet:
    h = inputs.hierarchy
    crit_s = inputs.subjective[h.root_id]
    # global subjective = criterion weight x local leaf weight, in leaf order
    global_s = WeightVector(tuple(inputs.leaves), np.concatenate(
        [w * inputs.subjective[cid].weights for cid, w in zip(crit_s.indicator_ids, crit_s.weights)]))
    global_o, entropies = entropy_weights(inputs.normalized)
    combo = combine_weights(global_s, global_o, inputs.normalized)
    crit_c, local_c = _by_criterion(h, combo.combined)
    return WeightSet(
        theta=combo.theta,
        criterion={"subjective": crit_s, "objective": _by_criterion(h, global_o)[0],
                   "combined": crit_c},
        indicator_global={"subjective": global_s, "objective": global_o, "combined": combo.combined},
        local_combined=local_c,
        entropies=dict(zip(inputs.leaves, (float(e) for e in entropies))),
    )


def score_clouds(inputs: PipelineInputs, ws: WeightSet, cfg: PipelineConfig
                 ) -> tuple[dict[str, CloudParams], dict[str, CloudParams], CloudParams]:
    """Leaf clouds from the ratings, criterion clouds aggregated from them with the
    local combined weights, and the comprehensive cloud aggregated from those."""
    h = inputs.hierarchy
    leaf_clouds = dict(zip(inputs.leaves, indicator_cloud(inputs.ratings.values)))
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
    if cfg.droplets < MIN_DROPLETS:
        raise ValueError(f"droplets.csv needs at least {MIN_DROPLETS} droplets, got {cfg.droplets}")
    inputs = load_inputs(cfg)
    ws = compute_weights(inputs)
    leaf_clouds, crit_clouds, comprehensive = score_clouds(inputs, ws, cfg)

    (grade, sim_table), *crit_grades = grade_clouds([comprehensive, *crit_clouds.values()], inputs.scheme)
    crit_entries = {cid: {"ex": cloud.ex, "en": cloud.en, "he": cloud.he, "grade": g, "similarity": table}
                    for (cid, cloud), (g, table) in zip(crit_clouds.items(), crit_grades)}

    m = membership_matrix([leaf_clouds[i].ex for i in inputs.leaves], inputs.scheme)
    fce = fce_score(m, ws.indicator_global["combined"], inputs.scheme)

    report = EvaluationReport(
        scenario=cfg.scenario,
        seed=cfg.seed,
        aggregation=cfg.aggregation,
        hierarchy_digest=hierarchy_digest(inputs.hierarchy),
        scheme={"he_ratio": inputs.scheme.he_ratio,
                "bands": [{"label": l, "lower": lo, "upper": hi} for l, lo, hi in inputs.scheme.bands]},
        weights=ws.to_dict(),
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

        (out / "diagram.svg").write_bytes(cloud_diagram(comprehensive, inputs.scheme, seed=cfg.seed))
    return report


# rows per block of droplets.csv: a block's text, about 37 bytes a row on the demo,
# stays under glibc's 128 KiB mmap threshold, so its buffers come from the heap
_CSV_BLOCK_ROWS = 2048


def droplets_csv_bytes(drops) -> bytes:
    """`x,mu` header, then one `x,mu` row per droplet, each value as Python's
    `repr` of the float64: its shortest round-trip digits.

    orjson formats each block of _CSV_BLOCK_ROWS rows in one call. It writes the
    same digits as repr, and the same text wherever 1e-4 <= |v| < 1e16 or v is
    +-0.0. Outside that range it writes small values positionally
    (`0.00006079666133681959`) or without repr's exponent sign and padding
    (`1e-7`, `1e16`), and non-finite ones as `null`; each such value is spliced
    in as its own repr. The block texts are joined once, so the traced peak is
    about twice the output: the blocks and the joined bytes.
    """
    pieces = [b"x,mu\n"]
    for start in range(0, len(drops.x), _CSV_BLOCK_ROWS):
        rows = slice(start, start + _CSV_BLOCK_ROWS)
        pieces += _csv_block(drops.x[rows], drops.mu[rows])
    return b"".join(pieces)


def _csv_block(x, mu) -> list:
    """The rows of one block: views of its orjson text and the repr of each value
    orjson writes otherwise, in order."""
    import orjson  # local import: validate and weights never load it

    xmu = np.empty(2 * len(x))  # x0,mu0,x1,mu1,... as float64, so an integer value still reads 50.0
    xmu[0::2], xmu[1::2] = x, mu
    a = np.abs(xmu)
    off = np.flatnonzero(~((a >= 1e-4) & (a < 1e16) | (a == 0)))  # NaN fails every comparison
    reprs = [repr(v).encode() for v in xmu[off].tolist()]
    text = bytearray(orjson.dumps(xmu, option=orjson.OPT_SERIALIZE_NUMPY))
    # with the brackets read as commas, value k lies between delimiters k and k + 1,
    # and every second delimiter from the third on ends a row
    buf = np.frombuffer(text, np.uint8)
    buf[[0, -1]] = ord(",")
    delims = np.flatnonzero(buf == ord(","))
    buf[delims[2::2]] = ord("\n")
    view, at, pieces = memoryview(text), 1, []
    for start, stop, r in zip((delims[off] + 1).tolist(), delims[off + 1].tolist(), reprs):
        pieces += (view[at:start], r)
        at = stop
    pieces.append(view[at:])
    return pieces


def load_report(path: str | Path) -> dict:
    """A report.json document, checked for what `compare_scenarios` reads: a missing
    key, a cloud that is not a JSON object and a cloud parameter that is not a finite
    number are ValueErrors naming the file and key."""
    doc = read_json(path)
    for key in ("scenario", "hierarchy_digest", "scheme", "grade"):
        json_value(path, doc, key, lambda v: v)
    clouds = {"comprehensive_cloud": json_value(path, doc, "comprehensive_cloud", lambda v: v)}
    criteria = json_value(path, doc, "criterion_clouds", json_object)
    clouds.update((f"criterion_clouds.{cid}", cloud) for cid, cloud in criteria.items())
    for where, cloud in clouds.items():
        for key in ("ex", "en", "he"):
            json_value(path, cloud, key, json_float, where=where)
    return doc


def compare_scenarios(da: dict, db: dict, names: tuple[str, str] = ("first report", "second report")) -> dict:
    """Per-level parameter deltas between two report documents (`load_report` or
    `EvaluationReport.to_dict`) on the same hierarchy, scheme and criteria; `names`
    name the two reports in the ValueError raised otherwise.

    Flags the three directional signals individually: delta Ex > 0,
    delta En < 0, delta He < 0 on the comprehensive cloud.
    """
    na, nb = names
    if da["hierarchy_digest"] != db["hierarchy_digest"]:
        raise ValueError(f"{na} and {nb} were produced from different hierarchies")
    if da["scheme"] != db["scheme"]:
        raise ValueError(f"{na} and {nb} use different grade schemes")
    ca, cb = da["criterion_clouds"], db["criterion_clouds"]
    for holder, mine, other, theirs in ((na, ca, nb, cb), (nb, cb, na, ca)):
        extra = [cid for cid in mine if cid not in theirs]
        if extra:
            raise ValueError(f"{holder}: criterion {extra[0]!r} is not in {other}")

    def delta(pa: dict, pb: dict) -> dict:
        return {k: {"a": pa[k], "b": pb[k], "delta": pb[k] - pa[k]} for k in ("ex", "en", "he")}

    comp = delta(da["comprehensive_cloud"], db["comprehensive_cloud"])
    criteria = {cid: delta(pa, cb[cid]) for cid, pa in ca.items()}
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
