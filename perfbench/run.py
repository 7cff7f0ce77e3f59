"""cloudmcdm benchmark: one workload, one seed, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload demo --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Workloads (see perfbench/RECORD.md for why each was chosen):
  demo     run_pipeline on data/demo/config_before.json with the evaluation
           seed set to --seed, writing report.json, droplets.csv, diagram.svg
  scaled   the same call on a config generated from --seed at the engine's
           limits (perfbench/scaled_inputs.py)
  weights  cloudmcdm.cli.main(["weights", <scaled config>]) in-process, with
           stdout captured
  all      each of the above in its own process, one after another

Each operation runs only after the previous one has returned and its outputs
have been checked; the checks sit outside the timed interval. With --trace 0
the run reports the end-to-end metrics: operation time as a multiple of a
fixed probe timed around each operation (op_norm), which cancels the shared
host's changing speed, import time scaled the same way by a probe timed in the
importing interpreter (setup_s), and peak memory; wall times are printed
beside them. With --trace 1 it alternates untraced and traced
operations and reports per-layer self times and counts. Every line but the
last is for people; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("demo", "scaled", "weights")
ARTIFACTS = ("report.json", "droplets.csv", "diagram.svg")
BLAS_THREADS = "1"  # one client on a 2-vCPU host; BLAS threads only add scheduling noise to 15x15 products
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
# setup_s is the import time scaled to a host on which the probe takes 7 ms,
# roughly its time on an idle 2-vCPU host; see import_time()
PROBE_REF_S = 0.007
WARMUP_OPS = 2
GOLDEN_TOL = 1e-12
SIMPLEX_TOL = 1e-9
# Bound on the mean over a report's similarities of ((estimate - reference) /
# standard error at the configured droplet count)^2. It is about 1 for a correct
# program, but the clouds of one report share their random streams, so it varies
# like a chi-square with ~8 degrees of freedom: 3.1 was the largest in 200 seeds
# on `demo` and on `scaled`. Grading with a tenth of the droplets makes it ~9 and
# fails ~90 % of runs; only a wrong similarity, not Monte Carlo noise, exceeds 5.
SIMILARITY_Z2_TOL = 5.0

LAYER_TIMES = ("hierarchy.load", "dataprep.load_csv", "dataprep.normalize", "iahp.load_judgment",
               "iahp.repair", "iahp.cr", "iahp.eigen", "ewm.entropy", "combiner.fuse",
               "cloud.backward", "cloud.aggregate", "cloud.grade", "cloud.forward", "fce.score",
               "svgplot.diagram", "pipeline.droplets_csv", "pipeline.report_json",
               "pipeline.self", "cli.self")
LAYER_COUNTS = {"dataprep.cells": "count", "iahp.matrices": "count", "iahp.repair_iters": "count",
                "cloud.grade_calls": "count", "cloud.forward_droplets": "count",
                "cloud.backward_calls": "count", "svgplot.bytes": "bytes",
                "pipeline.droplets_csv_size": "bytes", "pipeline.report_bytes": "bytes"}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def fail_unless(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------- set-up


def checkout_or_exit() -> None:
    """Refuse to run outside a cloudmcdm checkout, before anything is measured or printed."""
    missing = [p for p in ("src/cloudmcdm/__init__.py", "data/demo/config_before.json",
                           "tests/golden/report_before.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a cloudmcdm checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(BLAS_VARS, BLAS_THREADS))


IMPORT_CHILD = """
import time
t = time.perf_counter()
import cloudmcdm.cli, cloudmcdm.svgplot
seconds = time.perf_counter() - t
import sys, numpy, numpy.random
sys.path.insert(0, sys.argv[1])
from probe import probe_time
print(repr(seconds), repr(sum(probe_time() for _ in range(3)) / 3))
"""


def import_time() -> tuple[float, float]:
    """Seconds to import cloudmcdm.cli and cloudmcdm.svgplot in a fresh interpreter,
    as measured and scaled to the reference host speed.

    The clock runs inside the child, around the imports only. Right after them
    the child imports everything the probe needs, whatever cloudmcdm left out,
    and times the probe three times. The import time divided by the mean probe
    time, times PROBE_REF_S, cancels the shared host's speed, which moved the
    median of raw import times by half between sets of runs of the same code.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(HERE)], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    seconds, probe = map(float, out.stdout.split())
    return seconds, seconds / probe * PROBE_REF_S


def prepare(workload: str, seed: int, work: Path) -> tuple[Path, dict]:
    """Write the workload's inputs under `work`; return the config path and a generator summary."""
    if workload == "demo":
        shutil.copytree(ROOT / "data" / "demo", work / "demo")
        config = work / "demo" / "config_before.json"
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["seed"] = seed
        config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return config, {}
    # generated in a child so that the generator's memory stays out of peak_rss_mb
    out = subprocess.run([sys.executable, str(HERE / "scaled_inputs.py"), "--seed", str(seed),
                          "--out", str(work / "scaled")], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return work / "scaled" / "config.json", json.loads(out.stdout.strip().splitlines()[-1])


def input_sizes(config: Path) -> dict:
    from cloudmcdm.pipeline import PipelineConfig, load_inputs

    cfg = PipelineConfig.from_json(config)
    inputs = load_inputs(cfg)
    return {"criteria": len(inputs.hierarchy.criterion_ids()), "leaves": len(inputs.leaves),
            "objects": inputs.data.values.shape[0], "rating_samples": inputs.ratings.values.shape[0],
            "droplets": cfg.droplets, "seed": cfg.seed}


# ---------------------------------------------------------------- operations


class PipelineOp:
    """run_pipeline(config, out_dir) with its three artifacts as the output."""

    root_span = "pipeline.self"
    outputs = ARTIFACTS

    def __init__(self, config: Path, out: Path):
        from cloudmcdm import pipeline

        self.pipeline = pipeline
        self.config, self.out = config, out

    def call(self):
        return self.pipeline.run_pipeline(self.config, out_dir=self.out)

    def clear(self) -> None:
        for name in ARTIFACTS:
            (self.out / name).unlink(missing_ok=True)

    def collect(self, _result) -> tuple[bytes, ...]:
        return tuple((self.out / name).read_bytes() for name in ARTIFACTS)


class WeightsOp:
    """cli.main(["weights", config]) with captured stdout as the output."""

    root_span = "cli.self"
    outputs = ("stdout",)

    def __init__(self, config: Path):
        from cloudmcdm import cli

        self.cli = cli
        self.config = config

    def call(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["weights", str(self.config)])
        return code, buf.getvalue()

    def clear(self) -> None:
        pass

    def collect(self, result) -> tuple[bytes, ...]:
        code, stdout = result
        fail_unless(code == 0, f"cli weights exited with {code}")
        return (stdout.encode(),)


# ---------------------------------------------------------------- output checks


def check_simplex(table: dict, what: str) -> None:
    values = list(table.values())
    fail_unless(bool(values) and min(values) >= -SIMPLEX_TOL and abs(sum(values) - 1.0) <= SIMPLEX_TOL,
                f"{what} is not on the simplex (sum {sum(values)!r})")


def check_close(got, want, path: str) -> None:
    """Recursive comparison: numbers within GOLDEN_TOL, everything else equal."""
    if isinstance(want, dict):
        fail_unless(isinstance(got, dict) and got.keys() == want.keys(), f"{path}: keys differ")
        for key in want:
            check_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, float) or (isinstance(want, int) and not isinstance(want, bool)):
        fail_unless(isinstance(got, (int, float)) and abs(got - want) <= GOLDEN_TOL,
                    f"{path}: {got!r} differs from golden {want!r}")
    else:
        fail_unless(got == want, f"{path}: {got!r} differs from golden {want!r}")


def check_report(outputs: tuple[bytes, ...], workload: str, sizes: dict) -> tuple[float, float, float]:
    """Check one run_pipeline output set; return the largest similarity error, the
    mean squared error in standard errors, and the narrowest reference margin
    between the best and the runner-up band."""
    import similarity_ref

    report_bytes, droplets_bytes, svg_bytes = outputs
    report = json.loads(report_bytes)
    w = report["weights"]
    for kind, table in w["criterion"].items():
        check_simplex(table, f"criterion weights ({kind})")
    for kind, table in w["indicator_global"].items():
        check_simplex(table, f"global indicator weights ({kind})")
    for cid, table in w["indicator_local_combined"].items():
        check_simplex(table, f"local combined weights of {cid}")
    fail_unless(len(w["indicator_global"]["combined"]) == sizes["leaves"], "leaf count differs")
    fail_unless(report["seed"] == sizes["seed"], "report seed differs from the workload seed")

    clouds = [("comprehensive", report["comprehensive_cloud"], report["grade"], report["similarity"])]
    clouds += [(cid, c, c["grade"], c["similarity"]) for cid, c in report["criterion_clouds"].items()]
    fail_unless(len(clouds) == sizes["criteria"] + 1, "criterion count differs")
    bands = similarity_ref.grade_clouds(report["scheme"])
    worst, narrowest, z2 = 0.0, math.inf, []
    for name, cloud, grade, table in clouds:
        ref = similarity_ref.reference_table(cloud, report["scheme"])
        fail_unless(table.keys() == ref.keys(), f"{name}: similarity bands differ")
        worst = max(worst, max(abs(table[k] - ref[k]) for k in ref))
        c = (cloud["ex"], cloud["en"], cloud["he"])
        z2 += [((table[k] - ref[k]) / similarity_ref.standard_error(c, g, sizes["droplets"])) ** 2
               for k, g in bands]
        want, margin = similarity_ref.reference_grade(ref)
        fail_unless(grade == want, f"{name}: grade {grade!r}, reference arg-max {want!r}")
        narrowest = min(narrowest, margin)
    mean_z2 = sum(z2) / len(z2)
    fail_unless(mean_z2 <= SIMILARITY_Z2_TOL,
                f"similarities off the reference by {math.sqrt(mean_z2):.3g} standard errors "
                f"(RMS) at {sizes['droplets']} droplets")

    lines = droplets_bytes.split(b"\n")
    fail_unless(lines[0] == b"x,mu" and lines[-1] == b"" and len(lines) == sizes["droplets"] + 2,
                "droplets.csv does not hold one row per droplet")
    fail_unless(svg_bytes.startswith(b"<svg") and svg_bytes.endswith(b"</svg>\n"),
                "diagram.svg is not a complete SVG document")

    if workload == "demo":
        golden = json.loads((ROOT / "tests" / "golden" / "report_before.json").read_text(encoding="utf-8"))
        for key in ("weights", "comprehensive_cloud", "fce", "scheme", "hierarchy_digest", "aggregation"):
            check_close(report[key], golden[key], key)
        for cid, c in golden["criterion_clouds"].items():
            check_close({k: report["criterion_clouds"][cid][k] for k in ("ex", "en", "he")},
                        {k: c[k] for k in ("ex", "en", "he")}, f"criterion_clouds.{cid}")
    return worst, mean_z2, narrowest


def check_weights(outputs: tuple[bytes, ...], sizes: dict) -> None:
    doc = json.loads(outputs[0])
    fail_unless(doc.keys() == {"subjective", "objective", "combined"}, "weights output sections differ")
    for kind in doc:
        check_simplex(doc[kind]["criterion"], f"{kind} criterion weights")
        check_simplex(doc[kind]["indicator_global"], f"{kind} global indicator weights")
        fail_unless(len(doc[kind]["indicator_global"]) == sizes["leaves"], "leaf count differs")
        fail_unless(len(doc[kind]["criterion"]) == sizes["criteria"], "criterion count differs")
    theta = doc["combined"]["theta"]
    fail_unless(min(theta.values()) >= 0 and abs(math.hypot(*theta.values()) - 1.0) < 1e-9,
                "theta is not a non-negative unit vector")
    fail_unless(all(0.0 <= e <= 1.0 + 1e-12 for e in doc["objective"]["indicator_entropy"].values()),
                "an entropy lies outside [0, 1]")


class Checker:
    """Checks the first output set in full; every later one must repeat it byte for byte."""

    def __init__(self, workload: str, sizes: dict, names: tuple[str, ...]):
        self.workload, self.sizes, self.names = workload, sizes, names
        self.expected: tuple[bytes, ...] | None = None
        # stay so on `weights`, which grades nothing
        self.similarity_err, self.similarity_z2, self.margin = 0.0, math.nan, math.nan

    def __call__(self, outputs: tuple[bytes, ...]) -> None:
        if self.expected is None:
            if self.workload == "weights":
                check_weights(outputs, self.sizes)
            else:
                self.similarity_err, self.similarity_z2, self.margin = check_report(
                    outputs, self.workload, self.sizes)
            self.expected = outputs
        for name, got, want in zip(self.names, outputs, self.expected):
            fail_unless(got == want, f"{name} differs from the first operation's")


# ---------------------------------------------------------------- loops


class Loop:
    """Closed loop, one client: clear, time one call, collect and check, repeat."""

    def __init__(self, op, checker: Checker):
        self.op, self.checker = op, checker
        self.attempted = self.failed = 0

    def once(self, call=None) -> float | None:
        """One checked operation; returns its wall seconds, or None when it failed."""
        self.op.clear()
        gc.collect()  # each operation starts from the heap state a fresh CLI call would see
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = (call or self.op.call)()
            elapsed = time.perf_counter() - t0
            self.checker(self.op.collect(result))
        except Exception as e:  # the loop goes on; the failure is counted and shown
            self.failed += 1
            print(f"operation {self.attempted} failed: {e!r}", file=sys.stderr)
            if not isinstance(e, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            return None
        return elapsed


def run_untraced(loop: Loop, seconds: float) -> dict[str, list[float]]:
    """Wall seconds and probe seconds of every operation that succeeded within
    `seconds`, and import times, raw and scaled.

    The imports are timed between operations at evenly spaced moments of the
    loop, so that one burst of host contention cannot cover all of them.
    """
    from probe import probe_time

    out: dict[str, list[float]] = {"op_s": [], "probe_s": [], "import_s": [], "setup_s": []}
    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        taken = len(out["setup_s"])
        if taken < SETUP_REPEATS and now >= start + taken * seconds / SETUP_REPEATS:
            raw, scaled = import_time()
            out["import_s"].append(raw)
            out["setup_s"].append(scaled)
        before = probe_time()
        t = loop.once()
        after = probe_time()
        if t is not None:
            out["op_s"].append(t)
            out["probe_s"].append(0.5 * (before + after))
    if len(out["op_s"]) < 2:
        raise SystemExit("error: fewer than two operations succeeded; nothing to report")
    return out


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_traced(loop: Loop, seconds: float, span_file: Path) -> tuple[dict, dict, int]:
    """Alternate untraced and traced operations; return per-layer metrics, their shares
    of the traced time and the number of traced operations."""
    import spans

    tracer = spans.Tracer()
    sites = spans.targets()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t = loop.once()
        if t is not None:
            plain.append(t)
        first, counts = len(tracer.spans), dict(tracer.counts)
        tracer.install(sites)
        try:
            t = loop.once(tracer.span(loop.op.root_span, loop.op.call))
        finally:
            tracer.uninstall()
        if t is not None:
            traced.append(t)
        else:  # a failed operation's spans and counts would skew the per-operation means
            del tracer.spans[first:]
            tracer.counts = defaultdict(float, counts)
    tracer.dump(span_file)
    if not traced or not plain:
        raise SystemExit("error: no traced or no untraced operation succeeded; nothing to report")

    n = len(traced)
    self_s = spans.self_times(tracer.spans)
    roots = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    if abs(sum(self_s.values()) - roots) > 1e-6 * max(roots, 1e-9):
        raise SystemExit(f"error: self times add up to {sum(self_s.values())!r}, operations to {roots!r}")
    unknown = set(self_s) - set(LAYER_TIMES)
    if unknown:
        raise SystemExit(f"error: spans without a per-layer metric: {sorted(unknown)}")
    metrics = {f"{name}_s": (self_s.get(name, 0.0) / n, "s") for name in LAYER_TIMES}
    shares = {f"{name}_s": self_s.get(name, 0.0) / roots for name in LAYER_TIMES}
    counts = tracer.counts
    metrics.update({name: (counts.get(name, 0.0) / n, unit) for name, unit in LAYER_COUNTS.items()})
    matrices = counts.get("iahp.matrices", 0.0)
    solves = counts.get("iahp.cr_calls", 0.0) + counts.get("iahp.eigen_calls", 0.0)
    metrics["iahp.eigen_solves_per_matrix"] = (solves / matrices if matrices else 0.0, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, shares, n


# ---------------------------------------------------------------- entry points


def run_one(args) -> int:
    checkout_or_exit()
    os.environ.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS))  # before numpy is first imported below
    sys.path.insert(0, str(ROOT / "src"))
    import cloudmcdm

    if Path(cloudmcdm.__file__).resolve().parent != ROOT / "src" / "cloudmcdm":
        print(f"error: imported cloudmcdm from {cloudmcdm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import numpy

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if not args.trace:
            import_time()  # writes any missing bytecode caches; not counted
        config, generated = prepare(args.workload, args.seed, work)
        sizes = input_sizes(config)
        if args.workload == "weights":
            op = WeightsOp(config)
        else:
            op = PipelineOp(config, work / "out")
        loop = Loop(op, Checker(args.workload, sizes, op.outputs))
        for _ in range(WARMUP_OPS):  # counted: a failed warm-up fails the run
            loop.once()

        print(f"workload {args.workload}: closed loop, 1 client, {args.seconds:g} s; "
              f"inputs {json.dumps(sizes, sort_keys=True)}"
              + (f"; generator {json.dumps(generated, sort_keys=True)}" if generated else ""))
        print(f"host: nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}, "
              f"python {sys.version.split()[0]}, numpy {numpy.__version__}")
        if args.trace:
            span_dir = ROOT / ".bench_out"
            span_dir.mkdir(exist_ok=True)
            span_file = span_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, shares, n_traced = run_traced(loop, args.seconds, span_file)
            metrics["cloud.similarity_abs_err.max"] = (loop.checker.similarity_err, "similarity")
            for name, (value, unit) in metrics.items():
                share = f"  ({100 * shares[name]:.1f} % of traced time)" if name in shares else ""
                print(f"  {name:32s} {value:.6g} {unit}{share}")
            print(f"  per-operation means over {n_traced} traced operations; "
                  f"spans written to {span_file.relative_to(ROOT)}")
        else:
            sampled = run_untraced(loop, args.seconds)
            times = sampled["op_s"]
            norm = [t / p for t, p in zip(times, sampled["probe_s"])]
            # p75 is the highest percentile with ten samples beyond it on every workload:
            # a 35 s run holds about 50 operations of `scaled`
            metrics = {
                "op_norm.p50": (statistics.median(norm), "probe"),
                "op_norm.p75": (quantile(norm, 75), "probe"),
                "setup_s": (statistics.median(sampled["setup_s"]), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            # wall times move with the host's load, so they are printed but not bounded
            metrics_printed = {
                "op_norm.p90": (quantile(norm, 90), "probe"),
                "op_s.p50": (statistics.median(times), "s"),
                "op_s.p90": (quantile(times, 90), "s"),
                "ops_per_s": (len(times) / sum(times), "1/s"),
                "probe_s.p50": (statistics.median(sampled["probe_s"]), "s"),
                "import_s.p50": (statistics.median(sampled["import_s"]), "s"),
            }
            for name, (value, unit) in {**metrics, **metrics_printed}.items():
                print(f"  {name:24s} {value:.6g} {unit}")
            if args.workload != "weights":
                print(f"  {'similarity_abs_err.max':24s} {loop.checker.similarity_err:.6g} similarity "
                      f"(mean squared error {loop.checker.similarity_z2:.3g} standard errors^2, "
                      f"narrowest reference grade margin {loop.checker.margin:.3g})")
            print(f"  op_s and op_norm over {len(times)} operations; "
                  f"setup_s and import_s medians of {len(sampled['setup_s'])} imports")
        print(f"  {'failed_ratio':24s} {loop.failed}/{loop.attempted} = "
              f"{loop.failed / max(loop.attempted, 1):.3g}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics are prefixed with the workload name."""
    checkout_or_exit()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        merged["metrics"].update({f"{workload}/{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cloudmcdm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
