"""phondist benchmark: run one workload end to end, or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload cognancy-list --seed 1 --seconds 12 --trace 0

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones. The line before it is the
full record of the run (samples, environment, digests, errors); --out FILE
appends that record to FILE as one JSON line, which compare.py reads.

Workloads (see README.md for why each exists):
  cli-pipeline   the README walkthrough as `python -m phondist` subprocesses
  cognancy-list  all-pairs cognancy of 150 seeded words, in-process
  long-pair      global and local alignment of two 1,000-segment words, in-process
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import hostspeed
import inputs
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "phondist" / "data"

WORKLOADS = ("cli-pipeline", "cognancy-list", "long-pair")

# A first fit slower than this counts as a stall (a fit normally takes ~5 ms).
SLOW_FIT_S = 0.1
# Each `python -c "import phondist"` probe of a traced run.
IMPORT_PROBES = 3
MIN_CHAINS = 3
PROCESS_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DATA_FILES = (
    "features.tsv", "seed_scores.csv", "delta_templates.csv", "delta_bundles.json",
    "adjustments.csv", "paper_table.tsv",
    "wordlists/test1.txt", "wordlists/test2.txt", "wordlists/test3.txt",
)
FIT = ("fit", "--features", "data/features.tsv", "--seed", "data/seed_scores.csv",
       "--templates", "data/delta_templates.csv", "--bundles", "data/delta_bundles.json",
       "--adjustments", "data/adjustments.csv", "-o", "model.json")
MATRIX = ("matrix", "--model", "model.json", "--features", "data/features.tsv",
          "--include-null", "-o", "matrix.tsv")
WORD_LISTS = ("test1", "test2", "test3")
ALIGN_WORDS = ("woldemort", "waldemar")
PCA = ("pca", "--matrix", "data/paper_table.tsv", "-k", "2", "--format", "svg", "-o", "scatter.svg")


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.run_id = f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:12]}"
        self.workdir = HERE / ".work" / self.run_id
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.failures = worker.Ops()
        self.tracer = tracing.Tracer(self.run_id, enabled=self.traced)
        self.exports: list[dict] = []  # traces of the worker processes
        self.cli_digests: dict[str, str] = {}
        self.kernel = hostspeed.Kernel()

    def run_worker(self) -> dict | None:
        """The in-process worker for this run (see worker.py)."""
        spec = {
            "role": "main", "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "traced": self.traced, "run_id": self.run_id, "workdir": str(self.workdir),
            "out": str(self.workdir / "main.json"),
        }
        result, error = worker.spawn(spec, PROCESS_TIMEOUT_S, self.env)
        if result is None:
            self.failures.check("worker", False, error)
            return None
        self.failures.merge(result)
        self.exports.extend(result.pop("traces"))
        return result

    def cli(self, name: str, args, tr: tracing.Tracer, digest: str | None = None,
            output: str | None = None) -> float:
        """One `python -m phondist` subprocess; returns its wall time.

        With `digest`, the step's output (the file `output`, else its stdout)
        must hash to the digest recorded under that name.
        """
        with tr.span(f"cli.{name}"):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "phondist", *args], env=self.env, cwd=self.workdir,
                capture_output=True, timeout=PROCESS_TIMEOUT_S,
            )
            wall = time.perf_counter() - t0
        stderr = proc.stderr.decode("utf-8", "replace")
        ok = proc.returncode == 0 and "Traceback" not in stderr
        self.failures.check(f"cli {name}", ok, f"exit {proc.returncode}: {stderr[-2000:]}")
        if ok and digest is not None:
            data = (self.workdir / output).read_bytes() if output else proc.stdout
            got = hashlib.sha256(data).hexdigest()
            want = self.digests["cli-pipeline"].get(digest)
            self.failures.check(f"cli-pipeline {digest} digest", got == want, f"{got} != {want}")
            self.cli_digests[digest] = got
        return wall


def cli_work():
    """(pairs, DP cells) aligned by one chain's cognates and align steps.

    This imports phondist, and with it numpy, into this process, so it runs
    after the last CLI subprocess. On Linux a child's peak RSS includes the
    RSS of the process that forked it, so until then this process must stay
    smaller than the children whose peak it reports.
    """
    sys.path.insert(0, str(SRC))
    from phondist.features import tokenize

    graphemes = set(inputs.feature_graphemes(DATA / "features.tsv"))
    pairs = cells = 0
    lists = []
    for name in WORD_LISTS:
        lines = (DATA / "wordlists" / f"{name}.txt").read_text(encoding="utf-8").splitlines()
        lists.append([w.strip() for w in lines if w.strip() and not w.lstrip().startswith("#")])
    lists.append(list(ALIGN_WORDS))
    for words in lists:
        lengths = [len(tokenize(w, graphemes)) for w in words]
        pairs += len(words) * (len(words) - 1) // 2
        cells += inputs.pair_cells(lengths)
    return pairs, cells


def cli_chain(run: Run, tr: tracing.Tracer) -> tuple[float, list[float], list[float]]:
    """The README walkthrough once.

    Returns the set-up seconds, the seconds of each timed step, and the host
    speed kernel's time around each timed step (see hostspeed.py). The fitted
    model.json is checked through the matrix.tsv it produces, not by its
    bytes: coefficients of predictors the data does not identify are rounding
    noise that changes with the BLAS thread count, while every matrix entry
    (6 decimals) stays the same.
    """
    with tr.span("setup"):
        setup = run.cli("fit", FIT, tr) + run.cli("matrix", MATRIX, tr, "matrix.tsv", "matrix.tsv")
    steps = [("cognates", ("cognates", "--matrix", "matrix.tsv", "--words",
                           f"data/wordlists/{name}.txt", "--threshold", "0"), f"cognates-{name}.tsv", None)
             for name in WORD_LISTS]
    steps.append(("align", ("align", "--matrix", "matrix.tsv", *ALIGN_WORDS), "align.txt", None))
    steps.append(("pca", PCA, "scatter.svg", "scatter.svg"))
    calls, kernels = [], []
    with tr.span("unit:cli-pipeline"):
        for name, args, digest, output in steps:
            before = run.kernel.seconds()
            calls.append(run.cli(name, args, tr, digest, output))
            kernels.append((before + run.kernel.seconds()) / 2)
    return setup, calls, kernels


def run_cli_pipeline(run: Run) -> dict:
    for name in DATA_FILES:
        target = run.workdir / "data" / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(DATA / name, target)
    idle = tracing.Tracer(run.run_id, enabled=False)
    chains = []
    own = run.workload == "cli-pipeline"
    start = time.perf_counter()
    while len(chains) < (MIN_CHAINS if own else 1) or (own and time.perf_counter() - start < run.seconds):
        on = run.traced and len(chains) % 2 == 0
        setup, calls, kernels = cli_chain(run, run.tracer if on else idle)
        chains.append({"setup_s": setup, "wall_s": sum(calls), "calls": calls, "kernel": kernels,
                       "traced": on})
    maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pairs, cells = cli_work()
    return {"chains": chains, "pairs": pairs, "cells": cells, "maxrss_kb": maxrss_kb}


def end_to_end(run: Run, res: dict) -> tuple[dict, dict]:
    """(metrics, samples) of an untraced run."""
    if run.workload == "cli-pipeline":
        setup = [c["setup_s"] for c in res["chains"]]
        units = res["chains"]
        pairs, cells, rss = res["pairs"], res["cells"], res["maxrss_kb"]
    else:
        main = res["main"]
        if main is None:
            return {}, {}
        setup = [s["setup_s"] for s in main["fresh"]] + [main["setup_s"]]
        units = main["units"]
        pairs, cells, rss = main["pairs"], main["cells"], main["maxrss_kb"]
    # Each call's time is divided by the host speed kernel's time around it
    # and scaled back to seconds (see hostspeed.py): on a shared host the raw
    # median follows the neighbours' load, which moves by up to 4x for minutes.
    norm = [sum(t * hostspeed.K_REF_S / k for t, k in zip(u["calls"], u["kernel"])) for u in units]
    wall = statistics.median(norm)
    samples = {
        "setup_s": setup, "wall_s": norm, "raw_wall_s": [u["wall_s"] for u in units],
        "calls": [u["calls"] for u in units], "kernel": [u["kernel"] for u in units],
    }
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "pairs_per_s": (pairs / wall, "1/s"),
        "cells_per_s": (cells / wall, "1/s"),
        "peak_rss_mb": (rss / 1024, "MB"),
    }
    return metrics, samples


def run_traced(run: Run) -> dict:
    """Every layer once or more, the workload's own units alternating traced/untraced."""
    with run.tracer.span("probe"):
        for _ in range(IMPORT_PROBES):
            with run.tracer.span("cli.import"):
                proc = subprocess.run([sys.executable, "-c", "import phondist"], env=run.env,
                                      cwd=run.workdir, capture_output=True, timeout=PROCESS_TIMEOUT_S)
            run.failures.check("cli import", proc.returncode == 0, proc.stderr.decode()[-2000:])
    cli = run_cli_pipeline(run)
    return {"main": run.run_worker(), "cli": cli}


def per_layer(run: Run, res: dict) -> dict:
    """Per-layer metrics from the merged spans and counts of a traced run."""
    exports = run.exports + [run.tracer.export()]
    spans = tracing.merge(exports)
    counts = tracing.merge_counts(exports)
    selfs = tracing.self_times(spans)
    roots = [tracing.root_of(spans, i) for i in range(len(spans))]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def median(values):
        return statistics.median(values) if values else float("nan")

    m = {}
    timed = {
        "cli.import": "cli.import_s", "cli.fit": "cli.fit_s", "cli.matrix": "cli.matrix_s",
        "cli.cognates": "cli.cognates_s", "cli.align": "cli.align_s", "cli.pca": "cli.pca_s",
        "model.fit_first": "model.fit_first_s", "model.fit": "model.fit_s",
        "model.save": "model.save_s", "model.load": "model.load_s",
        "matrix.build": "matrix.build_s", "matrix.export": "matrix.export_s",
        "matrix.load": "matrix.load_s", "matrix.pca": "matrix.pca_s", "matrix.svg": "matrix.svg_s",
        "align.cognancy_global": "align.cognancy_global_s",
        "align.cognancy_local": "align.cognancy_local_s",
        "align.global": "align.global_s", "align.local": "align.local_s",
        "features.load": "features.load_s", "features.tokenize_list": "features.tokenize_s",
        "seed.load": "seed.load_s", "seed.normalize": "seed.normalize_s",
        "seed.deltas": "seed.deltas_s", "seed.adjust": "seed.adjust_s",
    }
    for span_name, metric in timed.items():
        m[metric] = (median(durations(span_name)), "s")

    first = durations("model.fit_first")
    m["model.fit_first_slow"] = (sum(d > SLOW_FIT_S for d in first), "count")
    m["model.fresh_processes"] = (len(first), "count")
    m["model.design_rows"] = (counts.get("model.design_rows", 0) // max(len(first), 1), "count")
    m["model.predictors"] = (counts.get("model.predictors", 0) // max(len(first), 1), "count")
    m["seed.records"] = (counts.get("seed.records", 0) // max(len(durations("seed.adjust")), 1), "count")

    builds = by_name.get("matrix.build", [])
    build_set = set(builds)
    predicts = [i for i in by_name.get("model.predict_distance", ()) if spans[i][3] in build_set]
    m["matrix.pairs"] = (len(predicts) // max(len(builds), 1), "count")
    m["matrix.build_self_s"] = (median([selfs[i] for i in builds]), "s")
    m["model.predict_total_s"] = (
        sum(spans[i][2] - spans[i][1] for i in predicts) / max(len(builds), 1), "s")

    cognancy_units = by_name.get("unit:cognancy-list", [])
    pair_spans = by_name.get("align.pair", [])
    m["align.pairs"] = (len(pair_spans) // max(len(cognancy_units), 1), "count")
    m["align.pair_self_s"] = (median([selfs[i] for i in pair_spans]), "s")
    m["align.cells"] = (counts.get("cells:long-pair", 0) // max(len(by_name.get("unit:long-pair", ())), 1), "count")
    main = res["main"] or {}
    m["align.traceback_peak_mb"] = (main.get("traceback_peak_mb", float("nan")), "MB")

    # Self time per traced unit of this run's own workload, by layer.
    own_units = set(by_name.get(f"unit:{run.workload}", ()))
    for name in ("align", "features", "cli", "bench"):
        total = sum(selfs[i] for i in range(len(spans))
                    if roots[i] in own_units and tracing.layer(spans[i][0]) == name)
        m[f"{name}.self_s"] = (total / max(len(own_units), 1), "s")

    if run.workload == "cli-pipeline":
        units = res["cli"]["chains"]
    else:
        units = main.get("units", [])
    traced = [u["wall_s"] for u in units if u["traced"]]
    untraced = [u["wall_s"] for u in units if not u["traced"]]
    m["trace.wall_s"] = (median(traced), "s")
    m["trace.untraced_wall_s"] = (median(untraced), "s")
    m["trace.overhead_s"] = (m["trace.wall_s"][0] - m["trace.untraced_wall_s"][0], "s")

    trace_file = HERE / ".work" / f"trace-{run.workload}.json.gz"
    with gzip.open(trace_file, "wt", encoding="utf-8") as handle:
        json.dump({"run_id": run.run_id, "spans": spans, "counts": counts}, handle)
    return m


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "phondist" / "__init__.py").is_file():
        print(f"perfbench: no phondist sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args)
    run.workdir.mkdir(parents=True)
    try:
        if run.traced:
            res = run_traced(run)
            metrics, samples = per_layer(run, res), {}
        elif run.workload == "cli-pipeline":
            res = run_cli_pipeline(run)
            metrics, samples = end_to_end(run, res)
        else:
            res = {"main": run.run_worker()}
            metrics, samples = end_to_end(run, res)
        digests = dict(res["main"]["digests"]) if res.get("main") else {}
        if run.cli_digests:
            digests["cli-pipeline"] = run.cli_digests
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    fails = run.failures
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.traced),
        "run_id": run.run_id, "env": environment(),
        "attempted": fails.attempted, "failed": fails.failed,
        "error_rate": fails.failed / max(fails.attempted, 1), "errors": fails.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples, "digests": digests,
    }
    print(json.dumps(record, ensure_ascii=False))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    if not metrics or not all(math.isfinite(v) for v, _ in metrics.values()):
        print(f"perfbench: {run.workload} produced no complete measurement: {fails.errors}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": fails.failed == 0, "attempted": fails.attempted, "failed": fails.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
