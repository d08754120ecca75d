"""One in-process benchmark process: set up phondist, then run timed work.

Started by run.py with a JSON spec as its only argument; it writes its
result as JSON to the path named in the spec. Two roles:

- "setup": a fresh process that times the bundled pipeline from before
  `import phondist` to a ready ScoringScheme, checks the matrix it built,
  and exits. Its first `fit` is a first fit in a fresh process.
- "main": the same set-up, then the workload's timed units for the run
  length with FRESH_SETUPS "setup" children started between them, then
  the output checks. In a traced run it also probes the model/matrix/
  features layers and runs one unit of every in-process workload, so that
  every per-layer metric is measured.

Only the standard library and the benchmark's own modules are imported
before the set-up clock starts.
"""

import hashlib
import io
import json
import random
import resource
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import inputs
from tracing import Tracer

# Each in-process probe repeats its call this many times and keeps every
# sample, so the traced run reports medians rather than single readings.
PROBE_REPEATS = 10
# The in-process workloads time at least this many units, even on a short run.
MIN_UNITS = 3
# A traced run traces every other unit up to this many; a traced cognancy unit
# records ~67,000 spans, which bounds the trace's memory and write-out time.
TRACED_UNITS = 3
# Pairs of the cognancy tables checked against the independent DP per mode.
ORACLE_SAMPLE = 100
# Absolute tolerance of that check: the oracle accumulates gap runs through a
# prefix sum, so it may differ from the aligners in the last bits.
ORACLE_TOL = 1e-6
# Fresh set-up-only processes per run. Their set-up times feed setup_s, and
# their first fits feed model.fit_first_slow.
FRESH_SETUPS = 8
CHILD_TIMEOUT_S = 60
# Word length of the pair aligned under tracemalloc (see traceback_peak_mb).
TRACEMALLOC_LENGTH = 300


class Ops:
    """Attempted and failed operations; a failure keeps its first message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.fail(f"{name}: {traceback.format_exc()}")
            return None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One output check, counted as one operation."""
        self.attempted += 1
        if not ok:
            self.fail(f"{name}: {detail}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors = (self.errors + [message])[:10]

    def merge(self, result: dict) -> None:
        """Add the operations a child process reported."""
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors = (self.errors + result["errors"])[:10]


def spawn(spec: dict, timeout: float, env: dict | None = None) -> tuple[dict | None, str]:
    """Run worker.py with `spec` in a child process: (result, "") or (None, error)."""
    out = Path(spec["out"])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), json.dumps(spec)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    result = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    if proc.returncode != 0 or "fatal" in result or "Traceback" in proc.stderr:
        return None, result.get("fatal") or proc.stderr[-2000:] or f"exit {proc.returncode}"
    return result, ""


class FreshSetups:
    """Set-up-only child processes, spread evenly over the timed loop.

    One set-up takes ~0.15 s, so samples taken back to back all land in the
    same phase of the host's background load. Spread over the run, their
    median follows the run as a whole.
    """

    def __init__(self, spec: dict, ops: Ops):
        self.spec, self.ops = spec, ops
        self.started = 0
        self.results: list[dict] = []
        self.traces: list[dict] = []

    def due(self, elapsed: float) -> None:
        """Start the set-ups whose share of the run length has passed."""
        while self.started < FRESH_SETUPS and elapsed >= self.started * self.spec["seconds"] / FRESH_SETUPS:
            self.start_one()

    def finish(self) -> None:
        while self.started < FRESH_SETUPS:
            self.start_one()

    def start_one(self) -> None:
        out = Path(self.spec["workdir"]) / f"setup-{self.started}.json"
        self.started += 1
        result, error = spawn(dict(self.spec, role="setup", out=str(out)), CHILD_TIMEOUT_S)
        if result is None:
            self.ops.check("fresh set-up process", False, error)
            return
        self.ops.merge(result)
        self.traces.extend(result.pop("traces"))
        self.results.append(result)


class Setup:
    """What the bundled pipeline produces: inventory, dataset, model, matrix, schemes."""

    def __init__(self, pd, tr: Tracer):
        with tr.span("features.load"):
            self.inv = pd.load_feature_table(pd.bundled_path("features.tsv"))
        with tr.span("seed.load"):
            raw = pd.load_seed_matrix(pd.bundled_path("seed_scores.csv"), self.inv)
        with tr.span("seed.normalize"):
            ds = pd.normalize_scores(raw)
        with tr.span("seed.deltas"):
            bundles = pd.load_delta_bundles(pd.bundled_path("delta_bundles.json"))
            templates = pd.load_templates(pd.bundled_path("delta_templates.csv"))
            ds = pd.augment_with_deltas(ds, pd.derive_deltas(ds, bundles), self.inv, templates)
        with tr.span("seed.adjust"):
            self.ds = pd.apply_adjustments(ds, pd.bundled_path("adjustments.csv"))
        tr.count("seed.records", len(self.ds))
        t0 = time.perf_counter()
        with tr.span("model.fit_first"):
            self.model = pd.fit(self.ds, self.inv)
        self.fit_first_s = time.perf_counter() - t0
        tr.count("model.design_rows", len(self.ds.records))
        tr.count("model.predictors", len(self.model.coefficients))
        with tr.span("matrix.build"):
            self.dm = pd.build_matrix(self.model, self.inv, include_null=True)
        with tr.span("align.scheme"):
            self.constant = pd.ScoringScheme(matrix=self.dm)
            self.null_column = pd.ScoringScheme(matrix=self.dm, gap_mode="null_column")


def traced_targets(pd):
    """Public functions that other layers call internally, wrapped in a traced run.

    These give the spans inside a layer call their children: the per-pair
    aligner calls inside `cognancy_matrix`, tokenising inside the aligners,
    and the per-pair predictions inside `build_matrix`.
    """
    return [
        (pd.align, "global_align", "align.pair"),
        (pd.align, "local_align", "align.pair"),
        (pd.align, "tokenize", "features.tokenize"),
        (pd.matrix, "predict_distance", "model.predict_distance"),
    ]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def matrix_digest(pd, dm) -> str:
    buf = io.StringIO()
    pd.matrix.export_matrix_tsv(dm, buf)
    return sha256(buf.getvalue())


def oracle_score(np, st: Setup, left, right, null_gaps: bool, local: bool) -> float:
    """Optimal alignment score by an independent row-vectorised DP (score only).

    With linear gaps, a row's left-to-right gap chain is a running maximum:
    row[j] = G[j] + max_{k <= j}(cand[k] - G[k]), where G is the prefix sum of
    the right word's gap scores and cand the best of diagonal and up moves.
    """
    dm = st.dm
    scheme = st.null_column if null_gaps else st.constant
    sigma, center = scheme.sigma, scheme.center
    li = [dm.index(t) for t in left]
    ri = [dm.index(t) for t in right]
    D = dm.values
    S = sigma * (center - D[np.ix_(li, ri)])
    if null_gaps:
        null = dm.index(inputs.NULL_GRAPHEME)
        gl = sigma * (center - D[li, null])
        gr = sigma * (center - D[ri, null])
    else:
        gl = np.full(len(li), scheme.gap_constant)
        gr = np.full(len(ri), scheme.gap_constant)
    G = np.concatenate([[0.0], np.cumsum(gr)])
    prev = np.zeros(len(ri) + 1) if local else G.copy()
    best = 0.0
    cand = np.empty(len(ri) + 1)
    for i in range(len(li)):
        cand[0] = 0.0 if local else prev[0] + gl[i]
        np.maximum(prev[:-1] + S[i], prev[1:] + gl[i], out=cand[1:])
        if local:
            np.maximum(cand, 0.0, out=cand)
        prev = G + np.maximum.accumulate(cand - G)
        if local:
            best = max(best, float(prev.max()))
    return best if local else float(prev[-1])


class CognancyList:
    """All-pairs cognancy of a seeded word list: global/constant, then local/null-column."""

    name = "cognancy-list"

    def __init__(self, pd, st: Setup, seed: int, graphemes):
        self.pd, self.st, self.seed = pd, st, seed
        self.tokens = inputs.word_list(seed, graphemes)
        self.words = ["".join(t) for t in self.tokens]
        n = len(self.words)
        self.pairs = 2 * (n * (n - 1) // 2)
        self.cells = 2 * inputs.pair_cells([len(t) for t in self.tokens])

    def calls(self):
        pd, st = self.pd, self.st
        return [
            ("align.cognancy_global", pd.cognancy_matrix, (st.constant, self.words, "global")),
            ("align.cognancy_local", pd.cognancy_matrix, (st.null_column, self.words, "local")),
        ]

    def digests(self, out) -> dict:
        g, l = out
        fmt = self.pd.align.format_cognancy_tsv
        return {
            "global.tsv": sha256(fmt(g)) if g else None,
            "local.tsv": sha256(fmt(l)) if l else None,
        }

    def check(self, np, ops: Ops, out) -> None:
        rng = random.Random(f"oracle:{self.seed}")
        n = len(self.words)
        for cm, local in zip(out, (False, True)):
            if cm is None:
                continue
            mode = "local" if local else "global"
            bad = []
            for _ in range(ORACLE_SAMPLE):
                i, j = rng.sample(range(n), 2)
                want = oracle_score(np, self.st, self.tokens[i], self.tokens[j], local, local)
                got = cm.scores[i][j]
                if got is None or abs(got - want) > ORACLE_TOL or cm.scores[j][i] != got:
                    bad.append((self.words[i], self.words[j], got, want))
            ops.check(f"cognancy {mode} vs oracle", not bad, f"{len(bad)} pairs differ, e.g. {bad[:1]}")


class LongPair:
    """One pair of 1,000-segment words, global/constant and local/null-column, with traceback."""

    name = "long-pair"

    def __init__(self, pd, st: Setup, seed: int, graphemes):
        self.pd, self.st, self.seed = pd, st, seed
        self.tokens = inputs.long_pair(seed, graphemes)
        self.left, self.right = ("".join(t) for t in self.tokens)
        self.pairs = 2
        self.cells = 2 * len(self.tokens[0]) * len(self.tokens[1])

    def calls(self):
        pd, st = self.pd, self.st
        return [
            ("align.global", pd.global_align, (st.constant, self.left, self.right)),
            ("align.local", pd.local_align, (st.null_column, self.left, self.right)),
        ]

    def digests(self, out) -> dict:
        def one(a):
            if a is None:
                return None
            return sha256(json.dumps({"score": repr(a.score), "columns": a.columns}, ensure_ascii=False))
        return {"global": one(out[0]), "local": one(out[1])}

    def check(self, np, ops: Ops, out) -> None:
        left, right = self.tokens
        for a, local in zip(out, (False, True)):
            if a is None:
                continue
            mode = "local" if local else "global"
            scheme = self.st.null_column if local else self.st.constant
            want = oracle_score(np, self.st, left, right, local, local)
            ops.check(f"long-pair {mode} score vs oracle", abs(a.score - want) <= ORACLE_TOL,
                      f"score {a.score!r}, oracle {want!r}")
            lrow = tuple(t for t in a.left_row if t is not None)
            rrow = tuple(t for t in a.right_row if t is not None)
            if local:
                spelled = _is_run(lrow, left) and _is_run(rrow, right)
            else:
                spelled = lrow == left and rrow == right
            ops.check(f"long-pair {mode} columns spell the words", spelled)
            total = 0.0
            for x, y in a.columns:
                if x is not None and y is not None:
                    total += self.pd.similarity(scheme, x, y)
                else:
                    total += self.pd.gap_score(scheme, x if x is not None else y)
            ops.check(f"long-pair {mode} columns add up to the score",
                      abs(total - a.score) <= ORACLE_TOL, f"columns {total!r}, score {a.score!r}")


def _is_run(part: tuple, whole: tuple) -> bool:
    """True if `part` occurs in `whole` as a contiguous run of tokens."""
    if not part:
        return True
    return any(whole[k:k + len(part)] == part for k in range(len(whole) - len(part) + 1))


WORKLOADS = {w.name: w for w in (CognancyList, LongPair)}


def run_unit(work, ops: Ops, tr: Tracer, kernel) -> tuple[tuple, list[float], list[float]]:
    """One unit of work: its calls' outputs, their wall times, and the time of
    `kernel` (a hostspeed.Kernel) around each call."""
    tr.count(f"cells:{work.name}", work.cells)
    outs, times, kernels = [], [], []
    for name, fn, args in work.calls():
        before = kernel.seconds()
        with tr.span(name):
            t0 = time.perf_counter()
            outs.append(ops.run(name, fn, *args))
            times.append(time.perf_counter() - t0)
        kernels.append((before + kernel.seconds()) / 2)
    return tuple(outs), times, kernels


def time_units(work, ops: Ops, tr: Tracer, kernel, seconds: float, traced: bool,
               min_units: int = MIN_UNITS, after_unit=None):
    """Run units until `seconds` pass (at least `min_units`); alternate tracing if `traced`.

    `after_unit(elapsed)` runs between units, outside their timing. Returns
    per-unit records and the first unit's output.
    """
    idle = Tracer(tr.run_id, enabled=False)
    units, first = [], None
    start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - start < seconds:
        on = traced and len(units) % 2 == 0 and len(units) < 2 * TRACED_UNITS
        unit_tr = tr if on else idle
        with unit_tr.patched(traced_targets(work.pd)), unit_tr.span(f"unit:{work.name}"):
            out, calls, kernels = run_unit(work, ops, unit_tr, kernel)
        digests = work.digests(out)
        if first is None:
            first = (out, digests)
        else:
            ops.check(f"{work.name} output repeats", digests == first[1], f"{digests} vs {first[1]}")
        units.append({"wall_s": sum(calls), "calls": calls, "kernel": kernels, "traced": on})
        if after_unit is not None:
            after_unit(time.perf_counter() - start)
    return units, first


def probe_layers(pd, st: Setup, tr: Tracer, workdir: Path, words) -> None:
    """Time the model, matrix and features calls that no timed unit makes."""
    for _ in range(PROBE_REPEATS):
        with tr.span("model.fit"):
            pd.fit(st.ds, st.inv)
    model_path = workdir / "probe-model.json"
    matrix_path = workdir / "probe-matrix.tsv"
    for _ in range(PROBE_REPEATS):
        with tr.span("model.save"):
            pd.save_model(st.model, model_path)
        with tr.span("model.load"):
            pd.load_model(model_path)
        with tr.span("matrix.export"):
            pd.matrix.export_matrix_tsv(st.dm, matrix_path)
        with tr.span("matrix.load"):
            dm = pd.load_reference_matrix(matrix_path)
        with tr.span("matrix.pca"):
            result = pd.pca(dm, 2)
        with tr.span("matrix.svg"):
            pd.matrix.export_pca_svg(result, workdir / "probe-scatter.svg")
        with tr.span("features.tokenize_list"):
            table = set(st.dm.segments)
            for w in words:
                pd.features.tokenize(w, table)


def traceback_peak_mb(pd, st: Setup, seed: int, graphemes) -> float:
    """Peak traced Python allocation of a global and a local alignment, in MiB.

    tracemalloc slows the 1,000-segment alignment about tenfold (~23 s), so
    the peak is taken on a TRACEMALLOC_LENGTH-segment pair from the same
    generator. The score and move tables grow as n*m, so the figure scales by
    (1000 / TRACEMALLOC_LENGTH)^2 to the long pair.
    """
    left, right = ("".join(t) for t in inputs.long_pair(seed, graphemes, TRACEMALLOC_LENGTH))
    peaks = []
    for fn, scheme in ((pd.global_align, st.constant), (pd.local_align, st.null_column)):
        tracemalloc.start()
        try:
            fn(scheme, left, right)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks) / 2**20


def main(spec: dict) -> dict:
    tr = Tracer(spec["run_id"], enabled=spec["traced"])
    ops = Ops()
    t0 = time.perf_counter()
    with tr.span("setup"):
        import phondist as pd
        with tr.patched(traced_targets(pd)):
            st = Setup(pd, tr)
    setup_s = time.perf_counter() - t0
    import numpy as np

    from hostspeed import Kernel

    digests = json.loads((Path(__file__).parent / "digests.json").read_text(encoding="utf-8"))
    # The fitted model is checked through the matrix it produces, not by its
    # bytes: the coefficients of predictors the data does not identify are
    # rounding noise that changes with the BLAS thread count, while every
    # matrix entry (6 decimals) stays the same.
    got = matrix_digest(pd, st.dm)
    want = digests["setup"]["matrix.tsv"]
    ops.check("set-up matrix digest", got == want, f"{got} != {want}")
    result = {"setup_s": setup_s, "fit_first_s": st.fit_first_s, "digests": {"setup": {"matrix.tsv": got}}}
    if spec["role"] == "setup":
        result.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors, traces=[tr.export()])
        return result

    graphemes = inputs.feature_graphemes(pd.bundled_path("features.tsv"))
    seed = spec["seed"]
    own = spec["workload"]
    workdir = Path(spec["workdir"])
    if spec["traced"]:
        with tr.span("probe"):
            probe_layers(pd, st, tr, workdir, CognancyList(pd, st, seed, graphemes).words)

    fresh = FreshSetups(spec, ops)
    kernel = Kernel()
    if own in WORKLOADS:
        work = WORKLOADS[own](pd, st, seed, graphemes)
        units, (out, got) = time_units(work, ops, tr, kernel, spec["seconds"], spec["traced"],
                                       after_unit=fresh.due)
        # Read before the checks, whose numpy oracle would add to the peak.
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(units=units, pairs=work.pairs, cells=work.cells, maxrss_kb=maxrss_kb)
        result["digests"][own] = got
        work.check(np, ops, out)
        ref_seed = digests["reference_seed"]
        if seed != ref_seed:
            ref = WORKLOADS[own](pd, st, ref_seed, graphemes)
            got = ref.digests(run_unit(ref, ops, Tracer(tr.run_id, enabled=False), kernel)[0])
        want = digests[own]
        ops.check(f"{own} digests at seed {ref_seed}", got == want, f"{got} != {want}")

    if spec["traced"]:
        for name, cls in WORKLOADS.items():
            if name != own:
                other = cls(pd, st, seed, graphemes)
                _, (out, _) = time_units(other, ops, tr, kernel, 0.0, True, min_units=1)
                other.check(np, ops, out)
        result["traceback_peak_mb"] = traceback_peak_mb(pd, st, seed, graphemes)

    fresh.finish()
    result.update(
        fresh=fresh.results,
        attempted=ops.attempted,
        failed=ops.failed,
        errors=ops.errors,
        traces=[tr.export()] + fresh.traces,
    )
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    try:
        payload = main(spec)
        code = 0
    except Exception:
        payload = {"fatal": traceback.format_exc()}
        code = 1
    Path(spec["out"]).write_text(json.dumps(payload), encoding="utf-8")
    sys.exit(code)
