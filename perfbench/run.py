#!/usr/bin/env python3
"""The repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        [--scale full|smoke] [--corrupt]
    python3 perfbench/run.py --diff TRACE_A.json TRACE_B.json

Run from the root of a checkout. It builds the system from source into
.bench_build/, generates the workload's inputs from --seed with
dgc_generate in a separate step (into .bench_work/), measures for
--seconds, checks every output, and prints as its last stdout line one
JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it is a "detail" object: the host stamp, working-set sizes, and
every metric with its unit and sample count. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, and the full trace (spans, counters) is written to
.bench_work/reports/. --diff compares the deterministic counters of two
such traces exactly and prints wall-time deltas as information.

Workloads: wiki-mlrmcl, lj-symmetrize, serve-mix.
"""

import argparse
import fcntl
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
TIMEOUT_S = 170

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import serve_mix  # noqa: E402

# Input sizes and pass shapes. "full" is what BENCHMARK.json measures;
# "smoke" runs all three workloads in about a minute for the tests.
SCALES = {
    "full": {
        "wiki-mlrmcl": {"n": 6000, "setups": 3, "f_floor": 0.45},
        "lj-symmetrize": {"n": 25000, "setups": 3, "batches_per_pass": 3,
                          "tile_budget_mb": 8},
        "serve-mix": {"setups": 3, "hits": 16, "deltas": 2},
    },
    "smoke": {
        "wiki-mlrmcl": {"n": 1500, "setups": 2, "f_floor": 0.3},
        "lj-symmetrize": {"n": 4000, "setups": 2, "batches_per_pass": 2,
                          "tile_budget_mb": 1},
        "serve-mix": {"setups": 2, "hits": 4, "deltas": 1},
    },
}
SMOKE_SECONDS = 2
# Each run measures this many independent inputs drawn from its seed: the
# cost of one generated graph moves by several percent from seed to seed,
# more than a regression bound should absorb, and pooling inputs averages
# that out.
INPUTS = 2
# A pass during which the host stole more than this share of all CPUs'
# time does not count towards the end-to-end figures.
STEAL_LIMIT = 0.05
DELTA_OPS = 100  # edges per lj delta batch: half deletes, half inserts

# Counters that must repeat exactly between two traced runs of the same
# seed (the hardware-independent gate of --diff).
DETERMINISTIC = ["linalg.flops", "cluster.rmcl.expanded_nnz",
                 "cluster.rmcl.iterations", "core.out_nnz",
                 "dynamic.rows_frac"]


class BenchError(Exception):
    """The benchmark itself could not run (no sources, build failure)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and host stamp.

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no dgc sources under {ROOT}/src; run from the "
                         "root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        log_path = os.path.join(BUILD, "build.log")
        with open(log_path, "a") as out:
            steps = [
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
                 "perfbench_offline", "dgc_generate", "dgc_serve_tool"],
            ]
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=out).returncode:
                    raise BenchError(f"build failed; see {log_path}")
    if build_type() != "Release":
        raise BenchError(f"refusing to measure a {build_type()!r} build")


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def binary(name):
    return os.path.join(BUILD, name)


def nproc():
    return len(os.sched_getaffinity(0))


def host_stamp(seed):
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{index}/level") as f:
                level = f.read().strip()
            with open(f"{base}/{index}/type") as f:
                kind = f.read().strip()
            with open(f"{base}/{index}/size") as f:
                size = f.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"nproc": nproc(), "cpu_model": model, "l2": caches.get("l2"),
            "l3": caches.get("l3"), "build_type": build_type(),
            "commit": commit, "source_sha256": digest.hexdigest(),
            "seed": seed}


# ---------------------------------------------------------------------------
# Inputs (a separate step: the measured processes only read files).

def generate(args, workdir, family_args, name, index):
    """Input `index` of the run's INPUTS independent graphs of one family."""
    out = os.path.join(workdir, name + ".txt")
    truth = os.path.join(workdir, name + ".truth")
    seed = INPUTS * args.seed + index
    cmd = [binary("dgc_generate"), *family_args, f"--seed={seed}",
           f"--out={out}", f"--truth={truth}"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"dgc_generate failed: {r.stderr.strip()}")
    return out, truth


def write_delta_stream(graph_path, out_path, batches, seed):
    """A seeded stream of DELTA_OPS-edge batches in the delta_io format:
    half deletes of arcs present at that point, half new inserts."""
    arcs, n = serve_mix.read_arcs(graph_path)
    session = serve_mix.Session(graph_path, arcs, n,
                                random.Random(f"lj-deltas/{seed}"))
    with open(out_path, "w") as f:
        for _ in range(batches):
            deletes, inserts = session.batch(DELTA_OPS)
            for u, v in deletes:
                f.write(f"- {u} {v}\n")
            for u, v, w in inserts:
                f.write(f"+ {u} {v} {w}\n")
            f.write("---\n")


# ---------------------------------------------------------------------------
# Statistics helpers.

def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else median(xs)


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def metric(value, samples):
    return {"value": float(value), "samples": int(samples)}


# ---------------------------------------------------------------------------
# Offline workloads (perfbench_offline does the calls).

def run_offline(args, scale, workdir):
    """One measured process per input, each with its share of the window;
    set-up runs at least cfg["setups"] times in fresh processes."""
    cfg = SCALES[scale][args.workload]
    base = [binary("perfbench_offline"), f"--workload={args.workload}",
            f"--threads={nproc()}", f"--corrupt={int(args.corrupt)}"]
    cmds = []
    for i in range(INPUTS):
        if args.workload == "wiki-mlrmcl":
            # The stand-in's default shape, 80 articles per category, at n.
            graph, truth = generate(args, workdir, [
                "--family=hyperlink", f"--n={cfg['n']}",
                f"--categories={cfg['n'] // 80}"], f"wiki{i}", i)
            cmds.append(base + [f"--graph={graph}", f"--truth={truth}",
                                f"--f-floor={cfg['f_floor']}"])
            continue
        graph, _ = generate(args, workdir, [
            "--family=social", f"--n={cfg['n']}", "--reciprocal=0.65"],
            f"lj{i}", i)
        deltas = os.path.join(workdir, f"lj{i}.delta")
        # Enough batches for the set-up pass and every pass the window can
        # hold; a pass never takes under a quarter second at either scale.
        batches = cfg["batches_per_pass"] * int(8 + 4 * args.seconds)
        write_delta_stream(graph, deltas, batches, f"{args.seed}/{i}")
        spill = os.path.join(workdir, "spill")
        os.makedirs(spill, exist_ok=True)
        cmds.append(base + [
            f"--graph={graph}", f"--deltas={deltas}",
            f"--batches-per-pass={cfg['batches_per_pass']}",
            f"--tile-budget-mb={cfg['tile_budget_mb']}",
            f"--spill-dir={spill}"])
    setups = [offline_process(cmds[i % INPUTS] + ["--setup-only=1"],
                              workdir, f"setup{i}")
              for i in range(cfg["setups"] - INPUTS)]
    mains = [offline_process(
        cmd + [f"--seconds={args.seconds / INPUTS}", f"--trace={args.trace}"],
        workdir, f"main{i}") for i, cmd in enumerate(cmds)]
    merged = dict(mains[0])
    merged["setups"] = [r["setup_s"] for r in setups + mains]
    merged["peak_rss_mb"] = mean([m["peak_rss_mb"] for m in mains])
    merged["passes"] = [p for m in mains for p in m["passes"]]
    # Set-up processes check their cold pass too.
    merged["failures"] = [f for r in setups + mains for f in r["failures"]]
    for key in ("attempted", "failed"):
        merged[key] = sum(r[key] for r in setups + mains)
    # Span parents index into their own process's list; re-base them.
    merged["spans"] = []
    for i, m in enumerate(mains):
        offset = len(merged["spans"])
        for span in m.get("spans", []):
            parent = span["parent"]
            merged["spans"].append(dict(
                span, input=i, parent=parent + offset if parent >= 0 else -1))
    return merged


def offline_process(cmd, workdir, tag):
    out = os.path.join(workdir, tag + ".json")
    r = subprocess.run(cmd + [f"--out={out}"], capture_output=True,
                       text=True, timeout=TIMEOUT_S)
    if r.returncode != 0 and not os.path.exists(out):
        raise BenchError(f"perfbench_offline exited {r.returncode}: "
                         f"{r.stderr.strip()}")
    with open(out) as f:
        result = json.load(f)
    if not result["completed"]:
        raise BenchError("perfbench_offline could not set up: "
                         f"{result['failures']}")
    return result


def steady(passes):
    """The passes (or serve rounds) the host left alone: on a shared VM the
    hypervisor can take a CPU for a while ("steal"), which says nothing
    about the program. Falls back to all of them if none qualifies."""
    return [p for p in passes if p["steal_frac"] <= STEAL_LIMIT] or passes


def offline_metrics(args, raw):
    passes = raw["passes"]
    steps = {}
    for p in passes:
        for k, v in p["steps"].items():
            steps.setdefault(k, []).extend(v)
    untraced = steady([p for p in passes if not p["traced"]] or passes)
    traced = [p for p in passes if p["traced"]]
    e2e = {
        "setup_s": metric(median(raw["setups"]), len(raw["setups"])),
        "pass_s": metric(median([p["wall_s"] for p in untraced]),
                         len(untraced)),
        "cpu_s": metric(median([p["cpu_s"] for p in untraced]),
                        len(untraced)),
        "peak_rss_mb": metric(raw["peak_rss_mb"], INPUTS),
    }
    workload = {}
    if args.workload == "wiki-mlrmcl":
        workload["pipeline_s"] = e2e["pass_s"]
        workload["avg_f"] = metric(median(steps["avg_f"]),
                                   len(steps["avg_f"]))
    else:
        for name in ("dd_symmetrize_s", "biblio_symmetrize_s", "dd_tiled_s"):
            workload[name] = metric(median(steps[name]), len(steps[name]))
        workload["dd_speedup"] = metric(
            median(steps["dd_1thread_s"]) / median(steps["dd_symmetrize_s"]),
            len(steps["dd_1thread_s"]))
        for name in ("biblio_delta", "aat_delta"):
            xs = steps[name + "_s"]
            workload[name + "_ms"] = metric(1e3 * median(xs), len(xs))

    layers = {}
    if traced:
        def value(key, first_only=False):
            xs = [p["values"].get(key, 0.0) for p in traced]
            return metric(xs[0] if first_only else mean(xs), len(xs))

        def self_s(layer):
            return metric(mean([p["self_s"].get(layer, 0.0) for p in traced]),
                          len(traced))

        n_traced = len(traced)
        info = raw["info"]
        wiki = args.workload == "wiki-mlrmcl"
        if wiki:
            layers["graph.read_s"] = metric(median(steps["read_s"]),
                                            len(steps["read_s"]))
            layers["core.threshold_select_s"] = metric(
                median(steps["threshold_select_s"]),
                len(steps["threshold_select_s"]))
            layers["core.dd_symmetrize_s"] = metric(
                median(steps["symmetrize_s"]), len(steps["symmetrize_s"]))
            layers["cluster.avg_f"] = workload["avg_f"]
        else:
            layers["graph.read_s"] = metric(info["read_s"], 1)
            layers["core.dd_symmetrize_s"] = workload["dd_symmetrize_s"]
            layers["core.biblio_symmetrize_s"] = workload[
                "biblio_symmetrize_s"]
            layers["core.dd_speedup"] = workload["dd_speedup"]
            layers["linalg.dd_tiled_s"] = workload["dd_tiled_s"]
            layers["dynamic.biblio_delta_ms"] = workload["biblio_delta_ms"]
            layers["dynamic.aat_delta_ms"] = workload["aat_delta_ms"]
            deltas = steps["biblio_delta_s"] + steps["aat_delta_s"]
            layers["dynamic.apply_ms"] = metric(1e3 * mean(deltas),
                                                len(deltas))
            first = traced[0]["values"]
            layers["dynamic.rows_frac"] = metric(
                first.get("dynamic.rows_recomputed", 0.0) /
                max(first.get("dynamic.rows_total", 0.0), 1.0), 1)
            scratch = (len(steps["biblio_delta_s"]) *
                       median(steps["biblio_symmetrize_s"]) +
                       len(steps["aat_delta_s"]) *
                       median(steps["aat_symmetrize_s"]))
            layers["dynamic.cost_frac"] = metric(sum(deltas) / scratch,
                                                 len(deltas))
        symmetrize = sum(sum(steps.get(k, [])) for k in (
            "symmetrize_s", "dd_symmetrize_s", "biblio_symmetrize_s",
            "dd_1thread_s", "dd_tiled_s", "aat_symmetrize_s"))
        layers["core.symmetrize_s"] = metric(symmetrize / len(passes),
                                             len(passes))
        layers["core.parallel_eff"] = metric(
            sum(steps["symmetrize_cpu_s"]) /
            (sum(steps["symmetrize_wall_s"]) * raw["threads"]),
            len(steps["symmetrize_cpu_s"]))
        for key in ("linalg.aat_symmetric.self_s",
                    "linalg.symmetric_sum.self_s", "linalg.transpose.self_s",
                    "linalg.tiled.self_s", "cluster.mlr_mcl_s",
                    "cluster.coarsen_s", "cluster.refine_s",
                    "cluster.rmcl.iteration_self_s"):
            layers[key] = value(key)
        for key in DETERMINISTIC[:4] + ["linalg.spool_bytes",
                                        "cluster.rmcl.converged_levels"]:
            layers[key] = value(key, first_only=True)
        expanded = traced[0]["values"].get("cluster.rmcl.expanded_nnz", 0.0)
        layers["cluster.rmcl.keep_ratio"] = metric(
            traced[0]["values"].get("cluster.rmcl.kept_nnz", 0.0) /
            expanded if expanded else 0.0, 1)
        for layer in ("graph", "core", "linalg", "cluster", "dynamic"):
            layers[layer + ".self_s"] = self_s(layer)
        attributed = [sum(p["self_s"].values()) for p in traced]
        layers["trace.unattributed_s"] = metric(
            mean([p["wall_s"] - a for p, a in zip(traced, attributed)]),
            n_traced)
        plain = [p["wall_s"] for p in passes if not p["traced"]]
        layers["trace.overhead_s"] = metric(
            median([p["wall_s"] for p in traced]) - median(plain)
            if plain else 0.0, min(len(plain), n_traced))
    # First-call cost: each step of the cold pass beside its warm median.
    workload["cold_pass"] = {
        k[len("cold_"):]: {"cold": v, "warm": median(steps.get(
            k[len("cold_"):], []))}
        for k, v in raw["info"].items() if k.startswith("cold_")}
    working = {"input_csr_bytes": raw["info"].get("input_csr_bytes", 0),
               "symmetrized_csr_bytes":
                   raw["info"].get("symmetrized_csr_bytes", 0),
               "rmcl_expansion_bytes": None}
    if traced and args.workload == "wiki-mlrmcl":
        # Largest single expansion, computed: nnz x (index + value bytes).
        working["rmcl_expansion_bytes"] = 12 * traced[0]["values"].get(
            "cluster.rmcl.max_expanded_nnz", 0.0)
    spans = raw.get("spans", [])
    return e2e, workload, layers, working, spans


# ---------------------------------------------------------------------------
# serve-mix.

def run_serve(args, scale, workdir):
    cfg = SCALES[scale]["serve-mix"]
    graphs = {}
    for i in range(INPUTS):
        graphs[f"cora{i}"], _ = generate(
            args, workdir, ["--family=citation", "--n=6000"], f"cora{i}", i)
        graphs[f"lfr{i}"], _ = generate(
            args, workdir, ["--family=lfr", "--n=5000"], f"lfr{i}", i)
    return serve_mix.run(
        binary("dgc_serve"), workdir, graphs, args.seed, args.seconds,
        bool(args.trace), cfg["hits"], cfg["deltas"], cfg["setups"],
        corrupt=args.corrupt)


def serve_metrics(args, raw):
    rounds = raw["rounds"]  # one record per client round
    untraced = steady([r for r in rounds if not r["traced"]] or rounds)
    traced = [r for r in rounds if r["traced"]]

    def pool(rs, key):
        return [x for r in rs for x in r[key]]

    e2e = {
        "setup_s": metric(median(raw["setup_s"]), len(raw["setup_s"])),
        "pass_s": metric(median([r["wall_s"] for r in untraced]),
                         len(untraced)),
        "cpu_s": metric(raw["daemon_cpu_s"] * serve_mix.CLIENTS /
                        max(len(rounds), 1), len(rounds)),
        # The primed daemon's peak: the mix's own peak depends on how the
        # clients' cold requests happen to overlap, which moves it by more
        # than any bound; the mix's growth is a per-layer figure.
        "peak_rss_mb": metric(median(raw["primed_rss_mb"]),
                              len(raw["primed_rss_mb"])),
    }
    hits, colds, deltas = (pool(untraced, k) for k in
                           ("hit_s", "cold_s", "delta_s"))
    requests = len(pool(rounds, "cache"))
    workload = {
        "hit_p50_ms": metric(1e3 * median(hits), len(hits)),
        "hit_p90_ms": metric(1e3 * p90(hits), len(hits)),
        "cold_p50_ms": metric(1e3 * median(colds), len(colds)),
        "delta_p50_ms": metric(1e3 * median(deltas), len(deltas)),
        "serve_rps": metric(requests / raw["wall_s"], requests),
    }
    layers = {}
    if traced:
        n = len(traced)
        layers["serve.hit_p50_ms"] = workload["hit_p50_ms"]
        layers["serve.hit_p90_ms"] = workload["hit_p90_ms"]
        layers["serve.cold_p50_ms"] = workload["cold_p50_ms"]
        layers["serve.delta_p50_ms"] = workload["delta_p50_ms"]
        layers["serve.rps"] = workload["serve_rps"]
        for name, key in (("serve.delta_ms", "delta_span_s"),
                          ("serve.wait_ms", "wait_s"),
                          ("serve.load_graph_ms", "load_graph_s"),
                          ("serve.connect_ms", "connect_s"),
                          ("cluster.stage2_ms", "stage2_s")):
            xs = pool(traced, key)
            layers[name] = metric(1e3 * median(xs), len(xs))
        xs = pool(traced, "load_graph_s")
        layers["graph.read_s"] = metric(median(xs), len(xs))
        caches = pool(rounds, "cache")
        lookups = [c for c in caches if c in ("hit", "miss", "refresh")]
        layers["serve.cache.hit_ratio"] = metric(
            lookups.count("hit") / max(len(lookups), 1), len(lookups))
        # Absent only when a client failed before the rounds were done.
        for key in ("vm_growth_mb", "rss_growth_mb"):
            layers["serve." + key] = metric(raw.get(key, 0.0),
                                            int(key in raw))
        for layer in ("graph", "core", "linalg", "cluster", "dynamic",
                      "serve"):
            layers[layer + ".self_s"] = metric(
                mean([r["self_s"].get(layer, 0.0) for r in traced]), n)
        # Round 0 of every client is traced and runs the same requests
        # against the same daemon state on every run of a seed.
        first = {}
        for r in traced:
            if r["round"] == 0:
                for key, v in r["counters"].items():
                    first[key] = first.get(key, 0) + v
        for key in ("linalg.flops", "core.out_nnz"):
            layers[key] = metric(first.get(key, 0.0), 1)
        layers["dynamic.rows_frac"] = metric(
            first.get("rows_recomputed", 0.0) /
            max(first.get("rows_total", 0.0), 1.0), 1)
        layers["dynamic.apply_ms"] = layers["serve.delta_ms"]
        layers["trace.unattributed_s"] = metric(
            mean([r["unattributed_s"] for r in traced]), n)
        plain = [r["wall_s"] for r in rounds if not r["traced"]]
        layers["trace.overhead_s"] = metric(
            median([r["wall_s"] for r in traced]) - median(plain)
            if plain else 0.0, min(len(plain), n))
    working = {"input_csr_bytes": raw.get("input_csr_bytes"),
               "symmetrized_csr_bytes": raw.get("symmetrized_csr_bytes"),
               "rmcl_expansion_bytes": None}
    spans = [s for r in traced for s in r["spans"]]
    return e2e, workload, layers, working, spans


# ---------------------------------------------------------------------------
# Output.

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def shape(values, specs):
    """Every metric of `specs`, with its unit; a layer the workload does not
    use reads 0 with 0 samples."""
    out = {}
    for spec in specs:
        m = values.get(spec["name"], {"value": 0.0, "samples": 0})
        out[spec["name"]] = {"value": m["value"], "unit": spec["unit"],
                             "samples": m["samples"]}
    return out


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    scale = args.scale
    if scale == "smoke":
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    build()
    workdir = os.path.join(WORK, f"{args.workload}-{scale}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.workload == "serve-mix":
            raw = run_serve(args, scale, workdir)
            e2e, workload, layers, working, spans = serve_metrics(args, raw)
        else:
            raw = run_offline(args, scale, workdir)
            e2e, workload, layers, working, spans = offline_metrics(args, raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = max(int(raw["attempted"]), 1)
    failed = int(raw["failed"])
    detail = {
        "workload": args.workload, "scale": scale,
        "stamp": host_stamp(args.seed), "working_set_bytes": working,
        "cold_pass": workload.pop("cold_pass", None),
        "workload_metrics": workload,
        "end_to_end": shape(e2e, spec["end_to_end"]),
        "failures": raw["failures"],
    }
    if args.trace:
        detail["per_layer"] = shape(layers, spec["per_layer"])
        reports = os.path.join(WORK, "reports")
        os.makedirs(reports, exist_ok=True)
        path = os.path.join(
            reports, f"{args.workload}-{scale}-seed{args.seed}-"
                     f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump({"detail": detail, "spans": spans}, f)
        detail["trace_report"] = os.path.relpath(path, ROOT)
    chosen = detail["per_layer"] if args.trace else detail["end_to_end"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in chosen.items()}}))


def diff(path_a, path_b):
    """Exact comparison of the deterministic counters of two traces; wall
    times are printed as information only. Exit 1 on any counter change."""
    with open(path_a) as f:
        a = json.load(f)["detail"]
    with open(path_b) as f:
        b = json.load(f)["detail"]
    if a["workload"] != b["workload"] or a["scale"] != b["scale"]:
        print(f"different workloads: {a['workload']}/{a['scale']} vs "
              f"{b['workload']}/{b['scale']}")
        return 1
    changed = 0
    print(f"{a['workload']} ({a['scale']}), seeds {a['stamp']['seed']} / "
          f"{b['stamp']['seed']}")
    for name in DETERMINISTIC:
        va = a["per_layer"][name]["value"]
        vb = b["per_layer"][name]["value"]
        mark = "same" if va == vb else "CHANGED"
        changed += va != vb
        print(f"  counter {name:32s} {va:>18.10g} {vb:>18.10g}  {mark}")
    for name, ma in a["per_layer"].items():
        if ma["unit"] in ("s", "ms") and name in b["per_layer"]:
            vb = b["per_layer"][name]["value"]
            if ma["value"] or vb:
                print(f"  info    {name:32s} {ma['value']:>18.6g} "
                      f"{vb:>18.6g}  {vb - ma['value']:+.6g} {ma['unit']}")
    return 1 if changed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output before it is checked")
    parser.add_argument("--diff", nargs=2, metavar="TRACE")
    args = parser.parse_args()
    try:
        if args.diff:
            return diff(*args.diff)
        if not args.workload:
            parser.error("--workload is required")
        run(args)
        return 0
    except (BenchError, OSError, subprocess.SubprocessError,
            RuntimeError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
