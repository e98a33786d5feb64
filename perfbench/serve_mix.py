"""serve-mix: drives a real dgc_serve over loopback TCP as a closed loop.

Three clients share one daemon. Each client works through seeded rounds
back to back, sending one request at a time and waiting for each reply
before sending the next (no think time). Client 0 opens a new connection
for every request; clients 1 and 2 keep one connection for the whole run.

A client's round holds cache-hit stage-2 sweeps over every stage-1 key,
one `cache: refresh` cold request and a fixed number of `apply_delta`
batches on the client's own incremental session.
Every request asks for `threads: 1`, so the daemon runs at most three
compute threads. MLR-MCL stays out of the mix (seconds per request); the
offline wiki workload covers it.
"""

import json
import os
import random
import re
import socket
import subprocess
import threading
import time

# Stage-1 keys of the hit traffic, per graph: (graph, method, threshold,
# beta). With the cold keys below they fit the daemon's default 256 MiB
# cache with room for the delta chains. Bibliometric thresholds are co-link
# counts (a fractional one prunes nothing); the degree-discounted ones keep
# hits at 0.05-0.2 s.
def hit_keys(graphs):
    return [(g, method, threshold, 0.5) for g in sorted(graphs)
            for method, threshold in (("dd", 0.05), ("biblio", 2))]


# Cold requests refresh keys of their own, because a refresh drops the
# entry before recomputing it and a concurrent hit on that key would miss.
# Each cold key builds the same graph as its hit key: bibliometric ignores
# beta, and a degree-discounted weight within 1e-9 of 0.05 is unlikely
# (cold labels are checked against their own key either way).
def cold_keys(graphs):
    return [(g, "dd", 0.05 + 1e-9, 0.5) if method == "dd"
            else (g, "biblio", 2, 0.501)
            for g, method, _, _ in hit_keys(graphs)]


SWEEP = [(alg, k) for alg in ("metis", "graclus") for k in (8, 16, 32)]
# Requests with these stage-2 parameters return labels, which must equal
# the cold labels recorded for the same stage-1 key at start-up.
CHECKED = ("metis", 16)
CLIENTS = 3
# Client c's incremental session streams deltas into the c-th citation
# graph (round-robin), so delta costs average over the run's inputs.
DELTA_GRAPHS = "cora"
DELTA_EDGES = 20  # half deletes of existing arcs, half new inserts
# Every delta adds a chained cache entry, so the daemon's memory grows with
# the rounds run. The growth is read once the clients have run this many
# rounds each, which every run does, so runs on fast and slow hosts compare
# it at equal work.
MEMORY_ROUNDS = 4


def session_threshold(client):
    """Each client's incremental session needs its own stage-1 key."""
    return 0.05 + 0.0001 * (client + 1)


def read_arcs(path):
    arcs = []
    num_vertices = 0
    with open(path) as f:
        for line in f:
            if not line.strip() or line[0] in "#%":
                continue
            parts = line.split()
            u, v = int(parts[0]), int(parts[1])
            arcs.append((u, v))
            num_vertices = max(num_vertices, u + 1, v + 1)
    return arcs, num_vertices


def csr_bytes(rows, nnz):
    """Computed CSR size: int64 row offsets, int32 columns, double values."""
    return (rows + 1) * 8 + nnz * 12


def proc_status(pid, key):
    """A /proc/<pid>/status field in MiB (VmRSS, VmHWM, VmSize)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def steal_ticks():
    """(stolen, all) CPU ticks since boot from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """One dgc_serve --port=0 process; stop() always reaps it."""

    def __init__(self, binary, cwd):
        self.proc = subprocess.Popen(
            [binary, "--port=0"], cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        ready = self.proc.stdout.readline()
        match = re.match(r"listening on ([0-9.]+):(\d+)", ready)
        if not match:
            self.stop()
            raise RuntimeError(f"dgc_serve gave no readiness line: {ready!r}")
        self.address = (match.group(1), int(match.group(2)))

    def stop(self):
        if self.proc.poll() is None:
            try:
                with socket.create_connection(self.address, timeout=5) as s:
                    s.sendall(b'{"op": "shutdown"}\n')
                    s.makefile().readline()
                self.proc.wait(timeout=30)
            except (OSError, AttributeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class Connection:
    def __init__(self, address):
        t0 = time.perf_counter()
        self.sock = socket.create_connection(address)
        self.connect_s = time.perf_counter() - t0
        # A stuck daemon fails the run instead of hanging it.
        self.sock.settimeout(60)
        self.file = self.sock.makefile()

    def request(self, payload):
        """Returns (send time, round-trip seconds, response dict)."""
        line = (json.dumps(payload) + "\n").encode()
        t0 = time.perf_counter()
        self.sock.sendall(line)
        reply = self.file.readline()
        elapsed = time.perf_counter() - t0
        if not reply:
            raise RuntimeError("dgc_serve closed the connection")
        return t0, elapsed, json.loads(reply)

    def close(self):
        self.file.close()
        self.sock.close()


class Session:
    """A client's view of its incremental session's edge set, so every
    delete names an existing arc and every insert a new one."""

    def __init__(self, graph, arcs, num_vertices, rng):
        self.graph = graph
        self.arcs = list(arcs)
        self.present = set(arcs)
        self.num_vertices = num_vertices
        self.rng = rng

    def batch(self, ops=DELTA_EDGES):
        deletes = set()
        while len(deletes) < ops // 2:
            arc = self.arcs[self.rng.randrange(len(self.arcs))]
            if arc in self.present:
                deletes.add(arc)
        inserts = set()
        while len(inserts) < ops - ops // 2:
            u = self.rng.randrange(self.num_vertices)
            v = self.rng.randrange(self.num_vertices)
            if u != v and (u, v) not in self.present:
                inserts.add((u, v))
        for arc in deletes:
            self.present.discard(arc)
        for arc in inserts:
            self.present.add(arc)
            self.arcs.append(arc)
        return ([list(a) for a in sorted(deletes)],
                [[u, v, 1.0] for u, v in sorted(inserts)])


def cluster_request(graphs, key, alg, k, **extra):
    graph, method, threshold, beta = key
    payload = {"graph": graphs[graph], "method": method,
               "threshold": threshold, "beta": beta, "algorithm": alg,
               "clusters": k, "threads": 1}
    payload.update(extra)
    return payload


def delta_request(graphs, client, session):
    deletes, inserts = session.batch()
    return {"op": "apply_delta", "graph": graphs[session.graph],
            "method": "dd", "threshold": session_threshold(client),
            "algorithm": "metis", "clusters": 16, "threads": 1,
            "deletes": deletes, "inserts": inserts}


def round_scripts(graphs, seed, round_index, hits, deltas):
    """Every client's seeded script for one round. Per stage-1 key each
    client gets one Metis and one Graclus hit, the three clients covering
    k = 8, 16 and 32 of each in a seeded order, so their scripts cost about
    the same on every seed. A client keeps the first `hits` of its shuffled
    hits and adds one cold request on a rotating key and `deltas` deltas."""
    rng = random.Random(f"serve-mix/{seed}/{round_index}")
    scripts = [[] for _ in range(CLIENTS)]
    for key in hit_keys(graphs):
        for alg in ("metis", "graclus"):
            ks = [8, 16, 32]
            rng.shuffle(ks)
            for client in range(CLIENTS):
                scripts[client].append(("hit", key, (alg, ks[client])))
    colds = cold_keys(graphs)
    for client, script in enumerate(scripts):
        rng.shuffle(script)
        del script[hits:]
        turn = round_index * CLIENTS + client
        script.append(("cold", colds[turn % len(colds)],
                       SWEEP[turn % len(SWEEP)]))
        script += [("delta", None, None)] * deltas
        rng.shuffle(script)
    return scripts


def span_walk(span, parent_layer, out):
    """Folds one server report span tree into per-layer self seconds."""
    layers = {"serve.request": "serve", "serve.load_graph": "graph",
              "pipeline": "cluster", "cluster": "cluster",
              "symmetrize": "core", "prune": "core", "delta": "dynamic",
              "transpose": "linalg", "spgemm": "linalg",
              "spgemm.aat_symmetric": "linalg",
              "spgemm.symmetric_sum": "linalg", "tiled_spgemm": "linalg"}
    layer = layers.get(span["name"], parent_layer)
    children = span.get("children", [])
    self_s = span["wall_seconds"] - sum(c["wall_seconds"] for c in children)
    out[layer] = out.get(layer, 0.0) + self_s
    for child in children:
        span_walk(child, layer, out)


def find_spans(span, name):
    if span["name"] == name:
        yield span
    for child in span.get("children", []):
        yield from find_spans(child, name)


class Run:
    def __init__(self, binary, workdir, graphs, seed, hits, deltas,
                 corrupt=False):
        self.binary = binary
        self.workdir = workdir
        self.graphs = graphs
        self.seed = seed
        self.hits = hits
        self.deltas = deltas
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.lock = threading.Lock()
        self.reference = {}
        self.symmetrized_bytes = {}
        self.primed_rss_mb = []
        self.delta_graphs = sorted(g for g in graphs
                                   if g.startswith(DELTA_GRAPHS))
        self.arcs = {g: read_arcs(graphs[g]) for g in self.delta_graphs}
        self.sessions = []

    def check(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)

    def start(self):
        """Starts a daemon and primes it: one cold request per stage-1 key
        (recording the reference labels) and each client's first delta,
        which creates its incremental session."""
        daemon = Daemon(self.binary, self.workdir)
        # A fresh daemon has fresh sessions; so do the clients' views.
        self.sessions = []
        for c in range(CLIENTS):
            graph = self.delta_graphs[c % len(self.delta_graphs)]
            arcs, n = self.arcs[graph]
            self.sessions.append(Session(
                graph, arcs, n,
                random.Random(f"serve-mix/{self.seed}/delta/{c}")))
        try:
            conn = Connection(daemon.address)
            hits = hit_keys(self.graphs)
            for key in hits + cold_keys(self.graphs):
                _, _, r = conn.request(cluster_request(
                    self.graphs, key, *CHECKED, cache="refresh",
                    labels=True))
                ok = r.get("ok") is True
                self.check(ok, f"prime {key}: {r.get('status')}")
                self.reference[key] = r.get("labels")
                if ok and key in hits:
                    for s in find_spans(r["report"]["spans"][0], "cluster"):
                        m = s["metrics"]
                        self.symmetrized_bytes[key] = csr_bytes(
                            m["input_vertices"], m["input_nnz"])
            for c in range(CLIENTS):
                _, _, r = conn.request(
                    delta_request(self.graphs, c, self.sessions[c]))
                self.check(r.get("ok") is True,
                           f"prime delta {c}: {r.get('status')}")
            conn.close()
            self.primed_rss_mb.append(proc_status(daemon.proc.pid, "VmHWM"))
        except Exception:
            daemon.stop()
            raise
        return daemon

    def client_round(self, daemon, client, conn, round_index, traced, out):
        script = round_scripts(self.graphs, self.seed, round_index,
                               self.hits, self.deltas)[client]
        steal0, total0 = steal_ticks()
        t_round = time.perf_counter()
        busy = 0.0
        for i, (kind, key, params) in enumerate(script):
            if kind == "delta":
                payload = delta_request(self.graphs, client,
                                        self.sessions[client])
            else:
                extra = {"labels": True} if params == CHECKED else {}
                if kind == "cold":
                    extra["cache"] = "refresh"
                payload = cluster_request(self.graphs, key, *params, **extra)
            payload["id"] = f"c{client}-r{round_index}-{i}"
            if conn is None:
                c = Connection(daemon.address)
                out["connect_s"].append(c.connect_s)
                busy += c.connect_s
            else:
                c = conn
            try:
                sent, latency, r = c.request(payload)
            finally:
                if conn is None:
                    c.close()
            busy += latency
            ok = r.get("ok") is True
            expect = {"hit": "hit", "cold": "refresh", "delta": None}[kind]
            if expect is not None:
                ok = ok and r.get("cache") == expect
            self.check(ok, f"{kind} {payload['id']}: "
                           f"{r.get('status')} cache={r.get('cache')}")
            if "labels" in payload:
                labels = r.get("labels")
                if self.corrupt and labels:
                    labels = [labels[0] + 1] + labels[1:]
                self.check(labels == self.reference[key],
                           f"{kind} {payload['id']}: labels differ from "
                           "the cold labels")
            out[kind + "_s"].append(latency)
            out["cache"].append(r.get("cache"))
            if traced and ok:
                out["spans"].append({
                    "name": "client." + kind, "request": payload["id"],
                    "start": sent, "end": sent + latency,
                    "parent": f"client{client}-round{round_index}"})
                report = r["report"]["spans"][0]
                span_walk(report, "serve", out["self_s"])
                for s in find_spans(report, "serve.load_graph"):
                    out["load_graph_s"].append(s["wall_seconds"])
                for s in find_spans(report, "delta"):
                    out["delta_span_s"].append(s["wall_seconds"])
                if kind == "hit":
                    for s in find_spans(report, "cluster"):
                        out["stage2_s"].append(s["wall_seconds"])
                counters = out["counters"]
                for s in find_spans(report, "spgemm.aat_symmetric"):
                    counters["linalg.flops"] = counters.get(
                        "linalg.flops", 0) + s["metrics"].get(
                            "flops_full_product", 0)
                for s in find_spans(report, "symmetrize"):
                    counters["core.out_nnz"] = counters.get(
                        "core.out_nnz", 0) + s["metrics"].get("output_nnz", 0)
                if kind == "delta":
                    for key in ("rows_recomputed", "rows_total"):
                        counters[key] = counters.get(key, 0) + r.get(key, 0)
                out["self_s"]["serve"] = (out["self_s"].get("serve", 0.0) +
                                          latency - report["wall_seconds"])
                out["wait_s"].append(latency - report["wall_seconds"])
        out["wall_s"] = time.perf_counter() - t_round
        out["unattributed_s"] = out["wall_s"] - busy
        steal1, total1 = steal_ticks()
        out["steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)

    def measure(self, daemon, conns, seconds, trace):
        """The closed loop: each client runs its rounds back to back until
        the window is spent and it has run MEMORY_ROUNDS rounds. Returns one
        record per client round, the daemon's CPU seconds, the wall time
        and the daemon's memory once MEMORY_ROUNDS rounds per client are
        done."""
        records = []
        memory = {}
        errors = []
        pid = daemon.proc.pid
        rss0 = proc_status(pid, "VmRSS")
        vm0 = proc_status(pid, "VmSize")
        t0 = time.perf_counter()

        def body(client):
            round_index = 0
            try:
                while (round_index < MEMORY_ROUNDS or
                       time.perf_counter() - t0 < seconds):
                    out = {"hit_s": [], "cold_s": [], "delta_s": [],
                           "connect_s": [], "cache": [], "self_s": {},
                           "load_graph_s": [], "delta_span_s": [],
                           "stage2_s": [], "wait_s": [], "spans": [],
                           "counters": {}, "client": client,
                           "round": round_index,
                           "traced": trace and round_index % 2 == 0}
                    self.client_round(daemon, client, conns[client],
                                      round_index, out["traced"], out)
                    with self.lock:
                        records.append(out)
                        if len(records) == CLIENTS * MEMORY_ROUNDS:
                            memory.update(
                                vm_growth_mb=proc_status(pid, "VmSize") - vm0,
                                rss_growth_mb=proc_status(pid, "VmRSS") - rss0)
                    round_index += 1
            except Exception as e:  # noqa: BLE001 - reported as a failure
                errors.append(f"client {client}: {e}")

        cpu0 = proc_cpu_s(pid)
        threads = [threading.Thread(target=body, args=(c,))
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        cpu = proc_cpu_s(pid) - cpu0
        for e in errors:
            self.check(False, e)
        return records, cpu, wall, memory


def run(binary, workdir, graphs, seed, seconds, trace, hits, deltas,
        setups, corrupt=False):
    """Returns the raw result dict that run.py turns into metrics."""
    r = Run(binary, workdir, graphs, seed, hits, deltas, corrupt)
    setup_s = []
    daemon = None
    try:
        # Set-up is daemon start to readiness plus priming; the last
        # daemon started is the one measured.
        for _ in range(setups):
            if daemon is not None:
                daemon.stop()
            t0 = time.perf_counter()
            daemon = r.start()
            setup_s.append(time.perf_counter() - t0)
        conns = [None] + [Connection(daemon.address)
                          for _ in range(CLIENTS - 1)]
        records, cpu, wall, memory = r.measure(daemon, conns, seconds, trace)
        result = {
            "setup_s": setup_s, "rounds": records, "daemon_cpu_s": cpu,
            "wall_s": wall, "primed_rss_mb": r.primed_rss_mb, **memory,
            "input_csr_bytes": sum(
                csr_bytes(n, len(arcs)) for arcs, n in
                (read_arcs(path) for path in graphs.values())),
            "symmetrized_csr_bytes": sum(r.symmetrized_bytes.values()),
            "attempted": r.attempted, "failed": r.failed,
            "failures": r.failures}
        for c in conns:
            if c is not None:
                c.close()
        return result
    finally:
        if daemon is not None:
            daemon.stop()
