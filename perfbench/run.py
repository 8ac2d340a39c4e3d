#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the libraries, tags_server and the
pb_bench from source into .bench_build (perfbench/CMakeLists.txt), runs the
workload, checks its outputs, and prints one JSON object as the last line
of stdout: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. Progress and the named figures (with
sample counts) go to the lines before it. See perfbench/README.md.
"""

import argparse
import csv
import json
import os
import resource
import shutil
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import pbstats as st  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_ROOT = os.path.join(ROOT, ".bench_run")
BENCH = os.path.join(BUILD_DIR, "pb_bench")
SERVER = os.path.join(BUILD_DIR, "tags_server")

WORKLOADS = ("paper_sweep", "large_chain", "serve_mixed", "sim_tags")
THREADS = 4            # nproc of the reference machine; sweep/replication workers
SERVER_THREADS = 3     # + one load-generator process = 4 busy threads
SETUP_REPEATS = 9      # in-process workloads: set-ups timed per run
SERVE_SETUP_REPEATS = 7

# The gated times are CPU times at the speed of pb_bench's reference
# kernel: measured CPU seconds x REF_REP_S / (CPU seconds of one reference
# rep timed right after, or alongside, the measured work). REF_REP_S
# defines the reference machine; one rep took 0.105 s in a quiet hour of
# the machine the benchmark was sized on.
REF_REP_S = 0.1
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

# serve_mixed: open-loop phases at fixed offered rates (requests/s). When
# the benchmark was introduced the daemon saturated between about 1 200
# req/s (shared host busy) and 2 700 req/s on 4 cores; nominal and peak sit
# near 30% and 70% of the lower figure. Durations are for --seconds 10 and
# scale with it.
WARM = ("warm", 400.0, 1.0)
NOMINAL = ("nominal", 400.0, 5.0)
PEAK = ("peak", 800.0, 2.5)
PLAN_SECONDS = 10.0

ITERATIVE = ("gauss-seidel", "gmres", "power")
METHODS = ("level-qbd", "ncd-ad", "dense-lu", "gauss-seidel", "gmres", "power")
LAYERS = ("bench", "loadgen", "core", "approx", "models", "pepa", "ctmc", "linalg",
          "serve", "sim")


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

_children = []


def _track(proc):
    _children.append(proc)
    return proc


def stop_children():
    for p in _children:
        if p.poll() is None:
            p.kill()
    for p in _children:
        try:
            p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass


def child_env(traced):
    env = dict(os.environ)
    # The program as shipped: default obs level, no trace sink, default
    # sweep settings. The traced run raises the obs level only. Sweeps,
    # replications and the daemon already keep 4 threads busy, and the large
    # solves are Gauss-Seidel sweeps (sequential), so OpenMP gets 1 thread.
    for key in list(env):
        if key.startswith("TAGS_"):
            del env[key]
    env["OMP_NUM_THREADS"] = "1"
    if traced:
        env["TAGS_OBS_LEVEL"] = "2"
    return env


def build():
    for need in ("src/CMakeLists.txt", "tools/tags_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("repository sources not found: " + need)
    # Configuring every time is cheap and picks up a changed target list.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(THREADS), "--target",
                    "pb_bench", "tags_server"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_bench(args, env, cwd):
    """Run pb_bench; returns (set-up or None, last stdout line as JSON).
    Set-up is (wall s from the spawn to its "ready <cpu_s>" line, the CPU s
    it reports there)."""
    t0 = time.perf_counter()
    proc = _track(subprocess.Popen([BENCH] + args, stdout=subprocess.PIPE, text=True,
                                   env=env, cwd=cwd))
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    setup = None
    last = None
    try:
        for line in proc.stdout:
            line = line.strip()
            if line.startswith("ready") and setup is None:
                setup = (time.perf_counter() - t0, float(line.split()[1]))
            elif line:
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0 or (last is None and "--setup-only" not in args):
        raise BenchError("pb_bench %s exited with %d" % (args[0], code))
    return setup, json.loads(last) if last else None


class Daemon:
    """tags_server in its own run directory, with a fresh durable store."""

    def __init__(self, run_dir, env):
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.telemetry = os.path.join(run_dir, "server_telemetry.json")
        self.t0 = time.perf_counter()
        self.proc = _track(subprocess.Popen(
            [SERVER, "--socket=s.sock", "--threads=%d" % SERVER_THREADS, "--store=store",
             "--telemetry-out=server_telemetry.json"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=run_dir))
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        line = self.proc.stdout.readline()
        timer.cancel()
        if "listening" not in line:
            raise BenchError("tags_server did not start")

    def cpu_s(self):
        """CPU seconds (user + system, all threads) the daemon has used."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(os.path.join(self.run_dir, "s.sock"))
            s.sendall(b'{"op":"shutdown","id":"bench"}\n')
            s.recv(4096)
        self.proc.stdout.read()
        # The daemon is the only child that ends here, so the growth of the
        # reaped children's CPU time is its lifetime CPU time (to the us).
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        if self.proc.wait(timeout=60) != 0:
            raise BenchError("tags_server exited with an error")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.lifetime_cpu_s = (after.ru_utime + after.ru_stime
                               - before.ru_utime - before.ru_stime)


def log_reference(reps):
    log("  reference rep = %.4f s CPU (median of n=%d)" % (st.median(reps), len(reps)))


def fresh_dir(name):
    path = os.path.join(RUN_ROOT, "%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# In-process workloads: paper_sweep, large_chain, sim_tags
# ---------------------------------------------------------------------------

def inprocess_untraced(workload, seed, seconds, run_dir):
    env = child_env(traced=False)
    base = [workload, "--seed", str(seed), "--seconds", repr(seconds)]
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        setups.append(run_bench(base + ["--setup-only"], env, run_dir)[0])
    setup, res = run_bench(base, env, run_dir)
    setups.append(setup)
    setup_cpu = [cpu for _, cpu in setups]
    refs = res["pass_ref_s"]
    log_reference(refs)
    named = {
        # Each pass against the reference slice that ran right after it: the
        # host's speed moves within seconds.
        "cpu_s": st.median([c / r for c, r in zip(res["pass_cpu_s"], refs)]) * REF_REP_S,
        "setup_s": st.median(setup_cpu) * REF_REP_S / st.median(refs),
        "peak_rss_mb": res["rss_mb"],
    }
    wall_s = st.median(res["pass_s"])
    log("%s: %d passes, pass_s %s" % (workload, len(res["pass_s"]),
                                       " ".join("%.3f" % v for v in res["pass_s"])))
    log("  pass_cpu_s %s" % " ".join("%.3f" % v for v in res["pass_cpu_s"]))
    log("  pass_ref_s %s" % " ".join("%.4f" % v for v in refs))
    if workload == "sim_tags":
        log("  sim_jobs_per_s = %.1f jobs/s (median pass, n=%d passes)"
            % (res["facts"]["sim.jobs"] / wall_s, len(res["pass_s"])))
    else:
        log("  %s = %.4f s (median of n=%d passes)"
            % ({"paper_sweep": "sweep_s", "large_chain": "large_chain_s"}[workload], wall_s,
               len(res["pass_s"])))
    log("  measured: pass CPU %.4f s, set-up CPU %.5f s, set-up wall %.5f s (medians, n=%d)"
        % (st.median(res["pass_cpu_s"]), st.median(setup_cpu),
           st.median([wall for wall, _ in setups]), len(setups)))
    return named, res["attempted"], res["failed"], res["checks"]


def inprocess_traced(workload, seed, seconds, run_dir):
    env = child_env(traced=False)
    base = [workload, "--seed", str(seed), "--seconds", repr(seconds)]
    _, plain = run_bench(base + ["--passes", "1"], env, run_dir)
    tel_path = os.path.join(run_dir, "telemetry.json")
    _, res = run_bench(base + ["--telemetry-out", tel_path],
                        child_env(traced=True), run_dir)
    with open(tel_path) as f:
        tel = json.load(f)
    spans = [dict(s, id=("p", s["id"]), parent=("p", s["parent"])) for s in tel["spans"]]
    facts = res["facts"]
    traced_s = res["pass_s"][0]
    m = layer_metrics(spans, tel["solves"], tel["counters"], facts)
    m["obs.trace_overhead_pct"] = 100.0 * (traced_s - plain["pass_s"][0]) / plain["pass_s"][0]
    m["obs.spans_dropped"] = tel["spans_dropped"]
    if workload == "paper_sweep":
        sweeps = [s for s in spans if s["name"] == "core/sharded_sweep"]
        tasks = [s for s in spans if s["name"] == "core/pool_task"]
        sweep_ids = {s["id"]: s for s in sweeps}
        busy = sum(t["end_ms"] - t["start_ms"] for t in tasks if t["parent"] in sweep_ids)
        capacity = sum(THREADS * (s["end_ms"] - s["start_ms"]) for s in sweeps)
        m["core.pool.busy_frac"] = busy / capacity if capacity > 0 else 0.0
        ratios = []
        for sw in sweeps:
            task_ids = {t["id"] for t in tasks if t["parent"] == sw["id"]}
            shards = [s["end_ms"] - s["start_ms"] for s in spans
                      if s["name"] == "core/shard" and s["parent"] in task_ids]
            if shards:
                ratios.append(max(shards) / (sum(shards) / len(shards)))
        m["core.sweep.shard_imbalance"] = sum(ratios) / len(ratios) if ratios else 0.0
        m["core.sweep.points"] = facts["core.sweep.points"]
        m["core.scaling_eff"] = facts["pass_1thread_s"] / (THREADS * traced_s)
        opts = [s["end_ms"] - s["start_ms"] for s in spans if s["name"] == "pb/approx/optimise"]
        m["approx.opt_evals"] = facts["approx.opt_evals"] / facts["approx.optimisations"]
        m["approx.opt_ms_p50"] = st.median(opts)
    if workload == "large_chain":
        derive_ms = span_total(spans, "pb/pepa/derive")
        m["pepa.parse_ms"] = span_total(spans, "pb/pepa/parse")
        m["pepa.derive_ms"] = derive_ms
        m["pepa.states_per_s"] = facts["pepa.states"] / (derive_ms / 1e3)
    if workload == "sim_tags":
        m["sim.jobs"] = facts["sim.jobs"]
        m["sim.tags_ms"] = facts["sim.tags_ms"]
        m["sim.dispatch_ms"] = facts["sim.dispatch_ms"]
        m["sim.jobs_per_s.tags"] = facts["sim.jobs.tags"] / (facts["sim.tags_ms"] / 1e3)
        m["sim.jobs_per_s.dispatch"] = (facts["sim.jobs.dispatch"]
                                        / (facts["sim.dispatch_ms"] / 1e3))
    if "models.states" in facts:
        m["models.states"] = facts["models.states"]
        m["models.nnz"] = facts["models.nnz"]
    return m, res["attempted"], res["failed"], res["checks"]


def span_total(spans, name):
    return sum(s["end_ms"] - s["start_ms"] for s in spans if s["name"] == name)


def layer_metrics(spans, solves, counters, facts):
    """Per-layer metrics every workload reports (0 where a layer is
    bypassed): span self times, the ctmc solve log, computed traffic."""
    m = {}
    by_layer, share, coverage = st.layer_breakdown(spans)
    for layer in LAYERS:
        m["layer.%s.self_ms" % layer] = by_layer.get(layer, 0.0)
        m["layer.%s.share" % layer] = share.get(layer, 0.0)
    m["layer.coverage"] = coverage

    # models: assembly inside a benchmark build span counts once.
    parents = {s["id"]: s for s in spans}

    def under_build(s):
        p = parents.get(s["parent"])
        while p is not None:
            if p["name"] == "pb/models/build":
                return True
            p = parents.get(p["parent"])
        return False

    m["models.assemble_ms"] = (span_total(spans, "pb/models/build") + sum(
        s["end_ms"] - s["start_ms"] for s in spans
        if s["name"] == "ctmc/assemble" and not under_build(s)))
    m["models.rebind_ms"] = span_total(spans, "ctmc/rebind")

    ss = [r for r in solves if r["context"] == "steady_state"]
    m["ctmc.solves"] = len(ss)
    wall = [r["wall_ms"] for r in ss]
    m["ctmc.solve_ms_p50"] = st.percentile(wall, 50) if wall else 0.0
    m["ctmc.solve_ms_p95"] = st.percentile(wall, 95) if wall else 0.0
    for method in METHODS:
        m["ctmc.method." + method] = sum(1 for r in ss if r["method"] == method)
    executed = sum(1 for r in ss for a in r["attempts"].split(",") if a and "[gate:" not in a)
    m["ctmc.attempts_per_solve"] = len(ss) / executed if executed else 0.0
    hits = counters.get("ctmc.steady_state.warm_start.hits", 0)
    misses = counters.get("ctmc.steady_state.warm_start.misses", 0)
    m["ctmc.warm_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["ctmc.uncertified"] = sum(1 for r in ss if not r["certified"])

    # nnz of the chains pb_bench built; the served chains are all solved
    # by the direct level-QBD solver, so serve_mixed has no iterative solves.
    nnz_map = {int(k): v for k, v in facts.get("nnz_by_states", {}).items()}
    it = [r for r in ss if r["method"] in ITERATIVE]
    iterations = sum(r["iterations"] for r in it)
    bytes_moved = flops = 0.0
    for r in it:
        if r["n"] in nnz_map:
            b, f = st.sweep_traffic(r["n"], nnz_map[r["n"]])
            bytes_moved += b * r["iterations"]
            flops += f * r["iterations"]
    m["linalg.iterations"] = iterations
    m["linalg.iterations_per_solve"] = iterations / len(it) if it else 0.0
    m["linalg.kernel_ms"] = by_layer.get("linalg", 0.0)
    m["linalg.bytes_moved_gb"] = bytes_moved / 1e9
    m["linalg.ops_per_byte"] = flops / bytes_moved if bytes_moved else 0.0
    return m


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

def plan_string(phases):
    return ",".join("%s:%g:%g" % p for p in phases)


def serve_phases(seconds):
    k = seconds / PLAN_SECONDS
    return [WARM, (NOMINAL[0], NOMINAL[1], NOMINAL[2] * k), (PEAK[0], PEAK[1], PEAK[2] * k)]


def read_records(path):
    with open(path) as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        for k in ("due", "sent", "recv", "queue_ms", "solve_ms"):
            r[k] = float(r[k])
        r["bytes"] = int(r["bytes"])
        r["ok"] = r["status"] == "ok"
    return rows


def phase_latency(rows):
    return st.latency_ms([r["due"] for r in rows], [r["recv"] for r in rows],
                         [r["ok"] for r in rows])


def serve_session(seed, seconds, run_dir, traced):
    """One daemon lifetime: start, solve every structure cold, fill the cache
    with the hot set, drive the plan, stop. Untraced, the reference kernel
    runs on one thread alongside the plan (the daemon and the generator keep
    about two of the four cores busy). Returns (records, daemon telemetry,
    loadgen output, daemon peak RSS, daemon CPU s spent on the plan,
    reference rep CPU s)."""
    env = child_env(traced)
    daemon = Daemon(run_dir, env)
    try:
        presolve = ["serve_presolve", "--socket", "s.sock", "--seed", str(seed)]
        run_bench(presolve + ["--cold"], child_env(False), run_dir)
        run_bench(presolve, child_env(False), run_dir)
        args = ["loadgen", "--socket", "s.sock", "--seed", str(seed), "--plan",
                plan_string(serve_phases(seconds)), "--records", "records.csv",
                "--sample-out", "sample.txt"]
        if traced:
            args += ["--telemetry-out", "loadgen_spans.json"]
        phases = serve_phases(seconds)
        cal = None
        if not traced:
            cal = _track(subprocess.Popen(
                [BENCH, "calibrate", "--threads", "1", "--seconds",
                 repr(sum(p[2] for p in phases))],
                stdout=subprocess.PIPE, text=True, env=child_env(False), cwd=run_dir))
        cpu0 = daemon.cpu_s()
        _, out = run_bench(args, child_env(False), run_dir)
        plan_cpu = daemon.cpu_s() - cpu0
        rss = daemon.peak_rss_mb()
        refs = []
        if cal is not None:
            cal_out, _ = cal.communicate(timeout=CHILD_TIMEOUT_S)
            if cal.returncode != 0:
                raise BenchError("pb_bench calibrate exited with %d" % cal.returncode)
            refs = json.loads(cal_out.strip().splitlines()[-1])["rep_cpu_s"]
    finally:
        daemon.stop()
    with open(daemon.telemetry) as f:
        tel = json.load(f)
    return read_records(os.path.join(run_dir, "records.csv")), tel, out, rss, plan_cpu, refs


def serve_check(seed, run_dir):
    _, res = run_bench(["serve_check", "--seed", str(seed), "--sample", "sample.txt"],
                        child_env(False), run_dir)
    return res


def serve_untraced(seed, seconds, run_dir):
    # Set-up: daemons that start, solve every structure cold and stop; the
    # set-up CPU time is each one's lifetime CPU time.
    setups = []
    for i in range(SERVE_SETUP_REPEATS):
        d = Daemon(os.path.join(run_dir, "setup%d" % i), child_env(False))
        try:
            run_bench(["serve_presolve", "--socket", "s.sock", "--seed", str(seed), "--cold"],
                       child_env(False), d.run_dir)
            wall = time.perf_counter() - d.t0
        finally:
            d.stop()
        setups.append((wall, d.lifetime_cpu_s))
    rows, tel, out, rss, plan_cpu, refs = serve_session(seed, seconds, run_dir, False)
    check = serve_check(seed, run_dir)

    by_phase = {}
    for r in rows:
        by_phase.setdefault(r["phase"], []).append(r)
    named = {}
    for phase in ("nominal", "peak"):
        lat = phase_latency(by_phase.get(phase, []))
        p, v, n, beyond = st.tail_percentile(lat, 99.0)
        named["serve.%s.p50_ms" % phase] = st.percentile(lat, 50)
        named["serve.%s.p99_ms" % phase] = v
        log("  serve.%s.p50_ms = %.4f ms (n=%d)" % (phase, named["serve.%s.p50_ms" % phase], n))
        log("  serve.%s.p99_ms = %.4f ms (p%.2f, n=%d, %d beyond)" % (phase, v, p, n, beyond))
    setup_cpu = [cpu for _, cpu in setups]
    log_reference(refs)
    scale = REF_REP_S / st.median(refs)
    named["cpu_s"] = plan_cpu * scale
    named["setup_s"] = st.median(setup_cpu) * scale
    named["peak_rss_mb"] = out["rss_mb"] + rss
    log("  measured: daemon CPU over the plan %.2f s, set-up CPU %.5f s, set-up wall %.5f s"
        " (medians, n=%d); peak_rss_mb = %.1f MB (loadgen + daemon)"
        % (plan_cpu, st.median(setup_cpu), st.median([wall for wall, _ in setups]),
           len(setups), named["peak_rss_mb"]))

    checks = check["checks"] + [{"name": "store_committed", "ok": tel["store"]["commits"] > 0,
                                 "detail": "%d commits" % tel["store"]["commits"]}]
    attempted = len(rows) + len(checks)
    failed = sum(1 for r in rows if not r["ok"]) + sum(1 for c in checks if not c["ok"])
    return named, attempted, failed, checks


def serve_traced(seed, seconds, run_dir):
    plain_rows, _, _, _, _, _ = serve_session(seed, seconds, os.path.join(run_dir, "plain"), False)
    rows, tel, _, _, _, _ = serve_session(seed, seconds, run_dir, True)
    check = serve_check(seed, run_dir)
    with open(os.path.join(run_dir, "loadgen_spans.json")) as f:
        client = json.load(f)
    spans = ([dict(s, id=("c", s["id"]), parent=("c", s["parent"])) for s in client["spans"]]
             + [dict(s, id=("d", s["id"]), parent=("d", s["parent"])) for s in tel["spans"]])
    m = layer_metrics(spans, tel["solves"], tel["counters"], {})

    timed = [r for r in rows if r["phase"] in ("nominal", "peak")]
    ok = [r for r in timed if r["ok"]]
    misses = [r for r in ok if r["cached"] == "0"]
    m["serve.hit_ratio"] = 1.0 - len(misses) / len(ok) if ok else 0.0
    m["serve.warm_ratio"] = (sum(1 for r in misses if r["warm"] == "1") / len(misses)
                             if misses else 0.0)
    for key, vals in (("queue_ms", [r["queue_ms"] for r in misses]),
                      ("solve_ms", [r["solve_ms"] for r in misses]),
                      ("transport_ms", [(r["recv"] - r["sent"]) * 1e3 - r["queue_ms"]
                                        - r["solve_ms"] for r in ok])):
        m["serve.%s_p50" % key] = st.percentile(vals, 50) if vals else 0.0
        m["serve.%s_p99" % key] = st.tail_percentile(vals, 99.0)[1] or 0.0
    m["serve.response_kb_mean"] = sum(r["bytes"] for r in ok) / len(ok) / 1024.0 if ok else 0.0
    m["serve.shed"] = sum(1 for r in rows if r["status"] == "shed")
    m["serve.deadline_missed"] = tel["server"]["deadline_missed"]
    m["store.commits"] = tel["store"]["commits"]
    m["store.bytes"] = tel["store"]["bytes"]
    late = st.lateness_ms([r["due"] for r in timed], [r["sent"] for r in timed])
    m["loadgen.late_ms_p99"] = st.tail_percentile(late, 99.0)[1] or 0.0

    def p50(rs):
        return st.percentile(phase_latency([r for r in rs if r["phase"] in ("nominal", "peak")]),
                             50)
    m["obs.trace_overhead_pct"] = 100.0 * (p50(rows) - p50(plain_rows)) / p50(plain_rows)
    m["obs.spans_dropped"] = tel["spans_dropped"] + client["spans_dropped"]
    attempted = len(timed) + check["attempted"]
    failed = sum(1 for r in timed if not r["ok"]) + check["failed"]
    return m, attempted, failed, check["checks"]


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def emit(spec_metrics, per_layer, values, attempted, failed, checks):
    bad = [c for c in checks if not c["ok"]]
    for c in bad:
        log("  CHECK FAILED: %s %s" % (c["name"], c["detail"]))
    log("  checks: %d run, %d failed; fail_ratio = %.6f (failed %d / attempted %d)"
        % (len(checks), len(bad), failed / attempted if attempted else 0.0, failed, attempted))
    metrics = {}
    for spec in spec_metrics:
        name = spec["name"]
        if per_layer:
            # A layer the workload bypasses did no work: its counts are 0.
            values.setdefault(name, 0.0)
        if name not in values:
            raise BenchError("metric %s was not measured" % name)
        metrics[name] = {"value": float(values[name]), "unit": spec["unit"]}
    for name, v in metrics.items():
        log("  %-32s %.6g %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")

    spec = load_spec()
    build()
    run_dir = fresh_dir(args.workload)
    try:
        if args.workload == "serve_mixed":
            fn = serve_traced if args.trace else serve_untraced
        else:
            fn = inprocess_traced if args.trace else inprocess_untraced
            fn = (lambda f, w: lambda s, sec, d: f(w, s, sec, d))(fn, args.workload)
        values, attempted, failed, checks = fn(args.seed, float(args.seconds), run_dir)
    finally:
        stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    emit(spec["per_layer"] if args.trace else spec["end_to_end"], bool(args.trace), values,
         attempted, failed, checks)


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        stop_children()
        log("run.py: error: %s" % e)
        sys.exit(1)
