#!/usr/bin/env python3
"""End-to-end benchmark of jedule: trace file -> finished bytes.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # tiny inputs, every workload
    python3 perfbench/run.py --write-benchmark-json

The first call builds the jedule CLI and the benchmark's own tool (jbench,
perfbench/CMakeLists.txt) in .bench_build/ as a Release build. Inputs come
from `jbench gen` with the given seed and live in .bench_work/ for the run.

--trace 0 times the user-facing paths (`jedule render` processes, `jedule
serve` over loopback) and prints the end-to-end metrics. --trace 1 runs
`jbench trace`, which replays the workload's pipeline through the library
calls the CLI and the server make, with a span around each call, prints the
per-layer metrics and writes the spans as a Jedule schedule that `jedule
render` must accept (both kept in .bench_work/spans/). Earlier stdout lines
stamp the host and build and list every metric with its unit, including
the per-route serve latencies; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"
JEDULE = BUILD / "jedule" / "jedule" / "cli" / "jedule"
JBENCH = BUILD / "jbench"
THREADS = 4          # --threads of every CLI render and of the traced run
SERVE_THREADS = 2    # jedule serve workers, one per client
SERVE_RENDER_THREADS = 2  # JEDULE_THREADS of the daemon: 2 workers x 2 = nproc
SETUP_REPEATS = 3    # setup_s is the median of this many set-ups
MIN_RENDERS = 3      # CLI loops run at least this many timed renders
REQ_PER_CLIENT_S = 40  # seeded sequence length per client and second: more
                       # than a client completes, so the clock ends the mix
STORE_ENTRIES = 6     # jedule serve --store-entries: bounds the resident appends

# Full-size shapes; --smoke shrinks every count to a few thousand tasks.
WORKLOADS = {
    "ragged_csv_render": {
        "why": "500k-task ragged CSV: composite synthesis dominates and "
               "finds no composites, so composite changes show here",
        "tasks": 500_000, "smoke_tasks": 3000,
    },
    "chain_xml_render": {
        "why": "500k-task XML with ~500k precedence edges: parsing and the "
               "edge layer dominate, so ingest changes show here",
        "tasks": 500_000, "smoke_tasks": 3000,
    },
    "jbin_window_render": {
        "why": "500k-task chain .jbin rendered in 1-5% windows: no parse, so "
               "snapshot conversion and per-process indexing dominate",
        "tasks": 500_000, "smoke_tasks": 3000,
    },
    "serve_mix": {
        "why": "jedule serve on loopback: tiles, renders and appends from 2 "
               "clients through the caches, the only HTTP workload",
        "tasks": 200_000, "smoke_tasks": 2000,
    },
}
CHAIN_HOSTS, CHAIN_BARRIER = 4096, 5000
SMOKE_HOSTS, SMOKE_BARRIER = 64, 500

# name -> (unit, better, bound); the bound applies to the parent's median.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.2),
    "output_bytes": ("bytes", "lower", 0.25),
}
PER_LAYER = {
    "io.parse_ms": ("ms", "lower"),
    "io.parse_t1_ms": ("ms", "lower"),
    "io.parse_mb_per_s": ("MB/s", "higher"),
    "io.chunks": ("count", "higher"),
    "io.parallel": ("count", "higher"),
    "io.snapshot_load_ms": ("ms", "lower"),
    "model.composites_ms": ("ms", "lower"),
    "model.composites_t1_ms": ("ms", "lower"),
    "model.composites_found": ("count", "higher"),
    "model.task_index_ms": ("ms", "lower"),
    "model.edge_index_ms": ("ms", "lower"),
    "engine.load_entry_ms": ("ms", "lower"),
    "engine.materialize_ms": ("ms", "lower"),
    "engine.render_cold_ms": ("ms", "lower"),
    "engine.render_warm_ms": ("ms", "lower"),
    "engine.tile_cold_ms": ("ms", "lower"),
    "engine.artifact_hit_ratio": ("ratio", "higher"),
    "engine.artifact_hits": ("count", "higher"),
    "engine.artifact_lookups": ("count", "higher"),
    "engine.tile_hit_ratio": ("ratio", "higher"),
    "engine.tile_hits": ("count", "higher"),
    "engine.tile_lookups": ("count", "higher"),
    "engine.append_ms": ("ms", "lower"),
    "engine.resident_heap_mb": ("MiB", "lower"),
    "engine.resident_mmap_mb": ("MiB", "lower"),
    "render.layout_ms": ("ms", "lower"),
    "render.boxes": ("count", "lower"),
    "render.paint_ms": ("ms", "lower"),
    "render.filter_ms": ("ms", "lower"),
    "render.deflate_ms": ("ms", "lower"),
    "render.encode_ms": ("ms", "lower"),
    "serve.handle_tile_ms": ("ms", "lower"),
    "serve.handle_render_ms": ("ms", "lower"),
    "serve.handle_append_ms": ("ms", "lower"),
    "serve.wire_overhead_ms": ("ms", "lower"),
    "serve.rejected_429": ("count", "lower"),
    "cli.unaccounted_ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
}
RUN_SECONDS = 15
PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
TRACE_REQUESTS = {"serve_mix": 150}  # else 40: short replays on 500k entries


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed build, debug build)."""


# -- build and host guard ------------------------------------------------

def build():
    if not (ROOT / "src" / "jedule").is_dir():
        raise BenchError(f"no jedule sources under {ROOT}/src")
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 4),
               "--target", "jedule", "jbench"])
    info = json.loads(check_output([str(JBENCH), "build-info"]))
    if info["build_type"] != "release":
        raise BenchError("refusing timings from a non-NDEBUG build")
    return info


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed:\n{proc.stdout[-4000:]}")


def check_output(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))}: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def timed(cmd):
    """Runs a jedule process; returns (exit code, wall s, peak RSS MiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# -- inputs ----------------------------------------------------------------

class Run:
    """Bookkeeping of one benchmark run: operations and failures."""

    def __init__(self, workload, seed, seconds, smoke):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.tasks = WORKLOADS[workload]["smoke_tasks" if smoke else "tasks"]
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"perfbench: FAILED {what}")
        return ok

    def path(self, name):
        return str(self.work / name)

    def gen(self, kind, out, **kw):
        args = [str(JBENCH), "gen", kind, "--out", out]
        for k, v in kw.items():
            args += [f"--{k}", str(v)]
        return json.loads(check_output(args))

    def chain(self, out, tasks):
        hosts, barrier = ((SMOKE_HOSTS, SMOKE_BARRIER) if self.smoke
                          else (CHAIN_HOSTS, CHAIN_BARRIER))
        return self.gen("chain", out, tasks=tasks, hosts=hosts,
                        barrier=barrier, seed=self.seed)

    def windows(self, makespan, count=64):
        """Render windows covering 1-5% of the makespan at seeded places.
        The first one (warm-up, checks, output_bytes) is always 40-45% of
        the makespan, so its image size swings less with the seed."""
        rng = random.Random(self.seed)
        out = [f"{0.40 * makespan:.0f}:{0.45 * makespan:.0f}"]
        for _ in range(count - 1):
            width = makespan * rng.uniform(0.01, 0.05)
            begin = rng.uniform(0, makespan - width)
            out.append(f"{begin:.0f}:{begin + width:.0f}")
        return out


def render_cmd(src, out, threads=THREADS, window=None, width=None):
    cmd = [str(JEDULE), "render", src, "--out", out, "--threads", str(threads)]
    if window:
        cmd += ["--window", window]
    if width:
        cmd += ["--width", str(width)]
    return cmd


def same_bytes(a, b):
    try:
        return Path(a).read_bytes() == Path(b).read_bytes()
    except OSError:
        return False


def decodes(files):
    if not files:
        return True
    proc = subprocess.run([str(JBENCH), "check-png", *files],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return proc.returncode == 0


# -- CLI workloads -----------------------------------------------------------

def cli_inputs(run):
    """The workload's render input: (src, seeded windows or None, CSV twin of
    a .jbin input or None, makespan)."""
    if run.workload == "ragged_csv_render":
        src = run.path("in.csv")
        info = run.gen("ragged", src, tasks=run.tasks, seed=run.seed)
        return src, None, None, info["makespan"]
    if run.workload == "chain_xml_render":
        src = run.path("in.xml")
        info = run.chain(src, run.tasks)
        return src, None, None, info["makespan"]
    csv = run.path("in.csv")
    info = run.chain(csv, run.tasks)
    return (run.path("in.jbin"), run.windows(info["makespan"]), csv,
            info["makespan"])


def cli_setup(run, src, windows, csv):
    """One set-up: (for .jbin) `jedule snapshot`, then the warm-up render.
    Returns its wall time."""
    t0 = time.perf_counter()
    if csv is not None:
        code, _, _ = timed([str(JEDULE), "snapshot", csv, "--out", src,
                            "--threads", str(THREADS)])
        run.op(code == 0, "jedule snapshot")
    window = windows[0] if windows else None
    code, _, _ = timed(render_cmd(src, run.path("warm.png"), window=window))
    run.op(code == 0, "warm-up render")
    return time.perf_counter() - t0


def run_cli(run):
    src, windows, csv, _ = cli_inputs(run)
    setups = [cli_setup(run, src, windows, csv) for _ in range(SETUP_REPEATS)]
    reference = run.path("warm.png")

    walls, rss = [], []
    loop_t0 = time.perf_counter()
    i = 0
    while i < MIN_RENDERS or time.perf_counter() - loop_t0 < run.seconds:
        out = run.path("out.png")
        window = windows[i % len(windows)] if windows else None
        code, wall, peak = timed(render_cmd(src, out, window=window))
        # Repeats of the warm-up's view must reproduce its bytes; other
        # windows must at least be PNG files.
        if window is None or window == windows[0]:
            ok = code == 0 and same_bytes(out, reference)
        else:
            ok = code == 0 and Path(out).read_bytes()[:8] == PNG_MAGIC
        if run.op(ok, f"render #{i}"):
            walls.append(wall)
            rss.append(peak)
        i += 1
    loop_wall = time.perf_counter() - loop_t0

    # Output checks: thread-count invariance, and .jbin == its CSV source.
    window = windows[0] if windows else None
    code, _, _ = timed(render_cmd(src, run.path("t1.png"), threads=1,
                                  window=window))
    run.op(code == 0 and same_bytes(run.path("t1.png"), reference),
           "--threads 1 render differs from --threads 4")
    if csv is not None:
        code, _, _ = timed(render_cmd(csv, run.path("csv.png"), window=window))
        run.op(code == 0 and same_bytes(run.path("csv.png"), reference),
               ".jbin window render differs from the CSV source render")
    run.op(decodes([reference]), "reference PNG does not decode")

    render_s = statistics.median(walls) if walls else float("nan")
    human = {"render_s": (render_s, "s")}
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": render_s * 1e3,
        "ops_per_s": len(walls) / loop_wall,
        "peak_rss_mb": statistics.median(rss) if rss else float("nan"),
        "output_bytes": Path(reference).stat().st_size,
    }
    return metrics, human, f"{len(walls)} renders"


# -- serve_mix -------------------------------------------------------------

def http(port, method, target, body=b"", gzip=False):
    """One HTTP/1.1 request on a fresh connection (the server closes after
    each response). Returns (status, body); status 0 for a truncated body."""
    head = f"{method} {target} HTTP/1.1\r\nHost: localhost\r\n"
    if gzip:
        head += "Accept-Encoding: gzip\r\n"
    if method == "POST":
        head += f"Content-Length: {len(body)}\r\n"
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.sendall(head.encode() + b"\r\n" + body)
        chunks = []
        while True:
            data = s.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    header_end = raw.find(b"\r\n\r\n")
    lines = raw[:header_end].decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        k, _, v = line.partition(":")
        headers[k.strip().lower()] = v.strip()
    payload = raw[header_end + 4:]
    if len(payload) != int(headers.get("content-length", len(payload))):
        return 0, payload
    return int(lines[0].split()[1]), payload


class Daemon:
    """A `jedule serve` process on an ephemeral loopback port."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [str(JEDULE), "serve", "--port", "0", "--threads",
             str(SERVE_THREADS), "--store-entries", str(STORE_ENTRIES)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "JEDULE_THREADS": str(SERVE_RENDER_THREADS)})
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+) ", line)
        if not match:
            self.stop()
            raise RuntimeError(f"jedule serve did not start: {line!r}")
        self.port = int(match.group(1))
        deadline = time.monotonic() + 60
        while True:
            try:
                if http(self.port, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise
                time.sleep(0.005)

    def vm_hwm_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def read_requests(path):
    """The request sequence written by `jbench gen requests`."""
    out = []
    with open(path) as f:
        lines = iter(f.read().splitlines())
    for line in lines:
        words = line.split()
        if not words:
            continue
        if words[0] == "POST":
            body = "".join(next(lines) + "\n" for _ in range(int(words[2])))
            out.append(("append", "POST", words[1], body.encode(), False))
        else:
            route = "tile" if words[1].startswith("tile") else "render"
            out.append((route, "GET", words[1], b"", words[0] == "GETZ"))
    return out


def serve_inputs(run, count):
    """Per client: (CSV path, request list)."""
    clients = []
    for c in range(2):
        csv = run.path(f"client{c}.csv")
        seed = run.seed * 2 + c
        info = run.gen("ragged", csv, tasks=run.tasks, seed=seed)
        req = run.path(f"client{c}.req")
        run.gen("requests", req, count=count, makespan=info["makespan"],
                seed=seed)
        clients.append((csv, req, read_requests(req)))
    return clients


def serve_setup(run, clients):
    """Server start to /healthz plus both uploads: (daemon, ids, seconds)."""
    t0 = time.perf_counter()
    daemon = Daemon()
    ids = []
    try:
        for csv, _, _ in clients:
            status, body = http(daemon.port, "POST", "/schedules?name=c.csv",
                                   Path(csv).read_bytes())
            run.op(status in (200, 201), f"upload answered {status}")
            ids.append(json.loads(body)["id"] if status in (200, 201) else "")
    except BaseException:
        daemon.stop()
        raise
    return daemon, ids, time.perf_counter() - t0


def client_loop(port, sid, requests, record, tiles, deadline):
    """One closed-loop client: the next request of its seeded sequence goes
    out when the previous one completed, until the deadline passes."""
    for route, method, tail, body, gzip in requests:
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        try:
            status, payload = http(port, method, f"/schedules/{sid}/{tail}",
                                   body, gzip)
        except OSError:
            status, payload = 0, b""
        ms = (time.perf_counter() - t0) * 1e3
        ok = status in ((200, 201) if method == "POST" else (200,))
        if ok and route == "append":
            sid = json.loads(payload)["id"]
        if ok and route == "tile":
            tiles.setdefault(hashlib.sha1(payload).hexdigest(), payload)
        record.append((route, ms, ok, status))


def run_serve(run):
    count = max(20, REQ_PER_CLIENT_S * run.seconds)
    clients = serve_inputs(run, count)
    setups = []
    for i in range(SETUP_REPEATS):
        daemon, ids, seconds = serve_setup(run, clients)
        setups.append(seconds)
        if i == SETUP_REPEATS - 1:
            break  # the last server is the measured one, still cold
        try:
            if i == 0:
                # A full render.png over HTTP equals the CLI render of the
                # same schedule and options.
                status, body = http(
                    daemon.port, "GET", f"/schedules/{ids[0]}/render.png?width=900")
                Path(run.path("served.png")).write_bytes(body)
        finally:
            daemon.stop()
        if i == 0:
            code, _, _ = timed(render_cmd(clients[0][0], run.path("cli.png"),
                                          width=900))
            run.op(status == 200 and code == 0 and
                   same_bytes(run.path("served.png"), run.path("cli.png")),
                   "served render.png differs from the CLI render")

    records = [[], []]
    tiles = {}
    try:
        mix_t0 = time.perf_counter()
        threads = [threading.Thread(target=client_loop,
                                    args=(daemon.port, ids[c], clients[c][2],
                                          records[c], tiles,
                                          mix_t0 + run.seconds))
                   for c in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        mix_wall = time.perf_counter() - mix_t0
        peak = daemon.vm_hwm_mb()
    finally:
        daemon.stop()

    all_records = records[0] + records[1]
    for route, _, ok, status in all_records:
        run.op(ok, f"{route} answered {status}")
    tile_dir = WORK / run.workload / "tiles"
    tile_dir.mkdir()
    files = []
    for digest, payload in tiles.items():
        files.append(str(tile_dir / f"{digest}.png"))
        Path(files[-1]).write_bytes(payload)
    run.op(decodes(files), "a tile does not decode via render::decode_png")

    lat = sorted(ms for _, ms, ok, _ in all_records if ok)
    # The highest percentile with at least ten samples beyond it.
    tail = next((q for q in (99.9, 99, 95, 90) if len(lat) * (100 - q) >= 1000),
                50)
    by_route = {r: [ms for route, ms, ok, _ in all_records if ok and route == r]
                for r in ("tile", "render", "append")}
    human = {
        "requests": (len(lat), "count"),
        "req_p50_ms": (statistics.median(lat), "ms"),
        f"req_p{tail:g}_ms": (lat[min(len(lat) - 1, int(tail / 100 * len(lat)))],
                              "ms"),
        "req_per_s": (len(lat) / mix_wall, "1/s"),
    }
    for route, values in by_route.items():
        name = "render_req" if route == "render" else route
        human[f"{name}_p50_ms"] = (statistics.median(values or [0]), "ms")
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": human["req_p50_ms"][0],
        "ops_per_s": human["req_per_s"][0],
        "peak_rss_mb": peak,
        "output_bytes": Path(run.path("served.png")).stat().st_size,
    }
    return metrics, human, f"{len(lat)} requests, {len(tiles)} distinct tiles"


# -- traced run ------------------------------------------------------------

def run_traced(run):
    """Per-layer metrics from `jbench trace` on the workload's input."""
    count = TRACE_REQUESTS.get(run.workload, 40)
    if run.workload == "serve_mix":
        src, req, _ = serve_inputs(run, count)[0]
        window = None
    else:
        src, windows, csv, makespan = cli_inputs(run)
        cli_setup(run, src, windows, csv)
        window = windows[0] if windows else None
        req = run.path("trace.req")
        run.gen("requests", req, count=count, makespan=makespan,
                seed=run.seed)

    walls = []
    for _ in range(MIN_RENDERS):
        code, wall, _ = timed(render_cmd(src, run.path("cli.png"),
                                         window=window))
        if run.op(code == 0, "render for cli.unaccounted_ms"):
            walls.append(wall)

    spans = run.path("spans.csv")
    cmd = [str(JBENCH), "trace", "--input", src, "--requests", req,
           "--threads", str(THREADS), "--spans", spans, "--scratch",
           str(run.work)]
    if window:
        cmd += ["--window", window]
    try:
        metrics = json.loads(check_output(cmd))
        run.op(True, "traced replay")
    except (RuntimeError, ValueError) as e:
        run.op(False, f"traced replay: {e}")
        return {}, {}, "traced replay failed"
    run.op(same_bytes(run.path("library_path.png"), run.path("cli.png")),
           "library-path PNG differs from the CLI render")
    code, _, _ = timed([str(JEDULE), "render", spans, "--out",
                        run.path("spans.png"), "--threads", str(THREADS)])
    run.op(code == 0 and decodes([run.path("spans.png")]),
           "jedule render rejected the span schedule")
    covered = metrics.pop("trace.covered_ms")
    metrics["cli.unaccounted_ms"] = statistics.median(walls) * 1e3 - covered
    # The span schedule and its rendering outlive the run's work directory.
    kept = WORK / "spans"
    kept.mkdir(parents=True, exist_ok=True)
    stem = kept / f"{run.workload}-seed{run.seed}"
    shutil.copy(spans, f"{stem}.csv")
    shutil.copy(run.path("spans.png"), f"{stem}.png")
    return metrics, {}, f"spans kept as {stem}.csv and {stem}.png"


# -- entry points ------------------------------------------------------------

def measure(workload, seed, seconds, trace, smoke=False):
    run = Run(workload, seed, seconds, smoke)
    table = PER_LAYER if trace else END_TO_END
    try:
        if trace:
            metrics, human, note = run_traced(run)
        elif workload == "serve_mix":
            metrics, human, note = run_serve(run)
        else:
            metrics, human, note = run_cli(run)
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        # The program under test misbehaved (died, answered garbage): a
        # failed run with no metrics, not a crash of the benchmark.
        run.op(False, f"{type(e).__name__}: {e}")
        metrics, human, note = {}, {}, "aborted"
    finally:
        if not smoke:
            shutil.rmtree(run.work, ignore_errors=True)
    human["failed_ratio"] = (run.failed / max(1, run.attempted), "ratio")
    print(f"perfbench: {workload} seed={seed} trace={trace}: {note}")
    shown = {n: (v, table[n][0]) for n, v in metrics.items()}
    shown.update(human)
    for name, (value, unit) in shown.items():
        print(f"  {name:26s} {value:14.4f} {unit}")
    result = {
        "correct": run.failed == 0 and set(metrics) == set(table),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table if name in metrics},
    }
    return result


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


def smoke():
    """Every workload once on tiny inputs, traced and untraced; asserts that
    every metric is emitted with its unit and that every check passed."""
    problems = []
    for workload in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            r = measure(workload, 1, 1, trace, smoke=True)
            for name, spec in table.items():
                got = r["metrics"].get(name)
                if got is None or got["unit"] != spec[0]:
                    problems.append(f"{workload} trace={trace}: {name} missing")
            if not r["correct"]:
                problems.append(f"{workload} trace={trace}: not correct")
    manifest = ROOT / "BENCHMARK.json"
    if manifest.exists() and json.loads(manifest.read_text()) != benchmark_json():
        problems.append("BENCHMARK.json is out of date (--write-benchmark-json)")
    shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        log(f"perfbench smoke: {p}")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args()

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    try:
        info = build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(f"perfbench: nproc={info['nproc']} build={info['build_type']} "
          f"simd={info['simd']} render_threads={THREADS} "
          f"serve_threads={SERVE_THREADS}x{SERVE_RENDER_THREADS} "
          f"serve_clients=2")
    if args.smoke:
        ok = smoke()
        print("perfbench smoke: " + ("ok" if ok else "FAILED"))
        return 0 if ok else 1
    if not args.workload:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
