"""Workload ``serve-http``: ``repro serve`` driven over HTTP/1.1 keep-alive.

Preparation trains a two-epoch GraphCL + GradGCL(a=0.5) checkpoint on
PROTEINS (``repro run`` with ``--checkpoint-every 1``) and builds the
requests.  Set-up is starting ``repro serve`` with default flags as a
subprocess until ``/healthz`` answers; it is done ``SERVER_STARTS`` times
and the last server stays up.  One load process then drives it over at
most two connections: an open-loop phase at ``OPEN_RATE`` requests/s,
then a closed-loop phase.

Requests carry 1-8 graphs.  Each graph is, with probability
``HOT_SHARE``, one of ``HOT_SET`` fixed graphs (embedding-cache reads
after their first use), otherwise a PROTEINS graph whose features get
fresh Gaussian jitter, so it is never repeated (a cache miss, a forward
and a cache write).

The traced run hosts the server in this process instead, built exactly as
``repro serve`` builds it, so that its public functions can be wrapped.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from . import checks, loadgen
from .common import OUT, ROOT, child_env, median, metric, pid_peak_rss_mb, \
    tail

OPEN_RATE = 20.0          # requests/s, well below today's ~43 req/s capacity
OPEN_SHARE = 0.6          # of the run's seconds; the rest is closed loop
OPEN_WINDOWS = 3          # consecutive open-loop windows for the tail
MIN_WINDOW = 40           # requests per window, however short the run
HOT_SET = 16
HOT_SHARE = 0.25
MAX_GRAPHS = 8
JITTER = 0.05
CLOSED_POOL = 1500        # pre-built closed-loop requests (the phase ends
#                           early if a faster server uses them all)
SERVER_STARTS = 3
CHECKPOINT_EPOCHS = 2
START_TIMEOUT_S = 120.0


def _connections() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _train_checkpoint(seed: int, run_dir) -> None:
    from repro.run import RunConfig, execute_run

    execute_run(RunConfig(method="GraphCL", dataset="PROTEINS",
                          scale="small", weight=0.5,
                          epochs=CHECKPOINT_EPOCHS, seed=seed,
                          run_dir=str(run_dir), checkpoint_every=1))


def _requests(seed: int, open_count: int) -> tuple[list, list]:
    from repro.datasets import load_tu_dataset
    from repro.graph import Graph

    base = load_tu_dataset("PROTEINS", scale="small", seed=seed).graphs
    rng = np.random.default_rng([seed, 0x5E7E])

    def jittered():
        g = base[rng.integers(len(base))]
        return Graph(g.num_nodes, g.edges,
                     g.x + rng.normal(0.0, JITTER, g.x.shape))

    hot = [jittered() for _ in range(HOT_SET)]

    def request():
        graphs = [hot[rng.integers(HOT_SET)] if rng.random() < HOT_SHARE
                  else jittered()
                  for _ in range(int(rng.integers(1, MAX_GRAPHS + 1)))]
        return loadgen.make_request(graphs)

    return ([request() for _ in range(open_count)],
            [request() for _ in range(CLOSED_POOL)])


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
def _healthy(host: str, port: int) -> bool:
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


def _start_server(run_dir, log) -> tuple[subprocess.Popen, str, int, float]:
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--run-dir",
         str(run_dir), "--port", "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log,
        text=True)
    try:
        deadline = began + START_TIMEOUT_S
        match = None
        while match is None:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([proc.stdout], [], [], max(left, 0))
            line = proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("repro serve exited or stayed silent "
                                   f"(code {proc.poll()})")
            match = re.search(r"http://([^:/\s]+):(\d+)", line)
        host, port = match.group(1), int(match.group(2))
        while not _healthy(host, port):
            if time.perf_counter() > deadline or proc.poll() is not None:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.005)
    except BaseException:
        _stop_server(proc)
        raise
    return proc, host, port, time.perf_counter() - began


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)        # graceful drain
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


# ----------------------------------------------------------------------
# The in-process server of the traced run
# ----------------------------------------------------------------------
def _start_inprocess(run_dir, recorder):
    from repro.cli import build_parser
    from repro.serve import EmbeddingService, FrozenEncoder, make_server
    from repro.serve import http as serve_http
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import EmbeddingCache

    args = build_parser().parse_args(["serve", "--run-dir", str(run_dir),
                                      "--port", "0"])
    encoder = FrozenEncoder.from_checkpoint(args.run_dir, dtype=args.dtype,
                                            plan_cache=args.plan_cache)
    encoder.describe()
    # Patched before the service exists: the batcher keeps the bound
    # ``encoder.embed`` it is given.
    for owner, attr, name in [
            (serve_http, "graph_from_payload", "serve.parse"),
            (EmbeddingService, "embed_graphs", "serve.service"),
            (EmbeddingCache, "get", "serve.cache_get"),
            (MicroBatcher, "submit", "serve.submit"),
            (FrozenEncoder, "embed", "serve.forward")]:
        recorder.patch(owner, attr, name)
    service = EmbeddingService(encoder,
                               max_batch_size=args.max_batch_size,
                               max_wait_ms=args.max_wait_ms,
                               queue_size=args.queue_size,
                               deadline_ms=args.deadline_ms,
                               forward_timeout_ms=args.forward_timeout_ms,
                               cache_entries=args.cache_entries)
    server = make_server(service, host=args.host, port=0)
    thread = threading.Thread(target=server.serve_forever,
                              name="serve_forever")
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, service, host, port


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, recorder=None) -> dict:
    work = OUT / f"serve-{seed}-{os.getpid()}"
    run_dir = work / "run"
    work.mkdir(parents=True, exist_ok=True)
    open_s = OPEN_SHARE * seconds
    closed_s = seconds - open_s
    connections = _connections()
    try:
        _train_checkpoint(seed, run_dir)
        open_requests, closed_requests = _requests(
            seed, max(int(round(OPEN_RATE * open_s)),
                      OPEN_WINDOWS * MIN_WINDOW))
        with open(work / "server.log", "w") as log:
            if recorder is None:
                phases = _drive_subprocess(run_dir, log, connections,
                                           open_requests, closed_requests,
                                           closed_s)
            else:
                phases = _drive_inprocess(run_dir, recorder, connections,
                                          open_requests, closed_requests,
                                          closed_s)
        return _finish(run_dir, connections, open_requests,
                       closed_requests, phases, recorder)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _phases(host, port, connections, open_requests, closed_requests,
            closed_s) -> dict:
    open_start = loadgen.open_loop(host, port, connections, open_requests,
                                   OPEN_RATE)
    open_end = time.perf_counter()
    closed_start, closed_end = loadgen.closed_loop(
        host, port, connections, closed_requests, closed_s)
    return {"open": (open_start, open_end),
            "closed": (closed_start, closed_end)}


def _drive_subprocess(run_dir, log, connections, open_requests,
                      closed_requests, closed_s) -> dict:
    setups, procs = [], []
    try:
        for _ in range(SERVER_STARTS):
            if procs:
                _stop_server(procs[-1])
            proc, host, port, took = _start_server(run_dir, log)
            procs.append(proc)
            setups.append(took)
        phases = _phases(host, port, connections, open_requests,
                         closed_requests, closed_s)
        phases["peak_rss_mb"] = pid_peak_rss_mb(procs[-1].pid)
    finally:
        for proc in procs:
            _stop_server(proc)
    phases["setups"] = setups
    return phases


def _drive_inprocess(run_dir, recorder, connections, open_requests,
                     closed_requests, closed_s) -> dict:
    began = time.perf_counter()
    server, thread, service, host, port = _start_inprocess(run_dir, recorder)
    setup = time.perf_counter() - began
    try:
        phases = _phases(host, port, connections, open_requests,
                         closed_requests, closed_s)
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        service.close()
        recorder.unpatch()
    phases["setups"] = [setup]
    phases["service"] = service
    return phases


def _finish(run_dir, connections, open_requests, closed_requests, phases,
            recorder) -> dict:
    from repro.serve import FrozenEncoder

    sent = open_requests + [r for r in closed_requests if r.sent is not None]
    statuses = [r.status for r in sent]
    failed = sum(1 for s in statuses if s != 200)

    # Checks, outside the timed region: every reply is 200 and every row
    # equals the offline single-graph embedding from the same checkpoint.
    encoder = FrozenEncoder.from_checkpoint(run_dir)
    offline: dict[int, np.ndarray] = {}
    row_failures, rows = [], 0
    for request in sent:
        if request.status != 200:
            continue
        reply = json.loads(request.reply)
        if reply.get("count") != len(request.graphs):
            row_failures.append(f"count {reply.get('count')} for "
                                f"{len(request.graphs)} graphs")
            continue
        for graph, row in zip(request.graphs, reply["embeddings"]):
            key = id(graph)
            if key not in offline:
                offline[key] = encoder.embed([graph])[0]
            ok, detail = checks.rows_identical(row, offline[key])
            rows += 1
            if not ok:
                row_failures.append(detail)
    results = {"status_200": checks.all_ok(statuses),
               "rows_identical": (not row_failures,
                                  f"{rows} rows checked, "
                                  f"{len(row_failures)} differ"
                                  + (f": {row_failures[:3]}"
                                     if row_failures else ""))}

    open_start, open_end = phases["open"]
    latencies = [1e3 * (r.done - r.due) for r in open_requests]
    # A single server pause (a full garbage collection, a burst of lost
    # CPU) decides whether ten requests land beyond the tail of one long
    # window; the median over consecutive windows is steadier.
    tails = [tail(window) for window in
             np.array_split(np.array(latencies), OPEN_WINDOWS)]
    tail_ms, tail_pct = median([t[0] for t in tails]), tails[0][1]
    closed_start, closed_end = phases["closed"]
    closed_done = [r for r in closed_requests if r.done is not None]
    out = {
        "attempted": len(sent), "failed": failed, "checks": results,
        "metrics": {
            "setup_s": metric(median(phases["setups"]), "s"),
            "peak_rss_mb": metric(phases.get("peak_rss_mb", 0.0), "MB"),
            "throughput_per_s": metric(
                len(closed_done) / (closed_end - closed_start), "1/s"),
            "p50_ms": metric(median(latencies), "ms"),
            "tail_ms": metric(tail_ms, "ms"),
        },
        "notes": {"connections": connections, "open_rate": OPEN_RATE,
                  "open_requests": len(open_requests),
                  "closed_requests": len(closed_done),
                  "graphs_sent": sum(len(r.graphs) for r in sent),
                  "tail_percentile": tail_pct,
                  "op_wall_s": connections * (
                      open_end - open_start + closed_end - closed_start)
                  / len(sent),
                  "late_ms_mean": float(np.mean(
                      [1e3 * (r.sent - r.due) for r in open_requests])),
                  "unit_of_throughput": "requests/s (closed loop)",
                  "unit_of_latency": "one /embed request (open loop)"},
    }
    if recorder is not None:
        out["layers"] = _layers(recorder, phases, connections, sent,
                                open_requests)
    return out


def _layers(recorder, phases, connections, sent, open_requests) -> dict:
    """Per-request self time of each serving stage.

    Accounting is per connection: each request's round trip splits into
    HTTP (round trip minus service minus parse), parse, the service's own
    time, cache lookups, queue wait and the forward that served it; the
    untraced remainder is the connections' idle time, so the rows add up
    to ``connections x`` the phases' wall time.
    """
    service = phases["service"]
    n = len(sent)
    round_trips = sum(r.done - r.sent for r in sent)
    spans = {name: recorder.named(name) for name in (
        "serve.parse", "serve.service", "serve.cache_get", "serve.submit",
        "serve.forward")}
    forwards = sorted(spans["serve.forward"], key=lambda s: s.end)
    ends = [s.end for s in forwards]
    served_forward = 0.0
    for submit in spans["serve.submit"]:
        index = bisect.bisect_right(ends, submit.end) - 1
        if index >= 0 and forwards[index].end >= submit.start:
            served_forward += forwards[index].duration
    submit_s = sum(s.duration for s in spans["serve.submit"])
    parse_s = sum(s.duration for s in spans["serve.parse"])
    service_total = sum(s.duration for s in spans["serve.service"])
    service_self = sum(s.self_s for s in spans["serve.service"])
    cache_s = sum(s.duration for s in spans["serve.cache_get"])
    wall = sum(end - start for start, end in
               (phases["open"], phases["closed"])) * connections
    rows = [("http", round_trips - service_total - parse_s, n),
            ("serve.parse", parse_s, len(spans["serve.parse"])),
            ("serve.service", service_self, len(spans["serve.service"])),
            ("serve.cache_get", cache_s, len(spans["serve.cache_get"])),
            ("serve.queue_wait", submit_s - served_forward,
             len(spans["serve.submit"])),
            ("serve.forward", served_forward, len(forwards))]
    rows.append(("untraced", wall - sum(s for _, s, _ in rows), 0))

    snap = service.metrics_snapshot()
    hits = snap.get("serve.cache.hits", 0)
    misses = snap.get("serve.cache.misses", 0)
    lookups = sum(snap.get(f"plan.{k}", 0)
                  for k in ("hits", "misses", "fallbacks"))
    batches = snap.get("serve.batches", 0)
    layers = {
        "serve.parse_s": metric(parse_s / n, "s"),
        "serve.cache_get_s": metric(cache_s / n, "s"),
        "serve.cache_hit_ratio": metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "serve.queue_wait_s": metric((submit_s - served_forward) / n, "s"),
        "serve.graphs_per_batch": metric(
            misses / batches if batches else 0.0, "graphs"),
        "serve.forward_s": metric(served_forward / n, "s"),
        "serve.plan_hit_ratio": metric(
            snap.get("plan.replays", 0) / lookups if lookups else 0.0,
            "ratio"),
        "serve.service_s": metric(service_total / n, "s"),
        "http.overhead_ms": metric(
            1e3 * (round_trips - service_total) / n, "ms"),
        "loadgen.late_ms": metric(float(np.mean(
            [1e3 * (r.sent - r.due) for r in open_requests])), "ms"),
    }
    return {"metrics": layers, "rows": rows, "wall_s": wall, "ops": n,
            "op": "request"}
