#!/usr/bin/env python3
"""Socket-level smoke test for domd_serve.

Usage: serve_smoke.py BUILD_DIR [--inject-faults]
       serve_smoke.py BUILD_DIR --connections N --target-rps R
       serve_smoke.py BUILD_DIR --cluster K
       serve_smoke.py BUILD_DIR --ingest
       serve_smoke.py BUILD_DIR --cluster K --ingest

Combining --cluster and --ingest selects the replicated-ingest mode:
shard 0 runs three quorum-2 replicated replicas (durable stores, retrain
roots), live mutations stream through the router, the shard-0 ingest
primary is killed mid-stream (a follower must take over writes), the
dead replica restarts on its old port and catches back up until router
`freshness` reports the shard converged, an amount with more than six
significant digits is merged on every shard-0 replica and a follower
level with the primary restarts (its tables must reopen bit for bit, so
its epoch equals its peers' with no catch-up to repair it), and a retrain
scatter — shard 0
trained once, its other replicas adopting byte-identical bundles — leaves
every replica predicting for avails that only ever existed as mutations
— byte-identically across shard-0 replicas.

The fourth form is the streaming-ingestion mode: it boots domd_serve with
an ingest log and a retrain root, checks `freshness` reports the bundle
caught up, streams a brand-new availability and its RCCs over the wire
via `ingest`, watches `freshness` flip to stale, drives `retrain` (train
from a pinned store snapshot, write a fresh bundle version, hot-swap it),
and verifies the swapped bundle predicts for the avail that only ever
existed as a mutation stream — the continuous-retraining loop end to end.

The third form is the sharded-cluster mode: it launches K domd_serve
shards (shard 0 with a replica) plus a domd_router fronting them, checks
routed answers against the shards directly (bit-identity, latency aside),
exercises scatter-gather, routes a full-size detached request (a whole
RCC stream) and a truncated one (the router's parse error must equal the
shard's byte for byte), kills shard 0's primary mid-load and requires
hedging to keep client-visible errors bounded, restarts it on the same
port and waits for the router's health prober to report the rejoin, then
drives a coordinated rollout to a second bundle through the router.

The second form is the open-loop many-connection mode: it ramps up N
concurrent sockets against the epoll reactor front-end, offers cheap
reference predictions at a fixed R requests/second across them (open
loop: the schedule does not wait for responses), validates every response
line, and — while the load is in flight — requires `health` and `metrics`
on a separate control connection to stay responsive. Used by CI to prove
the reactor sustains 1k+ connections with zero invalid responses.

Generates a small fleet, trains a bundle via the domd CLI, starts
domd_serve on an ephemeral port, drives the newline-delimited JSON
protocol end to end (ping / health / reference predict / detached predict /
validation error / metrics / stats / swap / shutdown), and verifies every
response — including that the `metrics` payload is well-formed Prometheus
text exposition with the serving histograms populated. The client dials
the server with exponential backoff and probes `health` before the first
predict, the same discipline a production caller would use.

With --inject-faults the server is started under a deterministic fault
spec (`serve.bundle.read=fail-first:2`) so the initial bundle load must
survive two injected read failures via its internal retry, and a
corrupt-bundle fixture (one flipped byte in models.txt) is offered via
`swap` — the server must reject it as DATA_LOSS, keep serving the
last-known-good bundle bit-identically, and still report ready.

The default mode first checks that an undeclared flag exits 2: domd_serve
with `--no-such-flag 1` never starts listening, and `domd train` with
the retired `--quantized-hist 1` writes no model.

Exits non-zero on the first mismatch. Used by the CI serving smoke and
chaos jobs; runnable locally the same way.
"""

import csv
import json
import re
import resource
import selectors
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DETACHED_REQUEST = {
    "avail": {
        "id": 1, "ship_id": 5, "status": "ongoing",
        "planned_start": "2024-01-01", "planned_end": "2024-12-01",
        "actual_start": "2024-01-10", "ship_class": 2, "rmc_id": 1,
        "ship_age_years": 17.5, "avail_type": 0, "homeport": 2,
        "prior_avail_count": 3, "contract_value_musd": 30.0,
        "crew_size": 250,
    },
    "rccs": [
        {"type": "G", "swlin": "434-11-001", "creation_date": "2024-02-01",
         "settled_date": "2024-03-15", "settled_amount": 150000.0},
        {"type": "N", "swlin": "234-01-002", "creation_date": "2024-03-01",
         "settled_amount": 0},
    ],
    "t_star": 50.0, "top_k": 3,
}


METRIC_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[^}]*\})? (?P<value>[0-9eE+.\-]+|\+Inf|NaN)$')
TYPE_LINE = re.compile(
    r"^# TYPE (?P<family>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<type>counter|gauge|histogram)$")


def check_prometheus(payload):
    """Validates Prometheus text-exposition structure and returns
    {family: type} and {series: value}."""
    families, samples = {}, {}
    for line in payload.splitlines():
        if not line:
            continue
        type_match = TYPE_LINE.match(line)
        if type_match:
            family = type_match.group("family")
            expect(family not in families,
                   f"duplicate # TYPE for {family}")
            families[family] = type_match.group("type")
            continue
        sample = METRIC_LINE.match(line)
        expect(sample is not None, f"unparseable exposition line: {line!r}")
        series = sample.group("name") + (sample.group("labels") or "")
        expect(series not in samples, f"duplicate series: {series}")
        samples[series] = float(sample.group("value"))

    # Histogram invariants: cumulative le-buckets are non-decreasing and
    # the +Inf bucket equals _count.
    for family, kind in families.items():
        if kind != "histogram":
            continue
        buckets = {}
        for series, value in samples.items():
            if series.startswith(family + "_bucket"):
                # Key one le-ladder by its other labels (span histograms
                # carry a span=... label next to le).
                key = re.sub(r',?le="[^"]*"', "", series).replace("{}", "")
                buckets.setdefault(key, []).append((series, value))
        expect(buckets, f"histogram {family} exposes no buckets")
        for key, series_group in buckets.items():
            values = [v for _, v in series_group]  # exposition order kept.
            expect(values == sorted(values),
                   f"non-cumulative buckets in {family}: {series_group}")
            count = samples.get(
                key.replace(family + "_bucket", family + "_count", 1))
            inf = [v for s, v in series_group if 'le="+Inf"' in s]
            expect(count is not None and len(inf) == 1 and
                   inf[0] == count,
                   f"+Inf bucket of {key} must equal _count "
                   f"(inf={inf}, count={count})")
    return families, samples


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def expect(condition, message):
    if not condition:
        fail(message)


def run_cli(cli, *args):
    result = subprocess.run([str(cli), *args], capture_output=True, text=True)
    expect(result.returncode == 0,
           f"`domd {' '.join(args)}` exited {result.returncode}:\n"
           f"{result.stdout}{result.stderr}")
    return result.stdout


def connect_with_retry(port, attempts=5, backoff_s=0.2):
    """Dials the server with exponential backoff; transient connection
    refusals (server still binding) are absorbed, persistent ones fail."""
    delay = backoff_s
    for attempt in range(1, attempts + 1):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=30)
        except OSError as error:
            if attempt == attempts:
                fail(f"cannot connect to 127.0.0.1:{port} after "
                     f"{attempts} attempts: {error}")
            time.sleep(delay)
            delay *= 2


def wait_for_port(server):
    """Reads the server's stdout until the listening banner names its port."""
    port = None
    deadline = time.time() + 60
    while time.time() < deadline:
        line = server.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        server.kill()
        fail("server never reported its port")
    return port


def start_server(server_bin, bundle, extra_args=(), port=0):
    """Starts domd_serve (port 0 = ephemeral); returns (process, port)."""
    server = subprocess.Popen(
        [str(server_bin), "--bundle", str(bundle), "--port", str(port),
         *extra_args],
        stdout=subprocess.PIPE, text=True)
    return server, wait_for_port(server)


def start_router(router_bin, spec_path, extra_args=()):
    """Starts domd_router on an ephemeral port; returns (process, port)."""
    router = subprocess.Popen(
        [str(router_bin), "--cluster-spec", str(spec_path), "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, text=True)
    return router, wait_for_port(router)


def make_rpc(stream):
    def rpc(request):
        stream.write(json.dumps(request) + "\n")
        stream.flush()
        line = stream.readline()
        expect(line, f"no response to {request}")
        return json.loads(line)
    return rpc


def probe_health(rpc, version):
    """Readiness gate a production client runs before routing traffic."""
    health = rpc({"cmd": "health"})
    expect(health.get("ok") and health.get("ready") is True and
           health.get("bundle_version") == version and
           health.get("breaker_state") == "closed",
           f"bad health response: {health}")
    return health


def train_bundles(build, work):
    """Generates a fleet and trains the v1/v2 bundles used by both modes."""
    cli = build / "tools" / "domd"
    expect(cli.exists(), f"missing {cli}")
    fleet = work / "fleet"
    bundle_v1 = work / "bundle_v1"
    bundle_v2 = work / "bundle_v2"

    fleet.mkdir(parents=True, exist_ok=True)
    run_cli(cli, "generate", "--dir", str(fleet), "--avails", "40",
            "--ongoing", "0.1", "--seed", "7")
    run_cli(cli, "train", "--dir", str(fleet), "--model",
            str(work / "models.txt"), "--window", "25", "--k", "20",
            "--rounds", "30", "--bundle", str(bundle_v1),
            "--bundle-version", "v1")
    run_cli(cli, "train", "--dir", str(fleet), "--model",
            str(work / "models2.txt"), "--window", "25", "--k", "20",
            "--rounds", "12", "--bundle", str(bundle_v2),
            "--bundle-version", "v2")

    # The CLI predict subcommand shares the bundle loader with the server.
    predict_out = run_cli(cli, "predict", "--bundle", str(bundle_v1),
                          "--avail", "3", "--t", "60")
    expect("days" in predict_out, f"unexpected predict output: {predict_out}")
    return bundle_v1, bundle_v2


def check_bad_flags_rejected(build, bundle, work):
    """An undeclared flag, or a replication flag domd_serve would misread
    or ignore, exits 2 naming the flag before anything runs: domd_serve
    never listens, and `domd train` writes no model."""
    serve = [build / "tools" / "domd_serve", "--bundle", bundle, "--port", "0"]
    store = ["--persist-dir", work / "rejected_store"]
    runs = (
        ("domd_serve", serve + ["--no-such-flag", "1"], "--no-such-flag"),
        ("domd_serve", serve + ["--repl-queue-bytes", "1"],
         "--repl-queue-bytes"),
        # A misspelt role must not run as a follower.
        ("domd_serve", serve + store + ["--repl-peers", "127.0.0.1:1",
                                        "--repl-role", "primry"],
         "--repl-role"),
        # A quorum above the replica count could never ack an ingest.
        ("domd_serve", serve + store + ["--repl-peers", "127.0.0.1:1",
                                        "--repl-quorum", "3"],
         "--repl-quorum"),
        ("domd_serve", serve + store + ["--repl-quorum", "2"],
         "--repl-quorum"),
        # Without an ingest store there is nothing to replicate.
        ("domd_serve", serve + ["--repl-peers", "127.0.0.1:1"],
         "--repl-peers"),
        # A peer no dialer can reach could never ack an ingest.
        ("domd_serve", serve + store + ["--repl-peers", "localhost:1",
                                        "--repl-quorum", "2"],
         "--repl-peers"),
        ("domd_serve", serve + ["--repl-quorum", "1"], "--repl-quorum"),
        ("domd_serve", serve + ["--repl-role", "follower"], "--repl-role"),
        ("domd train", [build / "tools" / "domd", "train", "--dir",
                        work / "fleet", "--model", work / "rejected.txt",
                        "--quantized-hist", "1"],
         "--quantized-hist"),
    )
    for name, argv, flag in runs:
        try:
            result = subprocess.run([str(arg) for arg in argv],
                                    capture_output=True, text=True,
                                    timeout=30)
        except subprocess.TimeoutExpired:
            fail(f"{name} kept running with {flag}")
        expect(result.returncode == 2 and flag in result.stderr and
               "listening" not in result.stdout,
               f"{name} with {flag} exited {result.returncode}:\n"
               f"{result.stdout}{result.stderr}")
    expect(not (work / "rejected.txt").exists(),
           "domd train wrote a model despite an undeclared flag")


def run_normal_flow(server_bin, bundle_v1, bundle_v2):
    server, port = start_server(server_bin, bundle_v1)
    try:
        with connect_with_retry(port) as sock:
            stream = sock.makefile("rw")
            rpc = make_rpc(stream)

            ping = rpc({"cmd": "ping"})
            expect(ping.get("ok") and ping.get("bundle_version") == "v1",
                   f"bad ping response: {ping}")

            # Health probe before the first predict, like a real client.
            probe_health(rpc, "v1")

            reference = rpc({"avail_id": 3, "t_star": 60})
            expect(reference.get("ok") and
                   reference.get("bundle_version") == "v1" and
                   reference.get("num_steps", 0) >= 1 and
                   reference.get("band_low") <= reference.get("estimate_days")
                   <= reference.get("band_high"),
                   f"bad reference response: {reference}")

            detached = rpc(DETACHED_REQUEST)
            expect(detached.get("ok") and detached.get("avail_id") == 1 and
                   len(detached.get("top_features", [])) == 3,
                   f"bad detached response: {detached}")

            invalid = rpc({"avail": {"id": 1}})
            expect(not invalid.get("ok") and
                   invalid.get("code") == "INVALID_ARGUMENT",
                   f"bad validation response: {invalid}")

            # A degenerate planned window (planned_end == planned_start)
            # must be rejected at the wire, not scored into NaNs.
            degenerate = dict(DETACHED_REQUEST)
            degenerate["avail"] = dict(DETACHED_REQUEST["avail"])
            degenerate["avail"]["planned_end"] = \
                degenerate["avail"]["planned_start"]
            rejected = rpc(degenerate)
            expect(not rejected.get("ok") and
                   rejected.get("code") == "INVALID_ARGUMENT",
                   f"degenerate planned window not rejected: {rejected}")

            # Prometheus exposition: well-formed, serving histograms
            # present and populated by the requests above.
            metrics = rpc({"cmd": "metrics"})
            expect(metrics.get("ok") and
                   metrics.get("content_type") ==
                   "text/plain; version=0.0.4",
                   f"bad metrics envelope: {metrics}")
            families, samples = check_prometheus(metrics.get("payload", ""))
            for family in ("domd_serve_queue_wait_ms",
                           "domd_serve_batch_score_ms",
                           "domd_serve_batch_size"):
                expect(families.get(family) == "histogram",
                       f"{family} missing from exposition: "
                       f"{sorted(families)}")
                expect(samples.get(f"{family}_count", 0) >= 1,
                       f"{family} never observed anything")
            expect(samples.get(
                       'domd_serve_requests_total{code="OK"}', 0) >= 1,
                   "OK outcome counter not populated")

            swap = rpc({"cmd": "swap", "bundle": str(bundle_v2)})
            expect(swap.get("ok") and swap.get("bundle_version") == "v2",
                   f"bad swap response: {swap}")
            swapped = rpc(DETACHED_REQUEST)
            expect(swapped.get("ok") and
                   swapped.get("bundle_version") == "v2",
                   f"post-swap response not on v2: {swapped}")
            expect(swapped["estimate_days"] != detached["estimate_days"],
                   "v1 and v2 produced identical estimates; swap unproven")

            stats = rpc({"cmd": "stats"})
            counters = stats.get("stats", {})
            expect(stats.get("ok") and counters.get("swaps") == 1 and
                   counters.get("completed_ok", 0) >= 2 and
                   counters.get("rejected_overload") == 0 and
                   counters.get("swap_failures") == 0 and
                   stats.get("breaker_state") == "closed",
                   f"bad stats response: {stats}")

            done = rpc({"cmd": "shutdown"})
            expect(done.get("ok") and done.get("shutting_down"),
                   f"bad shutdown response: {done}")

        expect(server.wait(timeout=30) == 0, "server exited non-zero")
        tail = server.stdout.read()
        expect("clean shutdown" in tail, f"no clean-shutdown banner: {tail}")
    finally:
        if server.poll() is None:
            server.kill()


def run_fault_flow(server_bin, bundle_v1, bundle_v2, work):
    """Chaos mode: the initial load must absorb two injected read faults,
    and a corrupt bundle offered via swap must be rejected as DATA_LOSS
    while the last-known-good bundle keeps serving bit-identically."""
    corrupt = work / "bundle_corrupt"
    shutil.copytree(bundle_v2, corrupt)
    target = corrupt / "models.txt"
    payload = bytearray(target.read_bytes())
    expect(len(payload) > 100, f"{target} implausibly small")
    payload[100] ^= 0x40  # one flipped byte, invisible without checksums.
    target.write_bytes(bytes(payload))

    server, port = start_server(
        server_bin, bundle_v1,
        ("--fault-spec", "serve.bundle.read=fail-first:2"))
    try:
        with connect_with_retry(port) as sock:
            stream = sock.makefile("rw")
            rpc = make_rpc(stream)

            # Reaching here at all proves the initial load retried through
            # the two injected read failures with zero client-visible
            # errors; health confirms the server is ready on v1.
            probe_health(rpc, "v1")

            baseline = rpc(DETACHED_REQUEST)
            expect(baseline.get("ok") and
                   baseline.get("bundle_version") == "v1",
                   f"bad pre-swap predict: {baseline}")

            swap = rpc({"cmd": "swap", "bundle": str(corrupt)})
            expect(not swap.get("ok") and swap.get("code") == "DATA_LOSS" and
                   swap.get("bundle_version") == "v1",
                   f"corrupt bundle not rejected as DATA_LOSS: {swap}")

            # Degraded gracefully: still ready, still on v1, predictions
            # bit-identical to before the failed swap.
            probe_health(rpc, "v1")
            after = rpc(DETACHED_REQUEST)
            expect(after.get("ok") and after.get("bundle_version") == "v1" and
                   after["estimate_days"] == baseline["estimate_days"],
                   f"post-failed-swap predict drifted: {after}")

            stats = rpc({"cmd": "stats"})
            counters = stats.get("stats", {})
            expect(counters.get("swap_failures") == 1 and
                   counters.get("swaps") == 0,
                   f"swap failure not counted: {stats}")

            # The pristine copy of the same version still swaps cleanly.
            healthy = rpc({"cmd": "swap", "bundle": str(bundle_v2)})
            expect(healthy.get("ok") and
                   healthy.get("bundle_version") == "v2",
                   f"healthy swap failed after rejection: {healthy}")

            done = rpc({"cmd": "shutdown"})
            expect(done.get("ok") and done.get("shutting_down"),
                   f"bad shutdown response: {done}")

        expect(server.wait(timeout=30) == 0, "server exited non-zero")
    finally:
        if server.poll() is None:
            server.kill()


def run_open_loop(server_bin, bundle_v1, connections, target_rps):
    """Open-loop many-connection mode: see the module docstring."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 2 * connections + 256
    if soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(want, hard), hard))

    total_requests = max(connections, int(target_rps * 2))
    request_line = (json.dumps({"avail_id": 3, "t_star": 60}) + "\n").encode()

    server, port = start_server(
        server_bin, bundle_v1,
        ("--max-connections", str(connections + 16)))
    try:
        # Control connection first: it probes health/metrics mid-load.
        control = connect_with_retry(port)
        control_stream = control.makefile("rw")
        rpc = make_rpc(control_stream)
        probe_health(rpc, "v1")

        # Ramp up the fleet of sockets.
        selector = selectors.DefaultSelector()
        socks = []
        for index in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            selector.register(sock, selectors.EVENT_READ, index)
            socks.append(sock)
        buffers = [b""] * connections
        in_flight = [0] * connections
        registered = [True] * connections

        sent = responses = invalid = 0
        probed_under_load = False
        start = time.monotonic()

        def drain(timeout):
            nonlocal responses, invalid
            for key, _ in selector.select(timeout):
                index = key.data
                sock = key.fileobj
                try:
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        buffers[index] += chunk
                except BlockingIOError:
                    pass
                except ConnectionResetError:
                    # A reset after the connection already received every
                    # response it was owed is benign teardown timing (the
                    # server closed first and the kernel RSTs our next
                    # recv); a reset with responses outstanding is a real
                    # failure.
                    expect(in_flight[index] == 0,
                           f"connection {index} reset with "
                           f"{in_flight[index]} responses outstanding")
                    selector.unregister(sock)
                    registered[index] = False
                    continue
                while b"\n" in buffers[index]:
                    line, _, buffers[index] = buffers[index].partition(b"\n")
                    responses += 1
                    in_flight[index] -= 1
                    try:
                        reply = json.loads(line)
                    except json.JSONDecodeError:
                        invalid += 1
                        continue
                    if not (reply.get("ok") and
                            reply.get("bundle_version") == "v1" and
                            reply.get("num_steps", 0) >= 1):
                        invalid += 1

        while sent < total_requests:
            due = min(total_requests,
                      int((time.monotonic() - start) * target_rps))
            while sent < due:
                index = sent % connections
                socks[index].sendall(request_line)
                in_flight[index] += 1
                sent += 1
            if not probed_under_load and sent >= total_requests // 2:
                # Mid-load responsiveness: the shards keep answering
                # control-plane verbs while the request fleet is hot.
                probe_health(rpc, "v1")
                metrics = rpc({"cmd": "metrics"})
                expect(metrics.get("ok"), f"metrics dead under load: "
                       f"{metrics}")
                check_prometheus(metrics.get("payload", ""))
                probed_under_load = True
            drain(0.001)

        deadline = time.monotonic() + 30
        while responses < sent and time.monotonic() < deadline:
            drain(0.05)
        wall = time.monotonic() - start

        expect(responses == sent,
               f"only {responses}/{sent} responses within 30s of last send")
        expect(invalid == 0, f"{invalid} invalid responses out of {sent}")
        expect(probed_under_load, "load finished before the mid-load probe")
        expect(all(n == 0 for n in in_flight), "in-flight accounting drifted")

        stats = rpc({"cmd": "stats"})
        expect(stats.get("ok"), f"bad stats response: {stats}")

        for index, sock in enumerate(socks):
            if registered[index]:
                selector.unregister(sock)
            sock.close()
        selector.close()

        done = rpc({"cmd": "shutdown"})
        expect(done.get("ok") and done.get("shutting_down"),
               f"bad shutdown response: {done}")
        control.close()
        expect(server.wait(timeout=30) == 0, "server exited non-zero")
        print(f"serve_smoke: open loop sustained {connections} connections, "
              f"{sent} requests in {wall:.2f}s "
              f"({sent / wall:.0f} rps achieved, target {target_rps:.0f}), "
              f"0 invalid")
    finally:
        if server.poll() is None:
            server.kill()


def detached_from_fleet(fleet, target_rccs=300):
    """A detached request for the fleet avail whose RCC stream is nearest
    `target_rccs` long, carrying the avail and every one of its RCCs as a
    client would send them (a full-size line, ~40 KB)."""
    with open(fleet / "avails.csv", newline="") as f:
        avails = list(csv.DictReader(f))
    streams = {}
    with open(fleet / "rccs.csv", newline="") as f:
        for rcc in csv.DictReader(f):
            streams.setdefault(rcc["avail_id"], []).append(rcc)
    row = min(avails, key=lambda a: (
        abs(len(streams.get(a["avail_id"], [])) - target_rccs),
        int(a["avail_id"])))
    avail = {"id": int(row["avail_id"]), "ship_id": int(row["ship_id"]),
             "status": row["status"], "planned_start": row["plan_start"],
             "planned_end": row["plan_end"],
             "actual_start": row["actual_start"]}
    if row["actual_end"]:
        avail["actual_end"] = row["actual_end"]
    for key in ("ship_class", "rmc_id", "avail_type", "homeport",
                "prior_avail_count", "crew_size"):
        avail[key] = int(row[key])
    for key in ("ship_age_years", "contract_value_musd"):
        avail[key] = float(row[key])
    rccs = []
    for rcc in streams[row["avail_id"]]:
        item = {"id": int(rcc["rcc_id"]), "type": rcc["type"],
                "swlin": rcc["swlin"],
                "creation_date": rcc["creation_date"]}
        if rcc["settled_date"]:
            item["settled_date"] = rcc["settled_date"]
        item["settled_amount"] = float(rcc["settled_amount"])
        rccs.append(item)
    return {"avail": avail, "rccs": rccs, "top_k": 5, "t_star": 60}


def raw_rpc(port, line):
    """Sends `line` as is on a fresh connection; returns the answer line's
    bytes, newline included."""
    with connect_with_retry(port) as sock:
        sock.sendall(line.encode() + b"\n")
        return sock.makefile("rb").readline()


def run_cluster_flow(build, bundle_v1, bundle_v2, work, num_shards):
    """Cluster mode: K single-replica shards plus a replicated shard 0,
    fronted by domd_router. Verifies routed answers against the shards
    directly, kills shard 0's primary mid-load (hedging must keep client-
    visible errors bounded), restarts it on the same port and waits for the
    router's prober to report the rejoin, then runs a coordinated rollout
    to bundle_v2 through the router."""
    server_bin = build / "tools" / "domd_serve"
    router_bin = build / "tools" / "domd_router"
    expect(router_bin.exists(), f"missing {router_bin}")

    shards = []      # (process, port) per endpoint, for teardown.
    spec_shards = []
    try:
        # Shard 0 gets a replica (the hedge target of the kill test);
        # shards 1..K-1 are single-replica.
        for shard_id in range(num_shards):
            replicas = []
            for _ in range(2 if shard_id == 0 else 1):
                process, port = start_server(server_bin, bundle_v1)
                shards.append((process, port))
                replicas.append(f"127.0.0.1:{port}")
            spec_shards.append({"id": shard_id, "replicas": replicas})
        spec_path = work / "cluster_spec.json"
        spec_path.write_text(json.dumps(
            {"vnodes": 64, "shards": spec_shards}))

        # A spec naming a host no dialer can reach fails to load: the
        # router exits before it listens.
        bad_spec = work / "hostname_spec.json"
        bad_spec.write_text(json.dumps(
            {"shards": [{"id": 0, "replicas": [
                spec_shards[0]["replicas"][0].replace("127.0.0.1",
                                                      "localhost")]}]}))
        refused = subprocess.run(
            [str(router_bin), "--cluster-spec", str(bad_spec), "--port", "0"],
            capture_output=True, text=True, timeout=30)
        expect(refused.returncode != 0 and
               "listening" not in refused.stdout and
               "localhost" in refused.stderr,
               f"domd_router loaded a localhost spec: exit "
               f"{refused.returncode}\n{refused.stdout}{refused.stderr}")

        router, router_port = start_router(
            router_bin, spec_path,
            ("--probe-interval-ms", "200", "--hedge-ms", "300"))
        shards.append((router, router_port))

        control = connect_with_retry(router_port)
        stream = control.makefile("rw")
        rpc = make_rpc(stream)

        ping = rpc({"cmd": "ping"})
        expect(ping.get("ok") and ping.get("role") == "router" and
               ping.get("num_shards") == num_shards,
               f"bad router ping: {ping}")

        # Direct connections to every shard endpoint (for identity checks
        # and the shard-side view of the rollout).
        def shard_rpc(port, request):
            with connect_with_retry(port) as sock:
                shard_stream = sock.makefile("rw")
                return make_rpc(shard_stream)(request)

        def strip_latency(reply):
            return {k: v for k, v in reply.items() if k != "latency_ms"}

        # Routed answers must be (latency aside) identical to what exactly
        # one shard answers directly — the bit-identity contract, checked
        # here without reimplementing the ring client-side.
        for avail_id in (1, 3, 7, 19, 33):
            request = {"avail_id": avail_id, "t_star": 60}
            routed = rpc(request)
            expect(routed.get("ok"), f"routed predict failed: {routed}")
            direct = [strip_latency(shard_rpc(port, request))
                      for _, port in shards[:-1]]
            expect(strip_latency(routed) in direct,
                   f"routed answer for avail {avail_id} matches no shard")

        # Scatter-gather across the whole fleet, merged in request order.
        ids = [1, 5, 9, 14, 22, 31]
        scatter = rpc({"avail_ids": ids, "t_star": 60})
        expect(scatter.get("ok") and scatter.get("errors") == 0 and
               [r.get("avail_id") for r in scatter.get("results", [])] == ids,
               f"bad scatter-gather response: {scatter}")

        # A full-size detached request (a whole RCC stream) routed by its
        # ship: every shard serves the same bundle, so the routed answer,
        # latency aside, must equal each shard's direct answer, the owner's
        # included.
        detached = detached_from_fleet(work / "fleet")
        routed = rpc(detached)
        expect(routed.get("ok") and
               routed.get("avail_id") == detached["avail"]["id"],
               f"routed detached predict failed: {routed}")
        for _, port in shards[:-1]:
            direct = strip_latency(shard_rpc(port, detached))
            expect(strip_latency(routed) == direct,
                   f"routed detached answer differs from shard :{port}'s "
                   f"({len(detached['rccs'])} rccs)")

        # A truncated detached line: the router's parse error must be the
        # shard's, byte for byte.
        line = json.dumps(detached, separators=(",", ":"))
        cut = line[:len(line) // 2]
        routed_error = raw_rpc(router_port, cut)
        direct_error = raw_rpc(shards[0][1], cut)
        expect(routed_error.startswith(b'{"ok":false') and
               routed_error == direct_error,
               f"truncated detached line: router answered {routed_error!r}, "
               f"shard {direct_error!r}")

        # Wait for the prober to mark every replica up before the chaos.
        deadline = time.time() + 10
        while time.time() < deadline:
            health = rpc({"cmd": "health"})
            if health.get("all_shards_routable"):
                break
            time.sleep(0.1)
        expect(health.get("all_shards_routable"),
               f"cluster never became fully routable: {health}")

        # Kill shard 0's primary mid-load. Hedging to its replica must
        # keep client-visible errors bounded (the only loss window is a
        # request in flight on the dying socket, and even that retries).
        primary_process, primary_port = shards[0]
        total, failures = 200, 0
        for i in range(total):
            if i == total // 2:
                primary_process.kill()
                primary_process.wait(timeout=30)
            reply = rpc({"avail_id": 1 + (i % 40), "t_star": 60})
            if not reply.get("ok"):
                failures += 1
        expect(failures <= total // 50,
               f"{failures}/{total} requests failed after killing the "
               f"primary (hedging should absorb the kill)")
        stats = rpc({"cmd": "stats"})
        expect(stats.get("hedged", 0) >= 1,
               f"kill absorbed without any hedge recorded: {stats}")

        # Restart the killed primary on its old port and wait for the
        # router's prober to report the rejoin.
        process, port = start_server(server_bin, bundle_v1,
                                     port=primary_port)
        expect(port == primary_port, "restarted shard lost its port")
        shards[0] = (process, port)
        rejoined = False
        deadline = time.time() + 15
        while time.time() < deadline and not rejoined:
            health = rpc({"cmd": "health"})
            for shard in health.get("shards", []):
                if shard.get("id") != 0:
                    continue
                rejoined = all(r.get("up")
                               for r in shard.get("replicas", []))
            time.sleep(0.1)
        expect(rejoined, f"restarted primary never rejoined: {health}")

        # Coordinated rollout through the router: stage everywhere, verify,
        # flip shard-by-shard; afterwards every endpoint serves v2.
        rollout = rpc({"cmd": "rollout", "bundle": str(bundle_v2)})
        expect(rollout.get("ok") and
               rollout.get("bundle_version") == "v2" and
               rollout.get("flipped_shards") ==
               list(range(num_shards)),
               f"bad rollout response: {rollout}")
        for _, port in shards[:-1]:
            health = shard_rpc(port, {"cmd": "health"})
            expect(health.get("bundle_version") == "v2",
                   f"endpoint :{port} not on v2 after rollout: {health}")

        done = rpc({"cmd": "shutdown"})
        expect(done.get("ok") and done.get("shutting_down"),
               f"bad router shutdown response: {done}")
        control.close()
        expect(router.wait(timeout=30) == 0, "router exited non-zero")
        shards.pop()  # the router row; shards remain for teardown below.

        for _, port in shards:
            done = shard_rpc(port, {"cmd": "shutdown"})
            expect(done.get("ok"), f"bad shard shutdown response: {done}")
        for process, _ in shards:
            expect(process.wait(timeout=30) == 0, "shard exited non-zero")
        shards = []
        print(f"serve_smoke: cluster of {num_shards} shards survived a "
              f"primary kill with {failures}/{total} failed requests and "
              f"rolled out v2")
    finally:
        for process, _ in shards:
            if process.poll() is None:
                process.kill()


def pick_free_ports(count):
    """Reserves `count` distinct free TCP ports by binding them all before
    releasing any — replicated replicas must know every peer's port before
    the first one starts, so ephemeral self-assignment cannot work."""
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def run_replicated_cluster_flow(build, bundle_v1, work, num_shards):
    """Replicated-ingest cluster mode (`--cluster K --ingest`): shard 0 runs
    three replicas under quorum-2 replication, shards 1..K-1 single-replica,
    all with durable stores and retrain roots, fronted by domd_router. Live
    mutations stream through the router; the shard-0 ingest primary is then
    killed, a follower must take over writes and merge them away from its
    log's tail, the dead replica restarts on its old port and is installed
    from a snapshot push (router freshness reports the shard converged),
    a follower level with the primary restarts after merging an amount
    with more than six significant digits and must reopen at its peers'
    epoch, and a retrain scatter — one training for shard 0, whose
    other replicas adopt byte-identical bundles — leaves every replica
    answering for avails that only ever existed as mutations."""
    server_bin = build / "tools" / "domd_serve"
    router_bin = build / "tools" / "domd_router"
    expect(router_bin.exists(), f"missing {router_bin}")

    repl_ports = pick_free_ports(3)

    def repl_args(replica):
        peers = ",".join(f"127.0.0.1:{p}"
                         for i, p in enumerate(repl_ports) if i != replica)
        persist = work / f"repl{replica}"
        persist.mkdir(parents=True, exist_ok=True)
        # Below shard 0's share of the post-kill batch (one avail and its
        # RCC, two keys), so the surviving primary merges that batch.
        return ("--persist-dir", str(persist),
                "--retrain-root", str(work / f"repl{replica}_retrain"),
                "--repl-peers", peers, "--repl-quorum", "2",
                "--merge-threshold", "1")

    servers = []     # (process, port) per endpoint, for teardown.
    spec_shards = []
    try:
        for shard_id in range(num_shards):
            replicas = []
            if shard_id == 0:
                for replica in range(3):
                    process, port = start_server(
                        server_bin, bundle_v1, repl_args(replica),
                        port=repl_ports[replica])
                    servers.append((process, port))
                    replicas.append(f"127.0.0.1:{port}")
            else:
                persist = work / f"shard{shard_id}"
                persist.mkdir(parents=True, exist_ok=True)
                process, port = start_server(
                    server_bin, bundle_v1,
                    ("--persist-dir", str(persist), "--retrain-root",
                     str(work / f"shard{shard_id}_retrain")))
                servers.append((process, port))
                replicas.append(f"127.0.0.1:{port}")
            spec_shards.append({"id": shard_id, "replicas": replicas})
        spec_path = work / "repl_cluster_spec.json"
        spec_path.write_text(json.dumps({"vnodes": 64,
                                         "shards": spec_shards}))

        router, router_port = start_router(
            router_bin, spec_path,
            ("--probe-interval-ms", "200", "--hedge-ms", "500"))
        servers.append((router, router_port))

        control = connect_with_retry(router_port)
        stream = control.makefile("rw")
        rpc = make_rpc(stream)

        ping = rpc({"cmd": "ping"})
        expect(ping.get("ok") and ping.get("role") == "router",
               f"bad router ping: {ping}")

        deadline = time.time() + 15
        while time.time() < deadline:
            health = rpc({"cmd": "health"})
            if health.get("all_shards_routable"):
                break
            time.sleep(0.1)
        expect(health.get("all_shards_routable"),
               f"cluster never became fully routable: {health}")

        def avail_json(avail_id):
            return {
                "id": avail_id, "ship_id": 9000 + avail_id,
                "status": "closed",
                "planned_start": "2023-01-05", "planned_end": "2023-04-05",
                "actual_start": "2023-01-08", "actual_end": "2023-04-25",
                "ship_class": 2, "rmc_id": 1, "ship_age_years": 17.5,
                "avail_type": 0, "homeport": 2, "prior_avail_count": 3,
                "contract_value_musd": 30.0, "crew_size": 250,
            }

        def ingest_line(ids, amount=50000.0):
            return {
                "cmd": "ingest",
                "avails": [avail_json(i) for i in ids],
                "rccs": [{"id": 900000 + i, "avail_id": i, "type": "N",
                          "swlin": "434-11-001",
                          "creation_date": "2023-02-01",
                          "settled_date": "2023-03-01",
                          "settled_amount": amount} for i in ids],
            }

        def ingest_until_acked(ids, amount=50000.0, timeout_s=45):
            """Resends the batch until the router reports every touched
            shard acked it. Redelivery is idempotent (mutations upsert by
            id), so retrying across a failover cannot double-apply."""
            deadline = time.time() + timeout_s
            attempts = 0
            while time.time() < deadline:
                attempts += 1
                reply = rpc(ingest_line(ids, amount))
                if reply.get("ok"):
                    return reply, attempts
                time.sleep(0.3)
            fail(f"ingest of {ids} never acked after {attempts} attempts: "
                 f"{reply}")

        def wait_converged(timeout_s=45):
            deadline = time.time() + timeout_s
            while time.time() < deadline:
                fresh = rpc({"cmd": "freshness"})
                if fresh.get("ok") and fresh.get("converged"):
                    return fresh
                time.sleep(0.3)
            fail(f"cluster freshness never converged: {fresh}")

        # Live mutations through the router while every replica is up. The
        # batch spans shards, so the router fans it out by ring ownership
        # and aggregates the per-shard quorum acks.
        first_ids = list(range(41, 65))
        first = rpc(ingest_line(first_ids))
        expect(first.get("ok") and
               first.get("appended") == 2 * len(first_ids),
               f"bad routed ingest response: {first}")
        wait_converged()

        # The router's prober sees shard 0's write path: exactly one
        # replica reports itself ingest primary once writes flowed.
        def shard0_roles():
            health = rpc({"cmd": "health"})
            for shard in health.get("shards", []):
                if shard.get("id") == 0:
                    return {r.get("endpoint"): r.get("ingest_role")
                            for r in shard.get("replicas", [])}
            return {}

        deadline = time.time() + 15
        primary_endpoint = None
        while time.time() < deadline and primary_endpoint is None:
            roles = shard0_roles()
            primaries = [e for e, role in roles.items() if role == "primary"]
            if len(primaries) == 1:
                primary_endpoint = primaries[0]
            else:
                time.sleep(0.2)
        expect(primary_endpoint is not None,
               f"no unique shard-0 ingest primary observed: {roles}")
        primary_port = int(primary_endpoint.rsplit(":", 1)[1])
        primary_index = next(i for i, (_, port) in enumerate(servers)
                             if port == primary_port)

        def shard_rpc(port, request):
            with connect_with_retry(port) as sock:
                shard_stream = sock.makefile("rw")
                return make_rpc(shard_stream)(request)

        # Kill the primary. A follower must promote itself on the next
        # routed write; the client-side retry loop absorbs the window.
        primary_process, _ = servers[primary_index]
        primary_process.kill()
        primary_process.wait(timeout=30)
        survivors = [p for p in repl_ports if p != primary_port]
        merges_before = {p: shard_rpc(p, {"cmd": "freshness"})["merges"]
                         for p in survivors}

        second_ids = list(range(71, 83))
        _, attempts = ingest_until_acked(second_ids)

        # The new primary merges the post-kill batch and rotates its log:
        # what the dead replica lacks leaves the tail for the base tables.
        def new_primary_merged():
            for p in survivors:
                if shard_rpc(p, {"cmd": "health"}).get(
                        "ingest_role") == "primary":
                    merges = shard_rpc(p, {"cmd": "freshness"})["merges"]
                    return merges > merges_before[p]
            return False

        deadline = time.time() + 30
        while time.time() < deadline and not new_primary_merged():
            time.sleep(0.2)
        expect(new_primary_merged(),
               "the surviving shard-0 primary never merged the post-kill "
               "batch")

        # Restart the dead replica on its old port with its old store. It
        # sits below the new primary's tail, so it converges only through
        # a snapshot push, which a receiver counts as a catch-up.
        process, port = start_server(server_bin, bundle_v1,
                                     repl_args(primary_index),
                                     port=primary_port)
        expect(port == primary_port, "restarted replica lost its port")
        servers[primary_index] = (process, port)
        wait_converged()
        rejoined = shard_rpc(primary_port, {"cmd": "stats"})["repl"]
        expect(rejoined.get("catchups", 0) >= 1,
               f"the restarted replica converged without a snapshot "
               f"install: {rejoined}")

        # Exact persistence across a replicated restart. An amount with
        # more than six significant digits reaches shard 0, whose replicas
        # merge it at once (--merge-threshold 1) into their persisted base
        # tables. A follower level with the primary then restarts on its
        # store: its (seq, chain) says it is level, so no catch-up repairs
        # it, and it converges only if its tables reopen bit for bit.
        def shard0_epochs():
            return {p: shard_rpc(p, {"cmd": "freshness"})["store_epoch"]
                    for p in repl_ports}

        epochs_before = shard0_epochs()
        exact_ids = list(range(91, 103))
        ingest_until_acked(exact_ids, amount=12345.678901)

        def shard0_level():
            """The shard-0 replicas' health once all of them merged every
            mutation at one last_seq, else None."""
            healths = {p: shard_rpc(p, {"cmd": "health"})
                       for p in repl_ports}
            merged = all(shard_rpc(p, {"cmd": "freshness"})
                         ["pending_mutations"] == 0 for p in repl_ports)
            seqs = {h.get("ingest_last_seq") for h in healths.values()}
            return healths if merged and len(seqs) == 1 else None

        deadline = time.time() + 30
        healths = shard0_level()
        while time.time() < deadline and healths is None:
            time.sleep(0.2)
            healths = shard0_level()
        expect(healths is not None,
               "shard 0's replicas never merged the exact amounts at one "
               "last_seq")
        epochs_merged = shard0_epochs()
        expect(len(set(epochs_merged.values())) == 1 and
               set(epochs_merged.values()) != set(epochs_before.values()),
               f"shard 0 did not take the exact amounts: "
               f"{epochs_before} -> {epochs_merged}")
        follower_port = next(p for p, h in healths.items()
                             if h.get("ingest_role") == "follower")
        follower_index = next(i for i, (_, port) in enumerate(servers)
                              if port == follower_port)
        follower_process, _ = servers[follower_index]
        follower_process.kill()
        follower_process.wait(timeout=30)
        process, port = start_server(server_bin, bundle_v1,
                                     repl_args(follower_index),
                                     port=follower_port)
        expect(port == follower_port, "restarted follower lost its port")
        servers[follower_index] = (process, port)
        wait_converged()
        epochs_restarted = shard0_epochs()
        expect(epochs_restarted == epochs_merged,
               f"the restarted follower reopened at another epoch: "
               f"{epochs_merged} -> {epochs_restarted}")

        # Retrain scatter, trained once per shard: one converged shard-0
        # replica trains and the other two adopt its models, so all three
        # publish one version; single-replica shards train themselves.
        retrain = rpc({"cmd": "retrain"})
        expect(retrain.get("ok"), f"bad retrain scatter: {retrain}")
        entries = retrain.get("retrained", [])
        shard0 = [e for e in entries if e.get("shard") == 0]
        shard0_versions = {entry.get("bundle_version") for entry in shard0}
        expect(len(shard0_versions) == 1 and "v1" not in shard0_versions,
               f"shard-0 replicas retrained onto different versions: "
               f"{retrain}")
        expect(len(shard0) == 3 and
               sum(1 for e in shard0 if e.get("trained") is True) == 1,
               f"shard 0 did not train exactly once: {retrain}")
        expect(all(e.get("trained") is True
                   for e in entries if e.get("shard") != 0),
               f"a single-replica shard did not train itself: {retrain}")

        # Adopters publish what their own training would have written:
        # the three shard-0 bundle directories match file for file.
        version = shard0_versions.pop()
        bundle_dirs = [work / f"repl{r}_retrain" / version for r in range(3)]
        names = sorted(p.name for p in bundle_dirs[0].iterdir())
        expect(names, f"empty retrained bundle {bundle_dirs[0]}")
        for bundle_dir in bundle_dirs[1:]:
            expect(sorted(p.name for p in bundle_dir.iterdir()) == names,
                   f"{bundle_dir} holds other files than {bundle_dirs[0]}")
            for name in names:
                expect((bundle_dir / name).read_bytes() ==
                       (bundle_dirs[0] / name).read_bytes(),
                       f"{bundle_dir / name} differs from replica 0's")

        # Every streamed avail predicts through the router on a retrained
        # bundle — including those ingested during the failover window.
        for avail_id in first_ids + second_ids:
            predicted = rpc({"avail_id": avail_id, "t_star": 30})
            expect(predicted.get("ok") and
                   predicted.get("bundle_version") != "v1" and
                   predicted.get("num_steps", 0) >= 1,
                   f"streamed avail {avail_id} not predictable after "
                   f"retrain: {predicted}")

        # Replication bit-identity, observed from outside: each shard-0
        # replica, asked directly, knows exactly the same set of streamed
        # avails and answers for them byte-identically (latency aside).
        def strip_latency(reply):
            return {k: v for k, v in reply.items() if k != "latency_ms"}

        owned = None
        answers = None
        for port in repl_ports:
            mine = {}
            for avail_id in first_ids + second_ids:
                reply = shard_rpc(port, {"avail_id": avail_id,
                                         "t_star": 30})
                if reply.get("ok"):
                    mine[avail_id] = strip_latency(reply)
            if owned is None:
                owned, answers = set(mine), mine
            else:
                expect(set(mine) == owned,
                       f"replica :{port} knows {sorted(set(mine))} but its "
                       f"peers know {sorted(owned)}")
                for avail_id, reply in mine.items():
                    expect(reply == answers[avail_id],
                           f"replica :{port} diverges on avail {avail_id}: "
                           f"{reply} vs {answers[avail_id]}")
        expect(owned, "no streamed avail landed on shard 0")

        done = rpc({"cmd": "shutdown"})
        expect(done.get("ok") and done.get("shutting_down"),
               f"bad router shutdown response: {done}")
        control.close()
        expect(router.wait(timeout=30) == 0, "router exited non-zero")
        servers.pop()

        for _, port in servers:
            done = shard_rpc(port, {"cmd": "shutdown"})
            expect(done.get("ok"), f"bad shard shutdown response: {done}")
        for process, _ in servers:
            expect(process.wait(timeout=30) == 0, "shard exited non-zero")
        servers = []
        print(f"serve_smoke: replicated cluster of {num_shards} shards "
              f"streamed {2 * len(first_ids + second_ids + exact_ids)} "
              f"mutations, "
              f"survived an ingest-primary kill (failover acked after "
              f"{attempts} attempt(s)), installed the restarted replica "
              f"from a snapshot, reopened a restarted follower at its "
              f"peers' epoch after an exact merge, "
              f"and retrained every replica onto one converged cut, "
              f"training shard 0 once ({len(owned)} avails owned by "
              f"shard 0)")
    finally:
        for process, _ in servers:
            if process.poll() is None:
                process.kill()


def run_ingest_flow(server_bin, bundle_v1, work):
    """Streaming-ingestion mode: boots domd_serve with an ingest log and a
    retrain root, streams a new availability (plus its RCCs) over the wire,
    watches `freshness` flip to stale, retrains from a pinned snapshot, and
    checks the hot-swapped bundle answers with the new version — including
    a prediction for the avail that only ever existed as a mutation
    stream."""
    log_path = work / "ingest.log"
    retrain_root = work / "retrain"
    server, port = start_server(
        server_bin, bundle_v1,
        ("--ingest-log", str(log_path), "--retrain-root", str(retrain_root),
         "--merge-threshold", "64"))
    try:
        with connect_with_retry(port) as sock:
            stream = sock.makefile("rw")
            rpc = make_rpc(stream)

            probe_health(rpc, "v1")

            # A freshly booted store exposes exactly the bundle's fleet, so
            # the bundle cannot be stale relative to it.
            fresh = rpc({"cmd": "freshness"})
            expect(fresh.get("ok") and fresh.get("stale") is False and
                   fresh.get("bundle_version") == "v1" and
                   fresh.get("bundle_epoch") == fresh.get("store_epoch") and
                   fresh.get("pending_mutations") == 0,
                   f"bad initial freshness: {fresh}")

            baseline = rpc({"avail_id": 3, "t_star": 60})
            expect(baseline.get("ok") and
                   baseline.get("bundle_version") == "v1",
                   f"bad baseline predict: {baseline}")

            # Stream a closed availability the fleet has never seen (the
            # generated fleet has avails 1..40) together with its RCCs —
            # closed with a real delay, so the retrain gains a training row.
            ingest = rpc({
                "cmd": "ingest",
                "avails": [{
                    "id": 41, "ship_id": 9001, "status": "closed",
                    "planned_start": "2023-01-05",
                    "planned_end": "2023-04-05",
                    "actual_start": "2023-01-08",
                    "actual_end": "2023-04-25",
                    "ship_class": 2, "rmc_id": 1, "ship_age_years": 17.5,
                    "avail_type": 0, "homeport": 2, "prior_avail_count": 3,
                    "contract_value_musd": 30.0, "crew_size": 250,
                }],
                "rccs": [
                    {"id": 900001, "avail_id": 41, "type": "G",
                     "swlin": "434-11-001", "creation_date": "2023-01-20",
                     "settled_date": "2023-02-10",
                     "settled_amount": 125000.0},
                    {"id": 900002, "avail_id": 41, "type": "N",
                     "swlin": "234-01-002", "creation_date": "2023-02-15",
                     "settled_date": "2023-03-20",
                     "settled_amount": 40000.0},
                    {"id": 900003, "avail_id": 41, "type": "G",
                     "swlin": "511-02-003", "creation_date": "2023-03-10"},
                ],
            })
            expect(ingest.get("ok") and ingest.get("appended") == 4 and
                   ingest.get("store_epoch") != fresh.get("store_epoch"),
                   f"bad ingest response: {ingest}")

            # A malformed mutation is rejected at the wire without touching
            # the durable log.
            rejected = rpc({"cmd": "ingest", "rccs": [
                {"id": 900004, "type": "G", "swlin": "434-11-001",
                 "creation_date": "2023-04-01"}]})
            expect(not rejected.get("ok") and
                   rejected.get("code") == "INVALID_ARGUMENT",
                   f"avail-less RCC not rejected: {rejected}")

            # The store moved; the bundle did not: freshness flips.
            stale = rpc({"cmd": "freshness"})
            expect(stale.get("ok") and stale.get("stale") is True and
                   stale.get("bundle_epoch") != stale.get("store_epoch") and
                   stale.get("appended") == 4,
                   f"freshness did not flip to stale: {stale}")

            # Retrain from a pinned snapshot and hot-swap the result.
            retrain = rpc({"cmd": "retrain"})
            expect(retrain.get("ok") and
                   retrain.get("bundle_version") not in (None, "v1") and
                   retrain.get("bundle_epoch") == stale.get("store_epoch")
                   and retrain.get("trained_avails", 0) >= 30,
                   f"bad retrain response: {retrain}")
            version = retrain["bundle_version"]

            # The new bundle serves — and it knows the streamed avail,
            # which only ever arrived as mutations over this socket.
            swapped = rpc({"avail_id": 3, "t_star": 60})
            expect(swapped.get("ok") and
                   swapped.get("bundle_version") == version,
                   f"post-retrain predict not on {version}: {swapped}")
            streamed = rpc({"avail_id": 41, "t_star": 30})
            expect(streamed.get("ok") and
                   streamed.get("bundle_version") == version and
                   streamed.get("num_steps", 0) >= 1,
                   f"streamed avail not predictable after retrain: "
                   f"{streamed}")

            # Caught up: the bundle's epoch equals the store's again.
            caught_up = rpc({"cmd": "freshness"})
            expect(caught_up.get("ok") and
                   caught_up.get("stale") is False and
                   caught_up.get("bundle_version") == version and
                   caught_up.get("bundle_epoch") ==
                   caught_up.get("store_epoch"),
                   f"freshness still stale after retrain: {caught_up}")

            stats = rpc({"cmd": "stats"})
            counters = stats.get("stats", {})
            expect(stats.get("ok") and counters.get("swaps", 0) >= 1 and
                   counters.get("swap_failures") == 0,
                   f"retrain swap not counted: {stats}")

            done = rpc({"cmd": "shutdown"})
            expect(done.get("ok") and done.get("shutting_down"),
                   f"bad shutdown response: {done}")

        expect(server.wait(timeout=30) == 0, "server exited non-zero")
        expect(log_path.exists(), "ingest log never written")
        expect((retrain_root / version).is_dir(),
               f"retrained bundle {version} not on disk")
        print(f"serve_smoke: ingest loop appended 4 mutations, retrained "
              f"{version} from the pinned snapshot, and caught freshness "
              f"back up")
    finally:
        if server.poll() is None:
            server.kill()


def pop_flag_value(args, name):
    """Removes `name VALUE` from args, returning VALUE or None."""
    if name not in args:
        return None
    where = args.index(name)
    expect(where + 1 < len(args), f"{name} needs a value")
    value = args[where + 1]
    del args[where:where + 2]
    return value


def main():
    args = [a for a in sys.argv[1:]]
    inject_faults = "--inject-faults" in args
    args = [a for a in args if a != "--inject-faults"]
    ingest = "--ingest" in args
    args = [a for a in args if a != "--ingest"]
    connections = pop_flag_value(args, "--connections")
    target_rps = pop_flag_value(args, "--target-rps")
    cluster = pop_flag_value(args, "--cluster")
    if len(args) != 1:
        fail(__doc__.strip())
    build = Path(args[0])
    server_bin = build / "tools" / "domd_serve"
    expect(server_bin.exists(), f"missing {server_bin}")

    work = Path(tempfile.mkdtemp(prefix="domd_serve_smoke_"))
    bundle_v1, bundle_v2 = train_bundles(build, work)

    if cluster is not None and ingest:
        run_replicated_cluster_flow(build, bundle_v1, work, int(cluster))
        print("serve_smoke: PASS (replicated cluster)")
    elif cluster is not None:
        run_cluster_flow(build, bundle_v1, bundle_v2, work, int(cluster))
        print("serve_smoke: PASS (cluster)")
    elif connections is not None or target_rps is not None:
        expect(connections is not None and target_rps is not None,
               "--connections and --target-rps go together")
        run_open_loop(server_bin, bundle_v1, int(connections),
                      float(target_rps))
    elif ingest:
        run_ingest_flow(server_bin, bundle_v1, work)
        print("serve_smoke: PASS (ingest)")
    elif inject_faults:
        run_fault_flow(server_bin, bundle_v1, bundle_v2, work)
        print("serve_smoke: PASS (fault injection)")
    else:
        check_bad_flags_rejected(build, bundle_v1, work)
        run_normal_flow(server_bin, bundle_v1, bundle_v2)
        print("serve_smoke: PASS")


if __name__ == "__main__":
    main()
