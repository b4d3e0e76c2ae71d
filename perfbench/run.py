"""Seeded Zipfian benchmark: cold index builds, then BM25 top-10 serving
from a live one-actor ``ServingPool``.

    python3 perfbench/run.py --workload serve_head --seed 1 --seconds 16 --trace 0

One run, on one seeded corpus (``gen.py``):

1. The run pins itself to one CPU; Ray starts there with ``num_cpus=1``.
2. ``BUILDS`` cold ``build_index`` calls, each into an empty directory.
   The first also starts Ray Data's worker; the median time is reported
   and the last index is served.
3. ``POOL_SETUPS`` times: spawn ``ServingPool(size=1, with_urls=True)``,
   which opens the index in the actor, and serve an untimed warm lap.
   ``setup_s`` is Ray's start plus the median of these.
4. Output check: the served top-10 of a fixed query sample against the
   duckdb BM25 oracle.
5. ``SETTLE_S`` of untimed back-to-back queries, then ``SEGMENTS``
   times, so both loops sample the whole run: a closed loop
   (one client, back-to-back single-query ``ServingPool.search`` calls)
   for a quarter of the segment, then an open loop for the rest, one
   query due every ``1/rate`` s. Each open-loop latency runs from the
   moment the query was due. The client is one thread and the pool one
   sequential actor, so a query sent late waits exactly as long as it
   would have waited in the actor's queue.
6. Every served result is compared with the in-process ``Searcher``.

``--trace 1`` adds the per-layer probes of ``layers.py`` and prints the
per-layer metrics instead of the end-to-end ones. The last line of
standard output is the JSON result; the exit code is 1 when any output
check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N_DOCS = 6_000
N_QUERIES = 8_000
# a build takes ~2 s, mostly Ray Data scheduling, which varies run to run
BUILDS = 5
POOL_SETUPS = 3
CHECK_QUERIES = 20
CLOSED_SHARE = 0.25
# untimed back-to-back queries right before timing: the first second
# after the oracle check serves a few times more slow queries than later
SETTLE_S = 1.0
SEGMENTS = 4
# stream, untimed warm-lap queries, open-loop offered rate (queries/s,
# about a third of what one actor sustains on one core, so latency is
# mostly service time rather than queueing)
WORKLOADS = {
    "serve_head": {"stream": "head", "warm": 400, "rate": 60.0},
    "serve_tail": {"stream": "tail", "warm": 60, "rate": 10.0},
}
# AF_UNIX socket paths under the Ray temp dir are capped at 107 bytes;
# Ray appends up to 64 of its own
RAY_TEMP_MAX = 40
OBJECT_STORE_BYTES = 256 * 2 ** 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(spec: dict, values: dict, trace: bool, attempted: int,
                failed: int) -> str:
    """The final JSON line; refuses metric names that differ from
    BENCHMARK.json."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in metrics]
    if sorted(values) != sorted(names):
        raise ValueError(f"metric names {sorted(values)} != {sorted(names)}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    })


def info(*parts) -> None:
    print(*parts, flush=True)


def tree_bytes(path: str) -> int:
    return sum(os.lstat(os.path.join(d, f)).st_size
               for d, _, files in os.walk(path) for f in files)


def actor_peak_rss_mb(actor) -> float:
    """VmHWM of the actor's process, pid from Ray's GCS actor table
    (``ray.util.state`` needs the dashboard, which is not started)."""
    import ray._private.state

    pid = ray._private.state.actors(actor_id=actor._actor_id.hex())["Pid"]
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def ray_temp_dir(work_root: str) -> str:
    """This run's own Ray temp dir under ``work_root``, spelled short
    enough for Ray's sockets: when the checkout path is too long, through
    this process's ``/proc/<pid>/cwd`` link (cwd is ROOT; Ray's processes
    end before this one)."""
    temp = os.path.join(work_root, f"r{os.getpid()}")
    if len(temp) <= RAY_TEMP_MAX:
        return temp
    assert os.path.samefile(os.getcwd(), ROOT)
    return os.path.join(f"/proc/{os.getpid()}/cwd",
                        os.path.relpath(temp, ROOT))


def start_ray(work_root: str) -> None:
    import ray

    # a small fixed object store fits /dev/shm on any host and does not
    # scale with the host's memory (the corpus is a few MB)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=ray_temp_dir(work_root))
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def serve_loop(pool, stream, seconds: float, rate: float | None, span):
    """Single-query ``pool.search`` calls for ``seconds``: back to back
    when ``rate`` is None, else one due every ``1/rate`` s.

    → (records [(query id, query, table, latency s)], generator lags s,
    elapsed s)."""
    records, lags = [], []
    start = time.perf_counter()
    if rate is None:
        while time.perf_counter() - start < seconds:
            qid, q = next(stream)
            t0 = time.perf_counter()
            with span("query.serving.search", qid):
                tbl = pool.search([(qid, q)])
            records.append((qid, q, tbl, time.perf_counter() - t0))
        return records, lags, time.perf_counter() - start
    for i in range(max(1, int(seconds * rate))):
        due = start + i / rate
        while time.perf_counter() < due:
            pass  # spin: an idle vCPU's wake-up latency is the host's, not ours
        lags.append(time.perf_counter() - due)
        qid, q = next(stream)
        with span("query.serving.search", qid):
            tbl = pool.search([(qid, q)])
        records.append((qid, q, tbl, time.perf_counter() - due))
    return records, lags, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    # One core, as sized: this process and every process it starts (Ray
    # inherits the affinity) share the lowest CPU it may use. Round trips
    # between processes on different vCPUs of a VM vary several-fold with
    # host load; on one CPU they are steady.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # Ray workers inherit this environment and import the engine from ROOT
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    # temp files of this process and of Ray's stay inside the checkout
    os.makedirs(os.path.join(work, "tmp"))
    for var in ("TMPDIR", "RAY_TMPDIR"):
        os.environ[var] = os.path.join(work, "tmp")
    try:
        return run(args, wl, work_root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, wl: dict, work_root: str, work: str) -> int:
    try:
        import searchengine_ray
    except ImportError as e:
        print(f"the engine package is not in {ROOT}: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(
            os.path.abspath(searchengine_ray.__file__))) != ROOT:
        print(f"searchengine_ray resolves outside {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    import ray

    from perfbench import check, gen, layers
    from perfbench.trace import Tracer
    from searchengine_ray.build.pipeline import build_index
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.query.engine import Searcher
    from searchengine_ray.query.serving import ServingPool

    tracer = Tracer() if args.trace else None
    nospan = lambda name, req: contextlib.nullcontext()  # noqa: E731
    span = tracer.span if tracer else nospan

    t0 = time.perf_counter()
    data = gen.generate(work, args.seed, N_DOCS, N_QUERIES)
    sizes = data["sizes"]
    queries = gen.read_queries(data["query_files"][wl["stream"]])
    info(f"workload {args.workload} seed {args.seed}: corpus generated in "
         f"{time.perf_counter() - t0:.2f} s; sizes {json.dumps(sizes)}")

    t0 = time.perf_counter()
    start_ray(work_root)
    ray_start_s = time.perf_counter() - t0
    failed = attempted = 0
    try:
        # -- cold builds: each into an empty directory; the first also
        # starts Ray Data's worker and imports, the median is reported ---
        builds = []
        for i in range(BUILDS):
            out = os.path.join(work, f"index{i}")
            t0 = time.perf_counter()
            with span("build.pipeline.build_index", i):
                manifest = build_index(data["files"], out, IndexConfig())
            builds.append((time.perf_counter() - t0, manifest))
            attempted += 1
            if manifest["corpus"]["n_docs"] != N_DOCS:
                failed += 1
                print(f"build {i}: {manifest['corpus']['n_docs']} docs "
                      f"indexed, {N_DOCS} generated", file=sys.stderr)
        index_dir = out
        build_s = [s for s, _ in builds]
        median_manifest = sorted(builds, key=lambda b: b[0])[BUILDS // 2][1]
        index_ratio = tree_bytes(index_dir) / sizes["text_bytes"]

        # -- set-up: pool spawn, index open and warm lap, repeated --------
        warm = queries[:wl["warm"]]
        sample = queries[wl["warm"]:wl["warm"] + CHECK_QUERIES]
        setups, pool = [], None
        for _ in range(POOL_SETUPS):
            if pool is not None:
                pool.shutdown()
            t0 = time.perf_counter()
            pool = ServingPool(index_dir, n=check.TOPK, size=1, with_urls=True)
            pool.search(list(enumerate(warm)))
            setups.append(time.perf_counter() - t0)
        setup_s = ray_start_s + statistics.median(setups)

        # -- output check before timing ------------------------------------
        t0 = time.perf_counter()
        served = pool.search(list(enumerate(sample)))
        oracle = check.oracle_topk(data["files"], sample, IndexConfig())
        got: dict[int, list] = {qid: [] for qid in range(len(sample))}
        for qid, d, s in zip(*(served[c].to_pylist()
                               for c in ("query_id", "doc_id", "score"))):
            got[qid].append((d, s))
        for qid, q in enumerate(sample):
            err = check.compare_topk(got[qid], oracle[qid])
            attempted += 1
            if err:
                failed += 1
                print(f"oracle mismatch on {q!r}: {err}", file=sys.stderr)
        oracle_s = time.perf_counter() - t0

        # -- timed serving: closed and open segments, interleaved ----------
        stream = ((i, queries[i % len(queries)])
                  for i in range(len(warm) + len(sample), 10 ** 9))
        closed, opened, lags, closed_s = [], [], [], 0.0
        # the client's own collector pauses would show up as server latency
        gc.collect()
        gc.disable()
        try:
            settle, _, _ = serve_loop(pool, stream, SETTLE_S, None, nospan)
            for _ in range(SEGMENTS):
                recs, _, elapsed = serve_loop(
                    pool, stream, args.seconds * CLOSED_SHARE / SEGMENTS,
                    None, span)
                closed += recs
                closed_s += elapsed
                recs, seg_lags, _ = serve_loop(
                    pool, stream, args.seconds * (1 - CLOSED_SHARE) / SEGMENTS,
                    wl["rate"], span)
                opened += recs
                lags += seg_lags
        finally:
            gc.enable()
        rss_mb = actor_peak_rss_mb(pool.actors[0])
        pool.shutdown()

        # -- every served result against the in-process Searcher -----------
        t0 = time.perf_counter()
        timed = sorted(closed + opened, key=lambda r: r[0])
        ref = Searcher(index_dir)
        ref.reader.fetch([t for _, q, _, _ in timed
                          for t in ref.tokenizer.tokenize(q)])
        expect: dict[str, list] = {}
        for _, q, tbl, _ in timed:
            if q not in expect:
                expect[q] = check.result_rows(ref.search(q, check.TOPK))
            attempted += 1
            if check.result_rows(tbl) != expect[q]:
                failed += 1
                print(f"served result differs from Searcher.search on {q!r}",
                      file=sys.stderr)
        recheck_s = time.perf_counter() - t0

        lat_ms = [s * 1e3 for _, _, _, s in opened]
        values = {
            "setup_s": setup_s,
            "build_docs_per_s": N_DOCS / statistics.median(build_s),
            "index_bytes_per_text_byte": index_ratio,
            "qps": len(closed) / closed_s,
            "p50_ms": layers.pct(lat_ms, 50),
            "p90_ms": layers.pct(lat_ms, 90),
            "serve_rss_mb": rss_mb,
        }
        info(f"setup: ray start {ray_start_s:.3f} s, pool set-ups "
             f"{[round(s, 3) for s in setups]} s")
        info(f"builds: {[round(s, 3) for s in build_s]} s")
        info(f"checks: oracle {oracle_s:.2f} s, served results {recheck_s:.2f} s")
        info(f"closed loop: {len(closed)} queries in {closed_s:.2f} s; open "
             f"loop: {len(opened)} queries at {wl['rate']}/s, "
             f"{len(opened) - int(0.9 * len(opened))} above p90; latency "
             "percentiles (50, 75, 90, 95, 99) "
             f"{[round(layers.pct(lat_ms, q), 2) for q in (50, 75, 90, 95, 99)]} ms")

        if args.trace:
            values = layers.build_layers(median_manifest)
            values |= layers.tokenizer_layer(data["files"][0], tracer)
            values |= layers.codec_layer(index_dir, tracer)
            closed_ids = {qid for qid, _, _, _ in closed}
            qvals, bad = layers.query_layers(
                index_dir, warm + sample + [q for _, q, _, _ in settle],
                [(q, s if qid in closed_ids else None)
                 for qid, q, _, s in timed], tracer)
            values |= qvals
            values["bench.generator_lag_ms_p99"] = layers.pct(
                [s * 1e3 for s in lags], 99)
            attempted += len(closed)
            failed += bad
            parts = layers.pct(tracer.durations_ms("text.tokenizer.tokenize"), 50)
            parts += sum(values[k] for k in (
                "query.postings.fetch_ms_p50", "query.scorers.score_ms_p50",
                "query.engine.urls_ms_p50", "query.engine.self_ms_p50"))
            info(f"layer p50s sum to {parts:.3f} ms; whole Searcher.search "
                 f"p50 {values['query.engine.search_ms_p50']:.3f} ms")
            for name, ms in sorted(tracer.self_times_ms().items()):
                info(f"self time {name}: p50 {layers.pct(ms, 50):.4f} ms "
                     f"over {len(ms)} spans")
            trace_dir = os.path.join(work_root, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    finally:
        ray.shutdown()
        shutil.rmtree(ray_temp_dir(work_root), ignore_errors=True)

    for m in spec["per_layer" if args.trace else "end_to_end"]:
        info(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    info(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} "
         "operations failed)")
    print(result_line(spec, values, bool(args.trace), attempted, failed),
          flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
