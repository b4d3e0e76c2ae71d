"""Per-layer probes for the traced run.

Each probe calls one layer's public function from here, inside a span,
and derives the layer's metrics from the spans and counts recorded at
that boundary. The query-path probes replay the serving actor's whole
query history in order (warm lap, check sample, timed queries), so the
posting cache is in the same state for each query as it was when the
actor served it.
"""

from __future__ import annotations

import glob
import os
import statistics
import time

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench.check import TOPK
from perfbench.trace import Tracer

WAND_QUERIES = 100
TOKENIZER_DOCS = 2000


def pct(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    s = sorted(values)
    return float(s[max(0, min(len(s) - 1, int(np.ceil(q / 100 * len(s))) - 1))])


def build_layers(manifest: dict) -> dict:
    m = manifest["metrics"]
    return {
        "build.pipeline.boundaries_s": m["boundaries_sec"],
        "build.extract.tokenize_cpu_s": m["wave_tokenize_cpu_sec"],
        "build.merge.spill_cpu_s": m["wave_spill_cpu_sec"],
        "build.merge.reduce_s": m["reduce_sec"],
        "build.merge.fan_in": m["merge_fan_in"],
        "build.merge.postings": m["tokenize_postings"],
    }


def tokenizer_layer(corpus_file: str, tracer: Tracer) -> dict:
    from searchengine_ray.build.extract import make_tokenizer
    from searchengine_ray.config import IndexConfig

    texts = pq.read_table(corpus_file, columns=["text"])["text"] \
        .to_pylist()[:TOKENIZER_DOCS]
    tok = make_tokenizer(IndexConfig())
    n_tokens = sum(len(tok.tokenize(t)) for t in texts)  # fills the stem memo
    rates = []
    for rep in range(3):
        with tracer.span("text.tokenizer.sample", -1 - rep) as sp:
            for t in texts:
                tok.tokenize(t)
        rates.append(n_tokens / (sp["end"] - sp["start"]))
    return {"text.tokenizer.tokens_per_s": statistics.median(rates)}


def codec_layer(index_dir: str, tracer: Tracer) -> dict:
    from searchengine_ray.state.codec import decode_postings

    n_bytes = n_postings = 0
    seconds = 0.0
    for f in sorted(glob.glob(os.path.join(index_dir, "shards", "*.parquet"))):
        t = pq.read_table(f, columns=["docs_enc", "tfs_enc", "dls_enc"])
        n_bytes += sum(pc.sum(pc.binary_length(t[c])).as_py() or 0
                       for c in t.column_names)
        rows = list(zip(*(t[c].to_pylist() for c in t.column_names)))
        with tracer.span("state.codec.decode_postings", -1) as sp:
            for d, tf, dl in rows:
                n_postings += decode_postings(d, tf, dl)[0].size
        seconds += sp["end"] - sp["start"]
    return {
        "state.codec.bytes_per_posting": n_bytes / n_postings,
        "state.codec.decode_postings_per_s": n_postings / seconds,
    }


def _row_group_ranges(reader) -> dict[str, list[tuple[str, str]]]:
    """shard file → [(min term, max term)] per row group, from footers."""
    out = {}
    for files in reader.files_of_shard.values():
        for f in files:
            meta = pq.read_metadata(f)
            col = meta.schema.names.index("term")
            out[f] = [(meta.row_group(i).column(col).statistics.min,
                       meta.row_group(i).column(col).statistics.max)
                      for i in range(meta.num_row_groups)]
    return out


def query_layers(index_dir: str, history: list[str],
                 served: list[tuple[str, float | None]],
                 tracer: Tracer) -> tuple[dict, int]:
    """Replay ``history`` untimed, then ``served`` in serve order:
    (query, served latency in s) pairs with a latency (the closed-loop
    queries) are decomposed into their layer calls; the others are
    replayed untimed to keep the posting cache in step.

    Returns (metrics, mismatches between the decomposed and the whole
    in-process search)."""
    import pyarrow as pa

    from searchengine_ray.query.engine import Searcher
    from searchengine_ray.query.scorers import top_k

    traced = Searcher(index_dir)      # layer by layer, inside spans
    whole = Searcher(index_dir)       # Searcher.search, timed alone
    for q in history:
        traced.search(q, TOPK)
        whole.search(q, TOPK)
    ranges = _row_group_ranges(traced.reader)

    hits = terms = 0
    rg_per_miss = []
    postings_per_result = []
    whole_ms = []
    overhead_ms = []
    mismatches = 0
    timed = [q for q, s in served if s is not None]
    for i, (q, served_s) in enumerate(served):
        if served_s is None:
            traced.search(q, TOPK)
            whole.search(q, TOPK)
            continue
        with tracer.span("query.engine.search", i):
            with tracer.span("text.tokenizer.tokenize", i):
                tokens = traced.tokenizer.tokenize(q)
            uniq = list(dict.fromkeys(tokens))
            missed = [t for t in uniq if t not in traced.reader.cache]
            with tracer.span("query.postings.fetch", i):
                recs = traced.reader.fetch(tokens)
            with tracer.span("query.scorers.score", i):
                doc_ids, scores = traced.scorer.score(tokens, recs)
                doc_ids, scores = top_k(doc_ids, scores, TOPK)
            with tracer.span("query.engine.urls_of", i):
                urls = traced.urls_of(doc_ids)
            got = pa.table({
                "rank": pa.array(np.arange(1, doc_ids.size + 1, dtype=np.int32)),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "score": pa.array(scores, pa.float64()),
                "url": pa.array(urls, pa.string()),
            })
        terms += len(uniq)
        hits += len(uniq) - len(missed)
        for t in missed:
            rg_per_miss.append(sum(
                lo <= t <= hi
                for f in traced.reader.files_of_shard.get(
                    traced.reader.shard_of(t), [])
                for lo, hi in ranges[f]))
        df = sum(recs[t].df for t in uniq if recs.get(t) is not None)
        postings_per_result.append(df / max(1, doc_ids.size))

        t0 = time.perf_counter()
        want = whole.search(q, TOPK, with_urls=True)
        ms = (time.perf_counter() - t0) * 1e3
        whole_ms.append(ms)
        overhead_ms.append(served_s * 1e3 - ms)
        mismatches += not got.equals(want)

    wand = Searcher(index_dir, use_wand=True)
    for q in history:
        wand.search(q, TOPK)
    wand_ms = []
    for q in timed[:WAND_QUERIES]:
        t0 = time.perf_counter()
        wand.search(q, TOPK)
        wand_ms.append((time.perf_counter() - t0) * 1e3)

    traced_ms = tracer.durations_ms("query.engine.search")
    fetch = tracer.durations_ms("query.postings.fetch")
    score = tracer.durations_ms("query.scorers.score")
    self_ms = tracer.self_times_ms()["query.engine.search"]
    return {
        "query.postings.fetch_ms_p50": pct(fetch, 50),
        "query.postings.fetch_ms_p99": pct(fetch, 99),
        "query.postings.cache_hit_frac": hits / terms,
        "query.postings.row_groups_per_miss":
            statistics.fmean(rg_per_miss) if rg_per_miss else 0.0,
        "query.scorers.score_ms_p50": pct(score, 50),
        "query.scorers.score_ms_p99": pct(score, 99),
        "query.scorers.postings_per_result": statistics.fmean(postings_per_result),
        "query.engine.urls_ms_p50": pct(tracer.durations_ms("query.engine.urls_of"), 50),
        "query.engine.self_ms_p50": pct(self_ms, 50),
        "query.engine.search_ms_p50": pct(whole_ms, 50),
        "query.serving.overhead_ms_p50": pct(overhead_ms, 50),
        "query.wand.search_ms_p50": pct(wand_ms, 50),
        "bench.trace_overhead_frac": sum(traced_ms) / sum(whole_ms) - 1.0,
    }, mismatches
