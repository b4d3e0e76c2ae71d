"""Output checks: engine top-k against the duckdb BM25 oracle, and the
served results against the in-process ``Searcher``.

The oracle gives ``round(score * 10**4)`` (its ``score_q4``); the engine
gives the score itself. Both quantize idf and the length ratio to three
decimals, so some scores fall exactly on a rounding boundary (5.15625):
there duckdb rounds away from zero, Python to even, and a multi-term
score summed in another order may differ in its last bit. An engine
score therefore matches an oracle ``score_q4`` when it lies within half
a unit of it, plus ``Q4_SLACK``. Documents of equal score are
ordered by doc id, but a last-bit difference can reorder them, so the
check allows any choice among documents that tie with the lowest score
in the top-k, and nothing else.
"""

from __future__ import annotations

import os
from unittest import mock

TOPK = 10
ORACLE_DEPTH = TOPK + 40
# in score_q4 units: far above last-bit differences (~1e-10), far below
# a real scoring error (1 unit)
Q4_SLACK = 1e-3


def oracle_topk(corpus_files: list[str], queries: list[str], cfg,
                depth: int = ORACLE_DEPTH) -> dict[int, list[tuple[int, int]]]:
    """query index → oracle rows [(doc_id, score_q4)] in rank order, to
    ``depth`` rows, from ``oracles.sql_search_bm25`` over the corpus."""
    import duckdb

    from searchengine_ray import oracles
    from searchengine_ray.pipelines.analysis import PUNCT_CLASS_SQL
    from searchengine_ray.text.tokenizer import DEFAULT_STOP_WORDS

    files = ", ".join("'" + os.path.abspath(f).replace("'", "''") + "'"
                      for f in sorted(corpus_files))
    # every generated word is its own stem (gen.py), so the oracle's
    # stem map, which it builds from another corpus, is empty here
    with mock.patch.object(oracles, "_stem_map", lambda language: {}):
        sql = oracles.sql_search_bm25(PUNCT_CLASS_SQL, queries, cfg,
                                      DEFAULT_STOP_WORDS, depth)
    con = duckdb.connect()
    try:
        con.execute("SET threads = 1")
        con.execute("CREATE VIEW documents AS SELECT doc_id, text "
                    f"FROM read_parquet([{files}])")
        rows = con.execute(
            f"SELECT query_id, doc_id, score_q4 FROM ({sql}) t "
            "ORDER BY query_id, rank").fetchall()
    finally:
        con.close()
    out: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(queries))}
    for qid, doc, q4 in rows:
        out[qid].append((int(doc), int(q4)))
    return out


def matches(score: float, q4: int) -> bool:
    """Engine ``score`` rounds to the oracle's ``q4``, up to last-bit
    differences at a rounding boundary."""
    return abs(score * 10_000 - q4) <= 0.5 + Q4_SLACK


def compare_topk(got: list[tuple[int, float]], want: list[tuple[int, int]],
                 k: int = TOPK, depth: int = ORACLE_DEPTH) -> str | None:
    """``got``: engine rows [(doc_id, score)] in engine order; ``want``:
    oracle rows [(doc_id, score_q4)], cut at ``depth`` > ``k``. → None
    when they agree, else what differs."""
    want_sorted = sorted(want, key=lambda r: (-r[1], r[0]))
    if len(got) != min(k, len(want)):
        return f"{len(got)} rows, oracle has {min(k, len(want))}"
    scores = [s for _, s in got]
    if scores != sorted(scores, reverse=True):
        return f"scores not in descending order: {scores}"
    if len({d for d, _ in got}) != len(got):
        return "duplicate doc ids"
    if not got:
        return None
    oracle_q4 = dict(want)
    last = scores[-1]
    # the oracle's depth cut may fall inside the lowest score's tie group
    truncated = len(want) >= depth and matches(last, want_sorted[-1][1])
    for doc, s in got:
        if doc in oracle_q4:
            if not matches(s, oracle_q4[doc]):
                return (f"doc {doc} score {s!r} != oracle score_q4 "
                        f"{oracle_q4[doc]}")
        elif not (truncated and matches(s, want_sorted[-1][1])):
            return f"doc {doc} not in the oracle's result"
    # every oracle document scored above the engine's lowest must be there
    kept = {d for d, _ in got}
    missing = [d for d, q in want if d not in kept
               and q > last * 10_000 + 0.5 + Q4_SLACK]
    if missing:
        return f"oracle docs {sorted(missing)} missing"
    return None


def result_rows(tbl) -> list[tuple]:
    """(rank, doc_id, score, url) rows of one query's result table."""
    cols = [tbl[c].to_pylist() for c in ("rank", "doc_id", "score", "url")]
    return list(zip(*cols))
