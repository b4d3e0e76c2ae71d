"""Seeded Zipfian corpus and query-stream generator.

Everything the engine sees in a benchmark run comes from here and from
the ``--seed`` argument alone: a synthetic vocabulary, parquet corpus
files and one query file per serve workload. The same seed gives
byte-identical files; no other input is read.

Corpus shape:

- vocabulary of ``VOCAB`` synthetic words, rank r drawn with probability
  proportional to ``r ** -ZIPF_S``. Words are four consonant-vowel
  syllables and a final consonant that no English Snowball rule strips,
  so every word is its own stem, 9 letters long and no stop word: the
  engine's tokenizer and the SQL oracle see the same terms, and text
  bytes per token do not depend on the seed;
- lognormal document lengths (median ``DL_MEDIAN`` tokens);
- unique urls;
- ``N_FILES`` parquet files with ``ROW_GROUPS_PER_FILE`` row groups each,
  and a ``doc_id`` column equal to the id the build assigns (global row
  number in sorted-file order), so the oracle can join on it.

Query streams (one query per line, terms space-separated):

- ``head``: 1-4 distinct terms (cycling 1, 2, 3, 4) drawn Zipf-weighted from the ``HEAD_TERMS``
  most frequent ranks. Long posting lists; after a warm lap the distinct
  term set fits the searcher's 10,000-entry posting cache.
- ``tail``: 1-4 distinct terms drawn uniformly from the corpus terms of
  rank ``TAIL_MIN_RANK`` and beyond. Short lists; the candidate set is
  many times the posting cache, so nearly every term is a cache miss.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 120_000
ZIPF_S = 1.1
DL_MEDIAN = 60
DL_SIGMA = 0.6
DL_MIN, DL_MAX = 5, 600
N_FILES = 4
ROW_GROUPS_PER_FILE = 4
HEAD_TERMS = 200
TAIL_MIN_RANK = 1_000
CACHE_SIZE = 10_000  # Searcher's default posting-cache size

_CONS = np.array(list("bcdfghjklmnprstvwz"))
_VOWELS = np.array(list("aeiou"))
# final letters that end no English Snowball suffix rule (no s, d, l, r,
# c, y): a word <syllables><final> is a fixed point of the stemmer
_FINALS = np.array(list("bfghjkmnptvwz"))


def make_vocabulary(rng: np.random.Generator, size: int = VOCAB) -> list[str]:
    """``size`` distinct synthetic words in rank order (index 0 is the
    most frequent)."""
    words: dict[str, None] = {}
    while len(words) < size:
        n = 2 * (size - len(words))
        cons = _CONS[rng.integers(0, _CONS.size, (n, 4))]
        vows = _VOWELS[rng.integers(0, _VOWELS.size, (n, 4))]
        fins = _FINALS[rng.integers(0, _FINALS.size, n)]
        pairs = np.char.add(cons, vows)
        for i in range(n):
            w = "".join(pairs[i]) + fins[i]
            words.setdefault(w)
            if len(words) == size:
                break
    return list(words)


def zipf_cdf(size: int, s: float = ZIPF_S) -> np.ndarray:
    p = np.arange(1, size + 1, dtype=np.float64) ** -s
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def generate(out_dir: str, seed: int, n_docs: int, n_queries: int) -> dict:
    """Write the corpus and both query streams under ``out_dir``.

    Returns the sizes record (also written as ``sizes.json``)."""
    # numpy takes non-negative seeds only; any integer is a valid --seed
    rng = np.random.default_rng(seed % 2 ** 64)
    vocab = make_vocabulary(rng)
    words = np.asarray(vocab, dtype=object)
    dls = np.clip(
        np.rint(rng.lognormal(np.log(DL_MEDIAN), DL_SIGMA, n_docs)),
        DL_MIN, DL_MAX).astype(np.int64)
    ranks = np.searchsorted(zipf_cdf(len(vocab)), rng.random(int(dls.sum())),
                            side="right")
    offs = np.concatenate(([0], np.cumsum(dls)))
    texts = [" ".join(words[ranks[offs[i]:offs[i + 1]]]) for i in range(n_docs)]
    urls = [f"https://s{seed}.bench.test/doc/{i:07d}" for i in range(n_docs)]

    corpus_dir = os.path.join(out_dir, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    per_file = -(-n_docs // N_FILES)
    rows_per_group = -(-per_file // ROW_GROUPS_PER_FILE)
    files = []
    for f in range(N_FILES):
        lo, hi = f * per_file, min(n_docs, (f + 1) * per_file)
        path = os.path.join(corpus_dir, f"part-{f:02d}.parquet")
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(lo, hi), pa.int64()),
            "url": pa.array(urls[lo:hi], pa.string()),
            "text": pa.array(texts[lo:hi], pa.string()),
        }), path, row_group_size=rows_per_group)
        files.append(path)

    # document frequency per rank, from the generated tokens
    doc_of = np.repeat(np.arange(n_docs), dls)
    pairs = np.unique(ranks * n_docs + doc_of)
    df = np.bincount(pairs // n_docs, minlength=len(vocab))
    present = np.flatnonzero(df)

    head_cdf = zipf_cdf(HEAD_TERMS)
    tail_pool = present[present >= TAIL_MIN_RANK]
    streams = {
        "head": _queries(rng, n_queries,
                         lambda k: np.searchsorted(head_cdf, rng.random(k),
                                                   side="right")),
        "tail": _queries(rng, n_queries,
                         lambda k: tail_pool[rng.integers(0, tail_pool.size, k)]),
    }
    query_files = {}
    for name, qs in streams.items():
        path = os.path.join(out_dir, f"queries_{name}.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(" ".join(vocab[r] for r in q) for q in qs) + "\n")
        query_files[name] = path

    text_bytes = sum(len(t.encode()) for t in texts)
    sizes = {
        "seed": seed,
        "docs": n_docs,
        "files": N_FILES,
        "row_groups_per_file": ROW_GROUPS_PER_FILE,
        "tokens": int(dls.sum()),
        "text_bytes": text_bytes,
        "vocabulary": len(vocab),
        "distinct_terms": int(present.size),
        "head_terms": HEAD_TERMS,
        "head_min_df": int(df[:HEAD_TERMS].min()),
        "tail_candidate_terms": int(tail_pool.size),
        "tail_max_df": int(df[tail_pool].max()),
        "cache_size": CACHE_SIZE,
        "head_working_set_vs_cache": HEAD_TERMS / CACHE_SIZE,
        "tail_working_set_vs_cache": tail_pool.size / CACHE_SIZE,
        "queries_per_stream": n_queries,
    }
    with open(os.path.join(out_dir, "sizes.json"), "w") as fh:
        json.dump(sizes, fh, indent=1, sort_keys=True)
    return {"files": files, "query_files": query_files, "sizes": sizes}


def _queries(rng: np.random.Generator, n: int, draw) -> list[list[int]]:
    """``n`` queries of distinct term ranks from ``draw(k)``; query i has
    ``i % 4 + 1`` terms, so the mix of query sizes is the same for every
    seed."""
    out = []
    for k in np.arange(n) % 4 + 1:
        q: list[int] = []
        while len(q) < k:
            for r in draw(k):
                if len(q) < k and int(r) not in q:
                    q.append(int(r))
        out.append(q)
    return out


def read_queries(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()
