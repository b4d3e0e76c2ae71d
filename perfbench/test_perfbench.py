"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the
repository root. The two end-to-end runs take about two minutes."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import check, gen
from perfbench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digests(out_dir: str) -> dict[str, str]:
    out = {}
    for d, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def test_same_seed_gives_identical_files(tmp_path):
    a = gen.generate(str(tmp_path / "a"), 7, 400, 50)
    b = gen.generate(str(tmp_path / "b"), 7, 400, 50)
    da, db = _digests(str(tmp_path / "a")), _digests(str(tmp_path / "b"))
    assert da == db
    assert len(a["files"]) == gen.N_FILES and set(a["query_files"]) == {"head", "tail"}
    assert a["sizes"] == b["sizes"]


@pytest.mark.parametrize("other", [8, -7])
def test_other_seed_gives_other_files(tmp_path, other):
    gen.generate(str(tmp_path / "a"), 7, 400, 50)
    gen.generate(str(tmp_path / "b"), other, 400, 50)
    da, db = _digests(str(tmp_path / "a")), _digests(str(tmp_path / "b"))
    assert da.keys() == db.keys()
    assert all(da[k] != db[k] for k in da)


def test_vocabulary_words_are_their_own_stems():
    from searchengine_ray.text.stemmer import CachedStemmer
    from searchengine_ray.text.tokenizer import DEFAULT_STOP_WORDS

    words = gen.make_vocabulary(np.random.default_rng(3))
    assert len(set(words)) == gen.VOCAB >= 100_000
    stem = CachedStemmer("english").stem
    assert [w for w in words if stem(w) != w or w in DEFAULT_STOP_WORDS] == []


def test_query_streams_hit_their_term_ranges(tmp_path):
    out = gen.generate(str(tmp_path), 5, 2000, 40)
    vocab = gen.make_vocabulary(np.random.default_rng(5))
    rank = {w: i for i, w in enumerate(vocab)}
    head = gen.read_queries(out["query_files"]["head"])
    tail = gen.read_queries(out["query_files"]["tail"])
    assert [len(q.split()) for q in head[:8]] == [1, 2, 3, 4] * 2
    assert all(rank[w] < gen.HEAD_TERMS for q in head for w in q.split())
    assert all(rank[w] >= gen.TAIL_MIN_RANK for q in tail for w in q.split())


@pytest.fixture(scope="module")
def oracle_case(tmp_path_factory):
    from searchengine_ray.config import IndexConfig

    out = gen.generate(str(tmp_path_factory.mktemp("oracle")), 11, 600, 20)
    queries = gen.read_queries(out["query_files"]["head"])[:6]
    return check.oracle_topk(out["files"], queries, IndexConfig())


def _engine_rows(rows):
    return [(d, q / 10_000) for d, q in rows]


def test_output_check_accepts_the_oracle_itself(oracle_case):
    for rows in oracle_case.values():
        assert rows
        assert check.compare_topk(_engine_rows(rows[:check.TOPK]), rows) is None


def test_output_check_rejects_perturbed_results(oracle_case):
    rows = oracle_case[3]
    top = _engine_rows(rows[:check.TOPK])
    outside = next(d for d in range(10 ** 6) if d not in dict(rows))
    i = next(i for i in range(len(top) - 1) if top[i][1] != top[i + 1][1])
    perturbed = [
        [(outside, top[0][1])] + top[1:],             # wrong document
        [(top[0][0], top[0][1] + 1e-4)] + top[1:],    # score off by 1e-4
        top[:-1],                                     # a row missing
        top[:i] + [top[i + 1], top[i]] + top[i + 2:],  # order broken
    ]
    for got in perturbed:
        assert check.compare_topk(got, rows) is not None, got


def test_output_check_allows_either_rounding_at_a_boundary():
    # 5.15625 rounds to 51562 or 51563 depending on its last bit
    want = [(1, 70432), (2, 51563), (3, 51562)]
    assert check.compare_topk([(1, 7.0432), (2, 5.15625)], want, k=2) is None
    # a tie at the boundary may resolve to either document
    assert check.compare_topk([(1, 7.0432), (3, 5.15625)], want, k=2) is None
    assert check.compare_topk([(1, 7.0432), (2, 5.1564)], want, k=2) is not None


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("root", 0):
        with tr.span("child", 0):
            sum(range(10_000))
        sum(range(10_000))
    root, child = tr.spans
    assert child["parent"] == 0 and root["parent"] is None
    self_ms = tr.self_times_ms()
    assert self_ms["root"][0] == pytest.approx(
        tr.durations_ms("root")[0] - tr.durations_ms("child")[0])
    assert self_ms["child"] == tr.durations_ms("child")


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = _run(["--workload", "serve_head", "--seed", "3", "--seconds", "2",
              "--trace", str(trace)], ROOT)
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "serve_tail", "--seed", "1", "--seconds", "1",
              "--trace", "0"], str(tmp_path))
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
