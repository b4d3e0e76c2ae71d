"""Seeded Zipfian benchmark of the index build and BM25 serving."""
