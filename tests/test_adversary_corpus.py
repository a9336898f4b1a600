"""The adversary corpus (``tests/corpus.py``): every case's stdout and exit
code against its pin, recomputed in process."""

import json
import time

from corpus import PINNED, corpus, outputs


def test_every_adversary_corpus_case_matches_its_pin(tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    cases = corpus()
    start = time.perf_counter()
    got = outputs(str(tmp_path))
    elapsed = time.perf_counter() - start
    assert len(cases) >= 300 and set(got) == set(pinned)
    wrong = [f"{case_id} {argv}" for case_id, argv, _ in cases
             if got[case_id] != pinned[case_id]]
    assert wrong[:10] == [], f"{len(wrong)} of {len(cases)} cases differ"
    assert elapsed <= 3.0
