"""The adversary corpus (``tests/corpus.py``): every case's stdout and exit
code against its pin, recomputed in process."""

from corpus import CORPORA, check_corpus


def test_every_adversary_corpus_case_matches_its_pin(tmp_path):
    cases, elapsed = check_corpus(CORPORA["adversary"], str(tmp_path))
    assert len(cases) >= 300
    assert elapsed <= 3.0
