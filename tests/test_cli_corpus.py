"""The CLI corpus (``tests/corpus.py``): every ``oracle``, ``fs``,
``canonize``, ``search``, ``verify`` and ``-h`` case's stdout and exit code
against its pin, recomputed in process."""

from corpus import CORPORA, check_corpus


def test_every_cli_corpus_case_matches_its_pin(tmp_path):
    cases, elapsed = check_corpus(CORPORA["cli"], str(tmp_path))
    assert len(cases) >= 600
    assert {case.argv[0] for case in cases} >= {
        "oracle", "fs", "canonize", "search", "verify", "-h"}
    assert elapsed <= 5.0
