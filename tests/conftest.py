import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from guided_attention.corpus import build_vocab, parse_conllu

FIXTURES = Path(__file__).parent / "fixtures"

@pytest.fixture(scope="session")
def fixture_text() -> str:
    return (FIXTURES / "twenty.conllu").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def twenty(fixture_text):
    sentences = parse_conllu(fixture_text)
    assert len(sentences) == 20
    return sentences


@pytest.fixture(scope="session")
def twenty_vocab(twenty):
    return build_vocab(twenty)
