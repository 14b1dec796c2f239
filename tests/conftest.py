import json
from pathlib import Path

import pytest

from helpers import Provider
from negcamp.annotate import MockTransport
from negcamp.ingest import gold_label_map, ingest_documents, ingest_gold, ingest_party_meta

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def corpus():
    return ingest_documents(DATA / "corpus.jsonl").corpus


@pytest.fixture(scope="session")
def gold_labels():
    return ingest_gold(DATA / "gold.csv")


@pytest.fixture(scope="session")
def gold_map(gold_labels):
    return gold_label_map(gold_labels)[0]


@pytest.fixture(scope="session")
def party_meta():
    return ingest_party_meta(DATA / "parties.csv")


@pytest.fixture(scope="session")
def mock_map():
    responses = {}
    with (DATA / "mock_responses.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            responses[record["doc_id"]] = record["response"]
    return responses


@pytest.fixture
def mock_transport(mock_map):
    return MockTransport(mock_map)


PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "NO_PROXY", "ALL_PROXY")


@pytest.fixture
def provider(monkeypatch):
    """``provider(*replies)`` starts a loopback ``helpers.Provider``, closed
    after the test. Proxy variables are cleared, so requests reach it
    directly."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    started = []

    def start(*replies):
        started.append(Provider(*replies))
        return started[-1]

    yield start
    for server in started:
        server.close()
