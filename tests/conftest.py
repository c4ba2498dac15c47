from __future__ import annotations

import json
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from infoseek.dataset import CityRecord, bundled_dataset_path, load_dataset
from infoseek.taxonomy import HypothesisGraph, build_graph


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance scoreboard collected during this run, if any."""
    from helpers import ACCEPTANCE_RESULTS

    if not ACCEPTANCE_RESULTS:
        return
    seen = {number: (status, label) for number, status, label in ACCEPTANCE_RESULTS}
    terminalreporter.section("acceptance criteria")
    for number in sorted(seen):
        status, label = seen[number]
        terminalreporter.write_line(f"[ACCEPTANCE {number}] {status} — {label}")
    for number in sorted(set(range(1, 11)) - set(seen)):
        terminalreporter.write_line(f"[ACCEPTANCE {number}] NOT RUN")


class RecordFactory:
    """Builds consistent CityRecords for small synthetic taxonomies.

    Ancestor ids are assigned on first use of a name (states scoped by
    country so same-named states in different countries stay distinct).
    """

    def __init__(self) -> None:
        self._ids: dict[str, dict[object, int]] = {
            "state": {},
            "country": {},
            "region": {},
            "subregion": {},
        }
        self._next_city = 0

    def _id(self, kind: str, key: object) -> int:
        table = self._ids[kind]
        return table.setdefault(key, len(table) + 1)

    def record(
        self,
        city: str,
        state: str,
        country: str,
        subregion: str,
        region: str,
        population: int | None = None,
        city_id: int | None = None,
    ) -> CityRecord:
        self._next_city += 1
        return CityRecord(
            city_id=city_id if city_id is not None else self._next_city,
            city_name=city,
            state_id=self._id("state", (country, state)),
            state_name=state,
            country_id=self._id("country", country),
            country_name=country,
            region_id=self._id("region", region),
            region_name=region,
            subregion_id=self._id("subregion", subregion),
            subregion_name=subregion,
            population_2025=population,
        )


@pytest.fixture
def factory() -> RecordFactory:
    return RecordFactory()


@pytest.fixture(scope="session")
def dataset_records():
    records, _ = load_dataset(bundled_dataset_path())
    return records


@pytest.fixture(scope="session")
def base_graph(dataset_records) -> HypothesisGraph:
    return build_graph(dataset_records)


@pytest.fixture
def graph(base_graph) -> HypothesisGraph:
    """A fresh all-active copy of the bundled 40-city graph."""
    return base_graph.fresh_copy()


@pytest.fixture(scope="session")
def variant_graph() -> HypothesisGraph:
    """Case-variant state names ("Georgia", "GEORGIA", "georgia") and shared
    city names ("Springfield" twice, "Columbus" twice, "Paris"/"PARIS")."""
    f = RecordFactory()

    def usa(city, state):
        return f.record(city, state, "USA", "Northern America", "Americas")

    return build_graph([
        usa("Springfield", "Illinois"), usa("Chicago", "Illinois"),
        usa("Springfield", "Missouri"), usa("Kansas City", "Missouri"),
        usa("Atlanta", "Georgia"), usa("Columbus", "Georgia"),
        usa("Columbus", "Ohio"), usa("PARIS", "Texas"),
        f.record("Tbilisi", "GEORGIA", "Sakartvelo", "Western Asia", "Asia"),
        f.record("Batumi", "GEORGIA", "Sakartvelo", "Western Asia", "Asia"),
        f.record("Kutaisi", "georgia", "Imereti", "Western Asia", "Asia"),
        f.record("Paris", "Ile-de-France", "France", "Western Europe", "Europe"),
    ])


class _ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server naming
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length)
        try:
            parsed = json.loads(raw)
        except ValueError:
            parsed = raw.decode("utf-8", "replace")
        self.server.requests.append(
            {"path": self.path, "body": parsed, "headers": dict(self.headers)}
        )
        if self.server.script:
            status, body = self.server.script.popleft()
        else:
            status, body = 500, "mock script exhausted"
        data = body.encode() if isinstance(body, str) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class MockLLM:
    """A local chat-completion endpoint that plays back a scripted queue.

    Each POST consumes one queued (status, body) pair; bodies may be raw
    strings or JSON-serializable objects. Every request is recorded with
    its parsed body and headers for assertions.
    """

    def __init__(self) -> None:
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        self._server.script = deque()
        self._server.requests = []
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.02), daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}"

    @property
    def requests(self) -> list:
        return self._server.requests

    @staticmethod
    def chat_body(text: str, reasoning: str | None = None) -> dict:
        message: dict = {"role": "assistant", "content": text}
        if reasoning is not None:
            message["reasoning_content"] = reasoning
        return {"choices": [{"message": message}]}

    def enqueue(self, status: int, body) -> None:
        self._server.script.append((status, body))

    def say(self, text: str, reasoning: str | None = None) -> None:
        self.enqueue(200, self.chat_body(text, reasoning))

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


@pytest.fixture
def mock_llm():
    server = MockLLM()
    yield server
    server.close()
