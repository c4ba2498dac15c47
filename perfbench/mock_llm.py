"""Local chat-completions endpoint that plays seeker, oracle and pruner.

Run as `python3 mock_llm.py CSV --delay-ms D`. It binds 127.0.0.1 on a free
port, prints the port on stdout and serves until its stdin closes, so it
never outlives the process that started it. It speaks HTTP/1.1 with
keep-alive and TCP_NODELAY (no delayed-ACK stall for a client that reuses
connections), sleeps a fixed delay per reply, reports its own service time
in the `X-Mock-Service-Ms` header, and counts connections and requests at
GET /stats.

Each role is played from the prompt plus the mock's own copy of the city
table, without importing infoseek:

* seeker: asks the most even halving question over the candidates it can
  see (the [ACTIVE] lines under fo, the Q/A history under po). With the
  "/think" marker in the system prompt it lists candidate questions in
  `reasoning_content` under po and in an inline <think> block under fo;
* oracle: answers truthfully from the target record in the prompt;
* pruner: prunes the [ACTIVE] cities the Q/A rules out.
"""

from __future__ import annotations

import argparse
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from reference import LEVELS, Pred, Table, eliminated, halving_menu, load_table, parse_question

THINK_MARKER = "/think"
_CITY_LINE = re.compile(r"^(\s*)(\w+):(\d+) (.*?)(?: \[(ACTIVE|PRUNED)\])?$")
_HISTORY = re.compile(r"^Q\d+: (.*)\nA\d+: (.*)$", re.MULTILINE)
_RECORD = re.compile(r"^- (\w+): (.*) \(\w+:\d+\)$", re.MULTILINE)


def seeker_move(active: set[int], table: Table) -> tuple[Pred, list[Pred]]:
    """The halving question to ask, and the runners-up it weighed."""
    menu = [p for *_, p in halving_menu(active, table)]
    return menu[0], menu[1:3]


def plan(table: Table, target: int) -> list[str]:
    """The questions the mock seeker asks against a truthful oracle and pruner."""
    active, asked = set(table), []
    while True:
        question, _ = seeker_move(active, table)
        asked.append(question.render())
        yes = question.matches(table[target])
        if question.guess and yes:
            return asked
        active -= eliminated(question, yes, active, table)


def _replay_history(user: str, table: Table) -> set[int]:
    active = set(table)
    for question, answer in _HISTORY.findall(user):
        pred = parse_question(question)
        if pred is not None and answer in ("Yes", "No"):
            active -= eliminated(pred, answer == "Yes", active, table)
    return active


def _graph_cities(text: str) -> dict[int, tuple[tuple[str, ...], bool]]:
    """city id -> (names at every level, active) from the indented graph text."""
    path: list[str] = []
    cities = {}
    for line in text.splitlines():
        m = _CITY_LINE.match(line)
        if m is None:
            continue
        indent, level, node_id, name, tag = m.groups()
        depth = len(indent) // 2
        path[depth:] = [name]
        if level == "city":
            cities[int(node_id)] = (tuple(path), tag == "ACTIVE")
    return cities


def _seeker(user: str, table: Table, think: bool) -> dict:
    fo = user.startswith("Current knowledge graph state:")
    if fo:
        active = {c for c, (_, on) in _graph_cities(user).items() if on}
    else:
        active = _replay_history(user, table)
    question, others = seeker_move(active, table)
    message = {"role": "assistant", "content": question.render()}
    if think:
        lines = [f'- "{p.render()}"' for p in (question, *others)]
        trace = (f"{len(active)} candidates remain. Options:\n" + "\n".join(lines)
                 + "\n- Does the target city lie on a coast?\nThe first split is the most even.")
        if fo:
            message["content"] = f"<think>{trace}</think>\n{question.render()}"
        else:
            message["reasoning_content"] = trace
    return message


def _oracle(user: str) -> dict:
    record = dict(_RECORD.findall(user))
    names = tuple(record.get(level, "") for level in LEVELS)
    question = user.split("Seeker's question: ", 1)[-1].split("\n", 1)[0]
    pred = parse_question(question)
    if pred is None:
        reply = {"rationale": "Not a question I can evaluate.",
                 "answer": "Please ask a yes/no question.", "game_over": False}
    else:
        yes = pred.matches(names)
        reply = {"rationale": "Checked against the target record.",
                 "answer": "Yes" if yes else "No", "game_over": pred.guess and yes}
    return {"role": "assistant", "content": json.dumps(reply)}


def _pruner(user: str) -> dict:
    cities = _graph_cities(user.split("Last exchange:", 1)[0])
    question = user.split("\nQ: ", 1)[-1].split("\n", 1)[0]
    answer = user.split("\nA: ", 1)[-1].split("\n", 1)[0].strip()
    pred = parse_question(question)
    pruned: list[str] = []
    if pred is not None and answer in ("Yes", "No"):
        pruned = [
            f"city:{c}" for c, (names, on) in sorted(cities.items())
            if on and pred.matches(names) != (answer == "Yes")
        ]
    reply = {"rationale": f"Pruned {len(pruned)} cities.", "pruned_ids": pruned}
    return {"role": "assistant", "content": json.dumps(reply)}


class MockServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: Table, delay_s: float) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.table = table
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: MockServer

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.counted = False

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, body: dict, service_s: float | None = None) -> None:
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if service_s is not None:
            self.send_header("X-Mock-Service-Ms", f"{service_s * 1e3:.4f}")
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        with self.server.lock:
            stats = {"connections": self.server.connections, "requests": self.server.requests}
        self._send(stats)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        start = time.perf_counter()
        with self.server.lock:
            self.server.requests += 1
            if not self.counted:
                self.server.connections += 1
                self.counted = True
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length") or 0)))
        system, user = (m["content"] for m in body["messages"][:2])
        if system.startswith("# SeekerAgent"):
            message = _seeker(user, self.server.table, system.rstrip().endswith(THINK_MARKER))
        elif system.startswith("# OracleAgent"):
            message = _oracle(user)
        else:
            message = _pruner(user)
        time.sleep(self.server.delay_s)
        reply = {
            "object": "chat.completion",
            "model": body.get("model"),
            "choices": [{"index": 0, "message": message, "finish_reason": "stop"}],
        }
        self._send(reply, time.perf_counter() - start)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("csv")
    ap.add_argument("--delay-ms", type=float, required=True)
    args = ap.parse_args()
    server = MockServer(load_table(args.csv), args.delay_ms / 1e3)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # returns when the parent closes the pipe or exits
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
