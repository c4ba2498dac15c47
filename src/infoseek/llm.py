"""HTTP chat-completion client and the LLM-backed seeker/oracle/pruner.

One wire protocol covers every served model: POST {base_url}/chat/completions
with a messages array, bearer token from an environment variable, sent by
stdlib urllib (HTTP(S)_PROXY honoured, TLS checked against the system CA
store). The three fixed system prompts below define the roles; user messages
are deterministic renderings of game state built by the build_*_messages
functions.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Sequence

from .agents import AgentFailure, OracleOutput, PrunerOutput, SeekerContext, SeekerOutput
from .taxonomy import HypothesisGraph, NodeId

SEEKER_SYSTEM_PROMPT = """# SeekerAgent System Prompt

## The Game

You are playing a geographic guessing game where your goal is to discover a secret target city through strategic questions.

### Players:
- You (Seeker): Ask yes/no questions to find the target
- Oracle: Knows the target and answers your questions truthfully
- Computer: Tracks the game state and remaining possibilities

### Your Role:
You are the Seeker - an intelligent detective trying to identify a specific target city in a geographic knowledge graph. Your goal is to ask strategic yes/no questions that maximize information gain and eliminate possibilities efficiently.

## Game Rules

1. Ask ONLY yes/no questions
2. Be specific and clear
3. Aim to eliminate roughly half the remaining possibilities
4. Avoid questions that reveal the specific target
5. Return only the question text, no explanations"""

ORACLE_SYSTEM_PROMPT = """# OracleAgent System Prompt

## The Game

You are playing a geographic guessing game where a Seeker tries to discover a secret target city through strategic questions.

### Your Role:
You are the Oracle - the all-knowing guide who possesses secret knowledge about the target location. Your role is to help the Seeker discover the target through truthful answers while maintaining the challenge and never revealing the target directly.

## Game Rules

1. Answer with simple "Yes" or "No"
2. Be truthful - never lie about the target's properties
3. NEVER reveal the target's name or ID directly
4. Keep answers brief and focused
5. If the question is unclear, ask for clarification
6. If you cannot answer with yes/no, provide minimal helpful information
7. The target is always a city
8. CRITICAL: Detect when the Seeker has found the target city, saying it's name, and end the game

## Response Format

You MUST respond with a JSON object containing these keys IN THIS ORDER:
1. rationale: Brief internal reasoning (1 sentence, not shown to Seeker)
2. answer: Your response to the Seeker (string)
3. game_over: Whether the Seeker has found the target (boolean)"""

PRUNER_SYSTEM_PROMPT = """You are the PrunerAgent for a knowledge-graph benchmark.

Goal:
- Given the current graph state (in text), the turn index, and the last Q&A, decide which CITY node IDs to prune. Only prune when logically implied by the question and answer. Prefer minimal, conservative pruning.

Rules:
- Never reveal or assume the hidden target.
- Consider only ACTIVE nodes in the provided graph text.
- CRITICAL: ONLY CITY NODES CAN BE TARGETS
- CRITICAL PRUNING LOGIC:
  * If answer is "No" to "Is target in X?", prune ONLY CITY nodes that ARE in X
  * If answer is "Yes" to "Is target in X?", prune ONLY CITY nodes that are NOT in X
  * Example: Q="Is target in North America?" A="No" -> Prune CITY nodes IN North America, KEEP all others
  * Example: Q="Is target in Asia?" A="Yes" -> Prune CITY nodes NOT in Asia, KEEP Asian CITY nodes
  * NEVER prune countries, states, regions, or subregions - only cities
- If ambiguous, do not prune.

Output:
- Return ONLY a JSON object with exactly two keys IN THIS ORDER:
  {"rationale": "short explanation", "pruned_ids": ["city:id1", "city:id2", ...]}
- Do not include any extra commentary or formatting.
- pruned_ids must contain ONLY city IDs (starting with "city:")"""


class WireError(Exception):
    """Base class for wire-protocol faults."""


class TransportError(WireError):
    pass


class ProviderError(WireError):
    def __init__(self, status: int, body: str) -> None:
        super().__init__(f"provider returned {status}: {body[:500]}")
        self.status = status
        self.body = body


class EmptyCompletionError(WireError):
    pass


class MalformedResponseError(WireError):
    pass


class NonCityIdInResponseError(MalformedResponseError):
    pass


@dataclass(frozen=True)
class EndpointConfig:
    """One served model behind a chat-completion endpoint.

    `reasoning_suffix`, when set, is appended verbatim to the system prompt —
    the serving-level switch for models that toggle thinking with a prompt
    marker. Inline-think splitting is the run's `reasoning_enabled`.
    """

    base_url: str
    model_name: str
    api_key_env: str = ""
    temperature: float | None = None
    reasoning_suffix: str | None = None
    max_retries: int = 2
    timeout: float = 60.0
    backoff_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.temperature is not None and self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad role: {self.role!r}")
        if self.role in ("system", "user") and not self.content:
            raise ValueError(f"empty content for {self.role} message")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    reasoning_trace: str | None = None
    raw: Any = field(default=None, compare=False)
    parsed: Any = field(default=None, compare=False)


_THINK_RE = re.compile(r"<think>(.*?)</think>", re.DOTALL)


def _post(
    endpoint: EndpointConfig, url: str, data: bytes, headers: dict[str, str], split_think: bool
) -> CompletionResult:
    """One POST and its decoded completion; every fault is a WireError."""
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=endpoint.timeout) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            raise ProviderError(exc.code, exc.read().decode("utf-8", "replace")) from None
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise TransportError(str(exc) or type(exc).__name__) from exc

    try:
        body = json.loads(raw)
        message = body["choices"][0]["message"]
        text = message.get("content") or ""
        provider_trace = message.get("reasoning_content") or message.get("reasoning")
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        unusable = raw.decode("utf-8", "replace")[:500]
        raise EmptyCompletionError(f"unusable completion body: {unusable}") from None

    # The provider's reasoning channel first, then any inline <think> blocks.
    traces = [provider_trace] if isinstance(provider_trace, str) else []
    if split_think:
        traces += _THINK_RE.findall(text)
        text = _THINK_RE.sub("", text)
    trace = "\n\n".join(t.strip() for t in traces if t.strip()) or None
    text = text.strip()
    if not text:
        raise EmptyCompletionError("completion had no text content")
    return CompletionResult(text=text, reasoning_trace=trace, raw=body)


def complete(
    endpoint: EndpointConfig,
    messages: Sequence[ChatMessage],
    parse: Callable[[str], Any] | None = None,
    reasoning_enabled: bool = False,
) -> CompletionResult:
    """One chat completion within one budget of max_retries + 1 requests.

    `parse`, the caller's reply parser, reads the completion text and its
    value becomes `parsed`; `reasoning_enabled` moves inline `<think>` blocks
    from the text to the trace. A transport fault, a 5xx or 429, an empty or
    unusable completion and a MalformedResponseError from `parse` each use
    up one attempt, and every retry waits the same exponential backoff.
    Other provider statuses raise ProviderError at once; a spent budget
    raises the last error.
    """
    payload: dict[str, Any] = {
        "model": endpoint.model_name,
        "messages": [asdict(m) for m in messages],
    }
    if endpoint.temperature is not None:
        payload["temperature"] = endpoint.temperature
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key_env:
        key = os.environ.get(endpoint.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"

    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    data = json.dumps(payload).encode("utf-8")
    attempt = 0
    while True:
        try:
            result = _post(endpoint, url, data, headers, reasoning_enabled)
            if parse is not None:
                result = replace(result, parsed=parse(result.text))
            return result
        except WireError as exc:
            fatal = isinstance(exc, ProviderError) and exc.status != 429 and exc.status < 500
            if fatal or attempt == endpoint.max_retries:
                raise
        time.sleep(endpoint.backoff_seconds * 2**attempt)
        attempt += 1


def extract_first_json_object(text: str) -> dict[str, Any] | None:
    """First decodable JSON object in the text, prose and code fences tolerated."""
    decoder = json.JSONDecoder()
    start = text.find("{")
    while start != -1:
        try:
            return decoder.raw_decode(text, start)[0]
        except ValueError:
            start = text.find("{", start + 1)
    return None


def parse_oracle_json(text: str) -> OracleOutput:
    """Parse an oracle reply: rationale (str), answer (str), game_over (bool).

    Key order is a generation instruction, not a parse requirement.
    """
    obj = extract_first_json_object(text)
    if obj is None:
        raise MalformedResponseError(f"no JSON object in oracle reply: {text[:200]!r}")
    rationale = obj.get("rationale")
    answer = obj.get("answer")
    game_over = obj.get("game_over")
    if not isinstance(rationale, str) or not isinstance(answer, str):
        raise MalformedResponseError(f"oracle keys missing or mistyped: {obj!r}")
    if not isinstance(game_over, bool):
        raise MalformedResponseError(f"game_over must be a boolean: {obj!r}")
    return OracleOutput(rationale=rationale, answer=answer, game_over=game_over, raw=text)


def parse_pruner_json(text: str) -> PrunerOutput:
    """Parse a pruner reply: rationale (str), pruned_ids (list of "city:<n>")."""
    obj = extract_first_json_object(text)
    if obj is None:
        raise MalformedResponseError(f"no JSON object in pruner reply: {text[:200]!r}")
    rationale = obj.get("rationale")
    raw_ids = obj.get("pruned_ids")
    if not isinstance(rationale, str) or not isinstance(raw_ids, list):
        raise MalformedResponseError(f"pruner keys missing or mistyped: {obj!r}")
    ids = []
    for item in raw_ids:
        if not isinstance(item, str):
            raise MalformedResponseError(f"pruned id is not a string: {item!r}")
        if not item.startswith("city:"):
            raise NonCityIdInResponseError(f"pruned id is not a city id: {item!r}")
        try:
            ids.append(NodeId.parse(item))
        except ValueError as exc:
            raise MalformedResponseError(str(exc)) from None
    return PrunerOutput(rationale=rationale, pruned_ids=tuple(ids), raw=text)


def render_history(history: Sequence[tuple[str, str]]) -> str:
    if not history:
        return "No questions asked yet."
    lines = []
    for i, (question, answer) in enumerate(history, start=1):
        lines.append(f"Q{i}: {question}")
        lines.append(f"A{i}: {answer}")
    return "\n".join(lines)


def render_target_record(graph: HypothesisGraph, target: NodeId) -> str:
    """The target's full attribute record, finest level first."""
    lines = [f"- city: {graph.name_of(target)} ({target})"]
    for ancestor in graph.ancestors(target):
        lines.append(f"- {ancestor.level.value}: {graph.name_of(ancestor)} ({ancestor})")
    return "\n".join(lines)


def _system(prompt: str, reasoning_suffix: str | None) -> ChatMessage:
    if reasoning_suffix:
        prompt = prompt + reasoning_suffix
    return ChatMessage("system", prompt)


def build_seeker_messages(
    ctx: SeekerContext, reasoning_suffix: str | None = None
) -> list[ChatMessage]:
    parts = []
    if ctx.graph_text is not None:
        parts.append(f"Current knowledge graph state:\n\n{ctx.graph_text.rstrip()}")
    parts.append(f"Game so far:\n{render_history(ctx.history)}")
    parts.append("Ask your next yes/no question.")
    return [_system(SEEKER_SYSTEM_PROMPT, reasoning_suffix), ChatMessage("user", "\n\n".join(parts))]


def build_oracle_messages(
    question_text: str,
    graph: HypothesisGraph,
    target: NodeId,
    history: Sequence[tuple[str, str]],
    reasoning_suffix: str | None = None,
) -> list[ChatMessage]:
    user = (
        "The secret target city's record (never reveal any of it to the Seeker):\n"
        f"{render_target_record(graph, target)}\n\n"
        f"Game so far:\n{render_history(history)}\n\n"
        f"Seeker's question: {question_text}\n\n"
        "Respond with the JSON object."
    )
    return [_system(ORACLE_SYSTEM_PROMPT, reasoning_suffix), ChatMessage("user", user)]


def build_pruner_messages(
    question_text: str,
    answer_text: str,
    graph_text: str,
    turn_index: int,
    reasoning_suffix: str | None = None,
) -> list[ChatMessage]:
    user = (
        f"Turn index: {turn_index}\n\n"
        f"Current graph state:\n\n{graph_text.rstrip()}\n\n"
        "Last exchange:\n"
        f"Q: {question_text}\n"
        f"A: {answer_text}\n\n"
        "Return the JSON object."
    )
    return [_system(PRUNER_SYSTEM_PROMPT, reasoning_suffix), ChatMessage("user", user)]


def _audit_blob(messages: Sequence[ChatMessage], result: CompletionResult) -> str:
    blob = {"request": [asdict(m) for m in messages], "response": result.raw}
    return json.dumps(blob, ensure_ascii=False, sort_keys=True)


class _LLMAgent:
    """One role on one endpoint; a WireError fails the game as an AgentFailure."""

    def __init__(self, endpoint: EndpointConfig, reasoning_enabled: bool = False) -> None:
        self.endpoint = endpoint
        self.reasoning_enabled = reasoning_enabled

    def _complete(
        self, messages: list[ChatMessage], parse: Callable[[str], Any] | None = None
    ) -> CompletionResult:
        try:
            return complete(self.endpoint, messages, parse, self.reasoning_enabled)
        except WireError as exc:
            raise AgentFailure(f"{type(self).__name__} backend failed: {exc}") from exc


class LLMSeeker(_LLMAgent):
    """Text-conditioned seeker; sees only the rendered context, never the graph."""

    def ask(self, ctx: SeekerContext) -> SeekerOutput:
        messages = build_seeker_messages(ctx, self.endpoint.reasoning_suffix)
        result = self._complete(messages)
        return SeekerOutput(
            question_text=result.text,
            predicate=None,
            reasoning_trace=result.reasoning_trace,
            raw=_audit_blob(messages, result),
        )


class LLMOracle(_LLMAgent):
    def answer(
        self,
        question: SeekerOutput,
        target: NodeId,
        graph: HypothesisGraph,
        history: Sequence[tuple[str, str]],
    ) -> OracleOutput:
        messages = build_oracle_messages(
            question.question_text, graph, target, history, self.endpoint.reasoning_suffix
        )
        result = self._complete(messages, parse_oracle_json)
        return replace(result.parsed, raw=_audit_blob(messages, result))


class LLMPruner(_LLMAgent):
    def prune_decision(
        self,
        question: SeekerOutput,
        answer: OracleOutput,
        graph: HypothesisGraph,
        turn_index: int = 1,
    ) -> PrunerOutput:
        messages = build_pruner_messages(
            question.question_text,
            answer.answer,
            graph.serialize_state(),
            turn_index,
            self.endpoint.reasoning_suffix,
        )
        result = self._complete(messages, parse_pruner_json)
        return replace(result.parsed, raw=_audit_blob(messages, result))
