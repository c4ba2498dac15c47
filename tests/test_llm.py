import hashlib
import json
import pathlib
import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoseek import llm
from infoseek.agents import (
    AgentFailure,
    Observability,
    OracleOutput,
    SeekerContext,
    SeekerOutput,
)
from infoseek.llm import (
    ChatMessage,
    EmptyCompletionError,
    EndpointConfig,
    LLMOracle,
    LLMPruner,
    LLMSeeker,
    MalformedResponseError,
    NonCityIdInResponseError,
    ProviderError,
    TransportError,
    build_oracle_messages,
    build_pruner_messages,
    build_seeker_messages,
    complete,
    extract_first_json_object,
    parse_oracle_json,
    parse_pruner_json,
    render_history,
    render_target_record,
)
from infoseek.taxonomy import Level, NodeId

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Frozen digests of the three system prompts. A diff here means the wire
# behavior changed and downstream result comparisons are void.
PROMPT_SHA256 = {
    "seeker_system_prompt.txt": "6fc0ef5caf98a20ed69b81a90b14049c410b002e2da7e3526ef2b7400d97ef4f",
    "oracle_system_prompt.txt": "0737cce06d6f1ca18e84cde9d383eea779a6b1efdcc2adf27c54a07d0d2a7b14",
    "pruner_system_prompt.txt": "4bc25d4bd52bf14b9dd93a0df924aab0ae95e6126452a3bc9619d08c62c55896",
}


def endpoint_for(server, **overrides) -> EndpointConfig:
    base = dict(
        base_url=server.url,
        model_name="test-model",
        backoff_seconds=0.01,
        timeout=5.0,
    )
    base.update(overrides)
    return EndpointConfig(**base)


class TestPromptFidelity:
    @pytest.mark.parametrize(
        "fixture_name,constant",
        [
            ("seeker_system_prompt.txt", llm.SEEKER_SYSTEM_PROMPT),
            ("oracle_system_prompt.txt", llm.ORACLE_SYSTEM_PROMPT),
            ("pruner_system_prompt.txt", llm.PRUNER_SYSTEM_PROMPT),
        ],
    )
    def test_byte_exact_against_fixture(self, fixture_name, constant):
        fixture = (FIXTURES / fixture_name).read_text()
        assert constant == fixture
        assert hashlib.sha256(constant.encode()).hexdigest() == PROMPT_SHA256[fixture_name]

    def test_no_trailing_newline(self):
        for prompt in (llm.SEEKER_SYSTEM_PROMPT, llm.ORACLE_SYSTEM_PROMPT, llm.PRUNER_SYSTEM_PROMPT):
            assert not prompt.endswith("\n")


class TestEndpointConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_name="m", max_retries=-1)
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_name="m", timeout=0)
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_name="m", temperature=-0.5)

    def test_chat_message_roles(self):
        with pytest.raises(ValueError):
            ChatMessage("narrator", "hi")
        with pytest.raises(ValueError):
            ChatMessage("user", "")
        ChatMessage("assistant", "")  # assistants may be empty


class TestExtractFirstJsonObject:
    def test_plain(self):
        assert extract_first_json_object('{"a": 1}') == {"a": 1}

    def test_fenced(self):
        text = 'Sure!\n```json\n{"a": 1}\n```'
        assert extract_first_json_object(text) == {"a": 1}

    def test_nested_and_braces_in_strings(self):
        text = 'prefix {"a": {"b": "}{"}, "c": 2} suffix'
        assert extract_first_json_object(text) == {"a": {"b": "}{"}, "c": 2}

    def test_first_of_several(self):
        assert extract_first_json_object('{"a": 1} {"b": 2}') == {"a": 1}

    def test_none_when_absent(self):
        assert extract_first_json_object("no json here") is None
        assert extract_first_json_object("[1, 2, 3]") is None


ORACLE_OK = '{"rationale": "in Asia", "answer": "Yes", "game_over": false}'


class TestParseOracle:
    def test_exact_shape(self):
        out = parse_oracle_json(ORACLE_OK)
        assert (out.rationale, out.answer, out.game_over) == ("in Asia", "Yes", False)
        assert out.raw == ORACLE_OK

    def test_fenced_and_prose_tolerated(self):
        text = f"Here you go:\n```json\n{ORACLE_OK}\n```\nHope that helps!"
        assert parse_oracle_json(text).answer == "Yes"

    def test_key_order_is_not_enforced(self):
        out = parse_oracle_json('{"game_over": true, "answer": "Yes", "rationale": "got it"}')
        assert out.game_over is True

    @pytest.mark.parametrize(
        "bad",
        [
            "no json",
            '{"answer": "Yes", "game_over": false}',  # rationale missing
            '{"rationale": "x", "game_over": false}',  # answer missing
            '{"rationale": "x", "answer": "Yes"}',  # game_over missing
            '{"rationale": "x", "answer": "Yes", "game_over": "false"}',  # stringly bool
            '{"rationale": 3, "answer": "Yes", "game_over": false}',
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(MalformedResponseError):
            parse_oracle_json(bad)


PRUNER_OK = '{"rationale": "rules out Africa", "pruned_ids": ["city:5", "city:13"]}'


class TestParsePruner:
    def test_exact_shape(self):
        out = parse_pruner_json(PRUNER_OK)
        assert out.pruned_ids == (NodeId(Level.CITY, 5), NodeId(Level.CITY, 13))
        assert out.rationale == "rules out Africa"

    def test_empty_list_is_valid(self):
        out = parse_pruner_json('{"rationale": "ambiguous", "pruned_ids": []}')
        assert out.pruned_ids == ()

    def test_non_city_id_is_its_own_failure(self):
        with pytest.raises(NonCityIdInResponseError):
            parse_pruner_json('{"rationale": "x", "pruned_ids": ["country:5"]}')
        # ... and still a malformed-response error for blanket handling
        assert issubclass(NonCityIdInResponseError, MalformedResponseError)

    @pytest.mark.parametrize(
        "bad",
        [
            '{"rationale": "x"}',
            '{"pruned_ids": []}',
            '{"rationale": "x", "pruned_ids": "city:1"}',
            '{"rationale": "x", "pruned_ids": [7]}',
            '{"rationale": "x", "pruned_ids": ["city:abc"]}',
            '{"rationale": "x", "pruned_ids": ["city:"]}',
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(MalformedResponseError):
            parse_pruner_json(bad)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=300))
def test_parsers_are_total(text):
    for parser in (parse_oracle_json, parse_pruner_json):
        try:
            parser(text)
        except MalformedResponseError:
            pass


class TestComplete:
    def test_passthrough(self, mock_llm):
        mock_llm.say("Is the target city in Asia?")
        result = complete(endpoint_for(mock_llm), [ChatMessage("user", "hi")])
        assert result.text == "Is the target city in Asia?"
        assert result.reasoning_trace is None
        sent = mock_llm.requests[0]
        assert sent["path"] == "/chat/completions"
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["messages"] == [{"role": "user", "content": "hi"}]

    def test_temperature_forwarded_only_when_set(self, mock_llm):
        mock_llm.say("ok")
        complete(endpoint_for(mock_llm), [ChatMessage("user", "hi")])
        assert "temperature" not in mock_llm.requests[0]["body"]
        mock_llm.say("ok")
        complete(endpoint_for(mock_llm, temperature=0.2), [ChatMessage("user", "hi")])
        assert mock_llm.requests[1]["body"]["temperature"] == 0.2

    def test_auth_header_from_env(self, mock_llm, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "sk-123")
        mock_llm.say("ok")
        complete(endpoint_for(mock_llm, api_key_env="FAKE_KEY"), [ChatMessage("user", "hi")])
        assert mock_llm.requests[0]["headers"]["Authorization"] == "Bearer sk-123"

    def test_retries_then_succeeds_on_5xx(self, mock_llm):
        mock_llm.enqueue(500, "boom")
        mock_llm.enqueue(503, "still down")
        mock_llm.say("recovered")
        result = complete(endpoint_for(mock_llm, max_retries=2), [ChatMessage("user", "hi")])
        assert result.text == "recovered"
        assert len(mock_llm.requests) == 3

    def test_retries_on_429(self, mock_llm):
        mock_llm.enqueue(429, "slow down")
        mock_llm.say("ok")
        result = complete(endpoint_for(mock_llm, max_retries=1), [ChatMessage("user", "hi")])
        assert result.text == "ok"
        assert len(mock_llm.requests) == 2

    def test_retries_on_empty_completion(self, mock_llm):
        mock_llm.say("")
        mock_llm.say("filled in")
        result = complete(endpoint_for(mock_llm, max_retries=1), [ChatMessage("user", "hi")])
        assert result.text == "filled in"

    def test_retries_on_unusable_body(self, mock_llm):
        mock_llm.enqueue(200, {"unexpected": "shape"})
        mock_llm.say("ok")
        result = complete(endpoint_for(mock_llm, max_retries=1), [ChatMessage("user", "hi")])
        assert result.text == "ok"

    def test_attempt_budget_is_exact(self, mock_llm):
        for _ in range(5):
            mock_llm.enqueue(500, "down")
        with pytest.raises(ProviderError) as exc_info:
            complete(endpoint_for(mock_llm, max_retries=2), [ChatMessage("user", "hi")])
        assert len(mock_llm.requests) == 3  # max_retries + 1, no more
        assert exc_info.value.status == 500

    def test_parse_fault_uses_an_attempt(self, mock_llm):
        mock_llm.say("not json")
        mock_llm.say(ORACLE_OK)
        result = complete(
            endpoint_for(mock_llm, max_retries=1), [ChatMessage("user", "hi")], parse_oracle_json
        )
        assert result.parsed.answer == "Yes"
        assert len(mock_llm.requests) == 2

    def test_refused_connection_or_bad_url_is_a_transport_error(self):
        with socket.socket() as sock:  # a port with no listener once closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        for base_url in (f"http://127.0.0.1:{port}", f"127.0.0.1:{port}"):
            endpoint = EndpointConfig(
                base_url=base_url, model_name="m", max_retries=1, backoff_seconds=0
            )
            with pytest.raises(TransportError):
                complete(endpoint, [ChatMessage("user", "hi")])

    def test_client_error_fails_immediately(self, mock_llm):
        mock_llm.enqueue(404, "no such model")
        with pytest.raises(ProviderError):
            complete(endpoint_for(mock_llm, max_retries=3), [ChatMessage("user", "hi")])
        assert len(mock_llm.requests) == 1

    def test_empty_exhaustion_raises_empty_completion(self, mock_llm):
        mock_llm.say("")
        mock_llm.say("")
        with pytest.raises(EmptyCompletionError):
            complete(endpoint_for(mock_llm, max_retries=1), [ChatMessage("user", "hi")])

    def test_provider_reasoning_channel_captured(self, mock_llm):
        mock_llm.say("Yes", reasoning="the target is in Asia")
        result = complete(endpoint_for(mock_llm), [ChatMessage("user", "hi")])
        assert result.text == "Yes"
        assert result.reasoning_trace == "the target is in Asia"

    def test_inline_think_split_when_enabled(self, mock_llm):
        mock_llm.say("<think>narrow by region</think>Is the target city in Asia?")
        result = complete(
            endpoint_for(mock_llm), [ChatMessage("user", "hi")], reasoning_enabled=True
        )
        assert result.text == "Is the target city in Asia?"
        assert result.reasoning_trace == "narrow by region"

    def test_inline_think_left_alone_when_disabled(self, mock_llm):
        mock_llm.say("<think>hmm</think>Is the target city in Asia?")
        result = complete(endpoint_for(mock_llm), [ChatMessage("user", "hi")])
        assert "<think>" in result.text
        assert result.reasoning_trace is None

    def test_both_reasoning_channels_joined(self, mock_llm):
        mock_llm.say("<think>inline part</think>Question?", reasoning="provider part")
        result = complete(
            endpoint_for(mock_llm), [ChatMessage("user", "hi")], reasoning_enabled=True
        )
        assert result.reasoning_trace == "provider part\n\ninline part"


class TestMessageBuilders:
    def test_seeker_full_observability_includes_graph(self, graph):
        ctx = SeekerContext(
            history=[("Q?", "Yes")], turn_index=2, observability=Observability.FULL, graph=graph
        )
        messages = build_seeker_messages(ctx)
        assert messages[0].role == "system"
        assert messages[0].content == llm.SEEKER_SYSTEM_PROMPT
        user = messages[1].content
        assert "Current knowledge graph state:" in user
        assert "city:1 Tokyo [ACTIVE]" in user
        assert "Q1: Q?" in user and "A1: Yes" in user
        assert user.endswith("Ask your next yes/no question.")

    def test_seeker_partial_observability_omits_graph(self, graph):
        ctx = SeekerContext(
            history=[], turn_index=1, observability=Observability.PARTIAL, graph=graph
        )
        user = build_seeker_messages(ctx)[1].content
        assert "knowledge graph" not in user
        assert "No questions asked yet." in user

    def test_oracle_message_carries_target_record(self, graph):
        messages = build_oracle_messages(
            "Is the target city in Asia?", graph, NodeId(Level.CITY, 1), []
        )
        user = messages[1].content
        assert "- city: Tokyo (city:1)" in user
        assert "- country: Japan (country:1)" in user
        assert "Seeker's question: Is the target city in Asia?" in user
        assert messages[0].content == llm.ORACLE_SYSTEM_PROMPT

    def test_pruner_message_carries_exchange_and_graph(self, graph):
        messages = build_pruner_messages(
            "Is the target city in Asia?", "Yes", graph.serialize_state(), turn_index=4
        )
        user = messages[1].content
        assert user.startswith("Turn index: 4")
        assert "Q: Is the target city in Asia?" in user
        assert "A: Yes" in user
        assert "city:40 Nagoya [ACTIVE]" in user

    def test_reasoning_suffix_appends_to_system_prompt(self):
        ctx = SeekerContext(history=[], turn_index=1)
        messages = build_seeker_messages(ctx, reasoning_suffix=" /think")
        assert messages[0].content == llm.SEEKER_SYSTEM_PROMPT + " /think"


class TestRenderHelpers:
    def test_history_empty_sentinel(self):
        assert render_history([]) == "No questions asked yet."

    def test_history_numbering(self):
        text = render_history([("First?", "Yes"), ("Second?", "No")])
        assert text.splitlines() == ["Q1: First?", "A1: Yes", "Q2: Second?", "A2: No"]

    def test_target_record_finest_first(self, graph):
        text = render_target_record(graph, NodeId(Level.CITY, 1))
        assert text.splitlines() == [
            "- city: Tokyo (city:1)",
            "- state: Tokyo (state:1)",
            "- country: Japan (country:1)",
            "- subregion: Eastern Asia (subregion:1)",
            "- region: Asia (region:1)",
        ]


class TestLLMAgents:
    def test_seeker_happy_path(self, mock_llm, graph):
        mock_llm.say("Is the target city in Asia?", reasoning="split by region")
        seeker = LLMSeeker(endpoint_for(mock_llm))
        ctx = SeekerContext(
            history=[], turn_index=1, observability=Observability.FULL, graph=graph
        )
        out = seeker.ask(ctx)
        assert out.question_text == "Is the target city in Asia?"
        assert out.predicate is None
        assert out.reasoning_trace == "split by region"
        audit = json.loads(out.raw)
        assert audit["request"][0]["role"] == "system"
        assert audit["response"]["choices"][0]["message"]["content"].startswith("Is the")

    def test_seeker_wire_failure_becomes_agent_failure(self, mock_llm):
        mock_llm.enqueue(404, "gone")
        seeker = LLMSeeker(endpoint_for(mock_llm))
        with pytest.raises(AgentFailure):
            seeker.ask(SeekerContext(history=[], turn_index=1))

    def test_oracle_retries_malformed_then_succeeds(self, mock_llm, graph):
        mock_llm.say("not json at all")
        mock_llm.say(ORACLE_OK)
        oracle = LLMOracle(endpoint_for(mock_llm, max_retries=1))
        out = oracle.answer(
            SeekerOutput(question_text="Is the target city in Asia?"),
            NodeId(Level.CITY, 1),
            graph,
            [],
        )
        assert out.answer == "Yes"
        assert len(mock_llm.requests) == 2

    def test_oracle_gives_up_after_retry_budget(self, mock_llm, graph):
        for _ in range(3):
            mock_llm.say("still not json")
        oracle = LLMOracle(endpoint_for(mock_llm, max_retries=2))
        with pytest.raises(AgentFailure):
            oracle.answer(
                SeekerOutput(question_text="Q?"), NodeId(Level.CITY, 1), graph, []
            )
        assert len(mock_llm.requests) == 3

    def test_pruner_happy_path(self, mock_llm, graph):
        mock_llm.say(PRUNER_OK)
        pruner = LLMPruner(endpoint_for(mock_llm))
        out = pruner.prune_decision(
            SeekerOutput(question_text="Is the target city in Africa?"),
            OracleOutput(rationale="", answer="No", game_over=False),
            graph,
            turn_index=1,
        )
        assert out.pruned_ids == (NodeId(Level.CITY, 5), NodeId(Level.CITY, 13))

    @pytest.mark.parametrize("role", ["oracle", "pruner"])
    @pytest.mark.parametrize("faults", [("5xx", "malformed"), ("malformed", "5xx")])
    def test_one_budget_covers_server_and_parse_faults(self, mock_llm, graph, role, faults):
        for fault in faults:
            if fault == "5xx":
                mock_llm.enqueue(500, "down")
            else:
                mock_llm.say("not json")
        for _ in range(2):  # good replies that only a second retry loop would reach
            mock_llm.say(ORACLE_OK if role == "oracle" else PRUNER_OK)
        endpoint = endpoint_for(mock_llm, max_retries=1)
        question = SeekerOutput(question_text="Is the target city in Asia?")
        with pytest.raises(AgentFailure):
            if role == "oracle":
                LLMOracle(endpoint).answer(question, NodeId(Level.CITY, 1), graph, [])
            else:
                answer = OracleOutput(rationale="", answer="Yes", game_over=False)
                LLMPruner(endpoint).prune_decision(question, answer, graph)
        assert len(mock_llm.requests) == 2  # max_retries + 1, whatever the causes

    def test_pruner_rejects_non_city_ids_then_fails(self, mock_llm, graph):
        mock_llm.say('{"rationale": "x", "pruned_ids": ["region:1"]}')
        mock_llm.say('{"rationale": "x", "pruned_ids": ["state:1"]}')
        pruner = LLMPruner(endpoint_for(mock_llm, max_retries=1))
        with pytest.raises(AgentFailure):
            pruner.prune_decision(
                SeekerOutput(question_text="Q?"),
                OracleOutput(rationale="", answer="Yes", game_over=False),
                graph,
            )
