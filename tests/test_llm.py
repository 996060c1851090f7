"""Prompt construction, code extraction, and both generation backends."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import timelyhls
from timelyhls.errors import (
    BackendError,
    ContractError,
    ExtractionError,
    ScriptExhausted,
    ValidationError,
)
from timelyhls.hls_source import SourceUnit
from timelyhls.kb import KnowledgeDoc
from timelyhls.llm import (
    BackendConfig,
    HttpChatBackend,
    PromptBundle,
    ScriptedBackend,
    build_feedback_prompt,
    build_initial_prompt,
    extract_code_block,
)
from timelyhls.loop import DigestEntry, FeedbackDigest

from conftest import make_target

KERNEL = SourceUnit.from_text("void f(int *a) {\n    L: for (int i = 0; i < 4; i++) {\n        a[i] = 0;\n    }\n}\n")


def _docs():
    return [
        KnowledgeDoc(id="doc-a", kind="heuristic", applicable_families=(), title="A", body="pipeline first"),
        KnowledgeDoc(id="doc-b", kind="pragma_template", applicable_families=(), title="B", body="unroll later"),
    ]


class TestInitialPrompt:
    def test_contains_part_and_dsps_in_order(self):
        target = make_target(part="xc7a200tfbg676-2", dsps=740)
        prompt = build_initial_prompt(KERNEL, "close timing", target, _docs())
        user = prompt.user
        assert "xc7a200tfbg676-2" in user
        assert "DSPs: 740" in user
        positions = [
            user.index("close timing"),
            user.index("TARGET DEVICE"),
            user.index("pipeline first"),
            user.index("void f(int *a)"),
        ]
        assert positions == sorted(positions)
        assert prompt.context_docs == ("doc-a", "doc-b")
        assert prompt.stage == "initial"

    def test_empty_docs_still_valid(self):
        prompt = build_initial_prompt(KERNEL, "objective", make_target(), [])
        assert "(no context documents)" in prompt.user
        assert prompt.context_docs == ()

    def test_deterministic(self):
        target = make_target()
        a = build_initial_prompt(KERNEL, "objective", target, _docs())
        b = build_initial_prompt(KERNEL, "objective", target, _docs())
        assert a == b


class TestFeedbackPrompt:
    def prev(self):
        return build_initial_prompt(KERNEL, "objective", make_target(), [])

    def test_mismatch_line_under_heading(self):
        line = "functional mismatch: token 3: expected '2' got '3'"
        digest = FeedbackDigest(
            origin="hls_stage", categories=(DigestEntry("functional_mismatch", line),)
        )
        prompt = build_feedback_prompt(self.prev(), "int x;", digest)
        assert line in prompt.user
        assert prompt.user.index("FUNCTIONAL MISMATCH") < prompt.user.index(line)
        assert prompt.stage == "hls_repair"

    def test_wns_under_timing_heading(self):
        digest = FeedbackDigest(
            origin="rtl_stage", categories=(DigestEntry("timing_violation", "WNS(ns): -0.08"),)
        )
        prompt = build_feedback_prompt(self.prev(), "int x;", digest)
        assert "-0.08" in prompt.user
        assert prompt.user.index("TIMING") < prompt.user.index("-0.08")
        assert prompt.stage == "rtl_repair"

    def test_empty_digest_rejected(self):
        digest = FeedbackDigest(origin="hls_stage", categories=())
        with pytest.raises(ContractError):
            build_feedback_prompt(self.prev(), "int x;", digest)

    def test_previous_code_included(self):
        digest = FeedbackDigest(
            origin="hls_stage", categories=(DigestEntry("syntax_error", "error: bad"),)
        )
        prompt = build_feedback_prompt(self.prev(), "int marker_42;", digest)
        assert "int marker_42;" in prompt.user


class TestExtract:
    def test_longest_fence_wins(self):
        short = "int a;"
        long = "int buffer[64];\n" * 12
        raw = f"tiny:\n```c\n{short}\n```\nfull file:\n```cpp\n{long}```\ndone"
        assert extract_code_block(raw) == long

    def test_bare_include_passthrough(self):
        raw = "#include <ap_int.h>\nvoid f() {}\n"
        assert extract_code_block(raw) == raw

    def test_prose_only_rejected(self):
        with pytest.raises(ExtractionError):
            extract_code_block("I would pipeline the loop and partition the array.")

    @given(st.text(min_size=1))
    def test_result_always_substring(self, raw):
        try:
            code = extract_code_block(raw)
        except ExtractionError:
            return
        assert code in raw


def _prompt(stage="initial"):
    return PromptBundle(system="s", user="u", context_docs=(), stage=stage)


class TestScriptedBackend:
    def script(self, tmp_path, entries):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(entries))
        return path

    def test_exhaustion_on_third_call(self, tmp_path):
        path = self.script(
            tmp_path,
            [
                {"stage": "initial", "response": "```c\nint a;\n```"},
                {"stage": "initial", "response": "```c\nint b;\n```"},
            ],
        )
        backend = ScriptedBackend(path)
        assert backend.generate(_prompt()).code == "int a;\n"
        assert backend.generate(_prompt()).code == "int b;\n"
        with pytest.raises(ScriptExhausted):
            backend.generate(_prompt())

    def test_stage_keying(self, tmp_path):
        path = self.script(
            tmp_path,
            [
                {"stage": "rtl_repair", "response": "```c\nint fixed;\n```"},
                {"stage": "initial", "response": "```c\nint first;\n```"},
            ],
        )
        backend = ScriptedBackend(path)
        assert backend.generate(_prompt("initial")).code == "int first;\n"
        assert backend.generate(_prompt("rtl_repair")).code == "int fixed;\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"stage": ', "script script.json is not valid JSON: "),
            ("{}", "script script.json is not a JSON array"),
            ("[1]", "script script.json entry 0 malformed: 1"),
            ('[{"stage": "initial"}]', "script script.json entry 0 malformed"),
            ('[{"stage": "initial", "response": 7}]', "script script.json entry 0 malformed"),
        ],
    )
    def test_malformed_script_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "script.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            ScriptedBackend(path)
        assert str(info.value).startswith(message)

    def test_deterministic_latency(self, tmp_path):
        path = self.script(tmp_path, [{"stage": "initial", "response": "```c\nint a;\n```"}])
        result = ScriptedBackend(path).generate(_prompt())
        assert result.latency_ms == 0.0
        assert result.backend == "scripted"


GOOD_BODY = json.dumps(
    {"choices": [{"message": {"content": "answer:\n```cpp\nint ok = 1;\n```"}}]}
).encode()


class _ChatHandler(BaseHTTPRequestHandler):
    """The first `fail_times` requests get `status` with `fail_body`; later
    ones get a well-formed 200 answer."""

    fail_times = 0
    status = 503
    fail_body = b""
    requests_seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append((dict(self.headers), body))
        status, data = 200, GOOD_BODY
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            status, data = type(self).status, type(self).fail_body
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _ChatHandler.fail_times = 0
    _ChatHandler.status = 503
    _ChatHandler.fail_body = b""
    _ChatHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def _closed_port() -> int:
    """A local port with nothing listening on it."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHttpBackend:
    def cfg(self, endpoint, retries=2):
        return BackendConfig(kind="http_chat", endpoint=endpoint, model="m-test", max_retries=retries)

    def test_happy_path_posts_chat_body(self, chat_server):
        backend = HttpChatBackend(self.cfg(chat_server), sleeper=lambda s: None)
        result = backend.generate(_prompt())
        assert result.code == "int ok = 1;\n"
        assert result.backend == "http_chat"
        _, body = _ChatHandler.requests_seen[0]
        assert body["model"] == "m-test"
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert body["temperature"] == 0.7

    def test_retries_then_succeeds(self, chat_server):
        _ChatHandler.fail_times = 2
        sleeps = []
        backend = HttpChatBackend(self.cfg(chat_server), sleeper=sleeps.append)
        result = backend.generate(_prompt())
        assert result.code == "int ok = 1;\n"
        assert sleeps == [1.0, 2.0]  # exponential backoff base 1s factor 2

    def test_backend_error_after_retries(self, chat_server):
        _ChatHandler.fail_times = 99
        backend = HttpChatBackend(self.cfg(chat_server, retries=1), sleeper=lambda s: None)
        with pytest.raises(BackendError):
            backend.generate(_prompt())

    def test_env_overrides(self, chat_server, monkeypatch):
        monkeypatch.setenv("TIMELYHLS_LLM_ENDPOINT", chat_server)
        monkeypatch.setenv("TIMELYHLS_LLM_API_KEY", "sk-test-123")
        backend = HttpChatBackend(
            BackendConfig(kind="http_chat", endpoint="http://wrong.invalid/x", model="m"),
            sleeper=lambda s: None,
        )
        result = backend.generate(_prompt())
        assert result.code == "int ok = 1;\n"
        headers, _ = _ChatHandler.requests_seen[0]
        assert headers.get("Authorization") == "Bearer sk-test-123"

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_client_error_fails_fast(self, chat_server, monkeypatch, status):
        monkeypatch.setenv("TIMELYHLS_LLM_API_KEY", "sk-secret-456")
        _ChatHandler.fail_times, _ChatHandler.status = 99, status
        sleeps = []
        backend = HttpChatBackend(self.cfg(chat_server), sleeper=sleeps.append)
        with pytest.raises(BackendError) as info:
            backend.generate(_prompt())
        assert len(_ChatHandler.requests_seen) == 1
        assert sleeps == []
        assert f"HTTP {status}" in str(info.value)
        assert "sk-secret-456" not in str(info.value)

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_retryable_status_backs_off(self, chat_server, status):
        _ChatHandler.fail_times, _ChatHandler.status = 2, status
        sleeps = []
        backend = HttpChatBackend(self.cfg(chat_server), sleeper=sleeps.append)
        assert backend.generate(_prompt()).code == "int ok = 1;\n"
        assert len(_ChatHandler.requests_seen) == 3
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize(
        "status, body, message",
        [(429, b"", "after 3 attempts: HTTP Error 429"), (200, b"{}", "after 3 attempts: 'choices'")],
    )
    def test_retries_run_out(self, chat_server, status, body, message):
        _ChatHandler.fail_times, _ChatHandler.status, _ChatHandler.fail_body = 99, status, body
        sleeps = []
        backend = HttpChatBackend(self.cfg(chat_server), sleeper=sleeps.append)
        with pytest.raises(BackendError, match=message):
            backend.generate(_prompt())
        assert len(_ChatHandler.requests_seen) == 3
        assert sleeps == [1.0, 2.0]

    def test_refused_connection_retried_then_fails(self):
        endpoint = f"http://127.0.0.1:{_closed_port()}/v1/chat/completions"
        sleeps = []
        backend = HttpChatBackend(self.cfg(endpoint), sleeper=sleeps.append)
        with pytest.raises(BackendError, match="after 3 attempts"):
            backend.generate(_prompt())
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize(
        "body", [b"not json", b"[]", b"{}", b'{"choices": []}', b'{"choices": [{"message": {}}]}']
    )
    def test_malformed_ok_body_retried(self, chat_server, body):
        """A 200 answer without choices[0].message.content is retried like a
        transport error; a well-formed answer on a retry succeeds."""
        _ChatHandler.fail_times, _ChatHandler.status, _ChatHandler.fail_body = 1, 200, body
        sleeps = []
        backend = HttpChatBackend(self.cfg(chat_server), sleeper=sleeps.append)
        assert backend.generate(_prompt()).code == "int ok = 1;\n"
        assert sleeps == [1.0]


def test_cli_import_loads_no_http_client():
    """The CLI imports no HTTP machinery until an HTTP generation runs.

    Checked in a fresh interpreter: this one has http.server loaded for
    the chat server above."""
    src = Path(timelyhls.__file__).resolve().parent.parent
    code = (
        "import sys, timelyhls.cli; "
        "print([m for m in ('requests', 'urllib3', 'urllib.request', 'http.client') "
        "if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
