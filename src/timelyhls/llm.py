"""Prompt construction and pluggable generation backends.

Two backends: an HTTP chat-completion client for real models, and a
scripted backend that replays queued responses from a JSON file so whole
refinement runs are bit-reproducible. Prompt construction is pure: equal
inputs produce byte-equal prompts.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BackendError, ContractError, ExtractionError, ScriptExhausted, ValidationError
from .hls_source import SourceUnit
from .kb import FpgaTarget, KnowledgeDoc

if TYPE_CHECKING:
    from .loop import FeedbackDigest

STAGES = ("initial", "hls_repair", "rtl_repair")
BACKEND_KINDS = ("scripted", "http_chat")

ENV_API_KEY = "TIMELYHLS_LLM_API_KEY"
ENV_ENDPOINT = "TIMELYHLS_LLM_ENDPOINT"

RETRY_BASE_S = 1.0
RETRY_FACTOR = 2.0

DEFAULT_SYSTEM_PROMPT = (
    "You are an expert FPGA HLS engineer. You optimize HLS C/C++ kernels for a "
    "specific FPGA device by inserting synthesis directives (pipeline, unroll, "
    "array_partition, dataflow, interface) and, when necessary, restructuring "
    "code. Preserve the kernel's function signature and observable behavior. "
    "Reply with the complete revised source file in a single ```cpp code block."
)

CATEGORY_HEADINGS = {
    "syntax_error": "SYNTAX ERRORS",
    "resource_binding": "RESOURCE BINDING",
    "pipeline_violation": "PIPELINE VIOLATIONS",
    "functional_mismatch": "FUNCTIONAL MISMATCH",
    "timing_violation": "TIMING",
    "critical_path": "CRITICAL PATH",
    "resource_overflow": "RESOURCE OVERFLOW",
}


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str
    context_docs: tuple[str, ...]
    stage: str  # "initial" | "hls_repair" | "rtl_repair"


@dataclass(frozen=True)
class GenerationResult:
    code: str
    backend: str
    latency_ms: float


@dataclass(frozen=True)
class BackendConfig:
    kind: str  # one of BACKEND_KINDS
    endpoint: str | None = None
    model: str | None = None
    temperature: float = 0.7
    max_retries: int = 2
    script_path: str | None = None

    def validate(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValidationError(f"unknown backend kind {self.kind!r}")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValidationError(f"temperature {self.temperature} outside [0, 2]")
        if self.kind == "http_chat" and not (
            (self.endpoint or os.environ.get(ENV_ENDPOINT)) and self.model
        ):
            raise ValidationError("http_chat backend needs endpoint and model")
        if self.kind == "scripted" and not self.script_path:
            raise ValidationError("scripted backend needs script_path")


# ---------------------------------------------------------------------------
# Prompt construction


def _target_block(target: FpgaTarget) -> str:
    return "\n".join(
        [
            "TARGET DEVICE",
            f"  family: {target.family}",
            f"  part: {target.part}",
            f"  LUTs: {target.luts}",
            f"  FFs: {target.ffs}",
            f"  DSPs: {target.dsps}",
            f"  BRAMs (18Kb): {target.brams}",
            f"  clock period: {target.default_clock_ns} ns",
            f"  tier: {target.tier}",
        ]
    )


def build_initial_prompt(
    kernel: SourceUnit,
    objective: str,
    target: FpgaTarget,
    docs: list[KnowledgeDoc],
) -> PromptBundle:
    """First-generation prompt: objective, device metadata, retrieved
    context, then the full kernel source, in that order."""
    sections = [
        "OBJECTIVE",
        objective,
        "",
        _target_block(target),
        "",
        "CONTEXT",
    ]
    if docs:
        for doc in docs:
            sections.append(f"--- {doc.title} [{doc.id}] ---")
            sections.append(doc.body)
    else:
        sections.append("(no context documents)")
    sections += [
        "",
        "KERNEL SOURCE",
        "```cpp",
        kernel.text.rstrip("\n"),
        "```",
    ]
    return PromptBundle(
        system=DEFAULT_SYSTEM_PROMPT,
        user="\n".join(sections),
        context_docs=tuple(d.id for d in docs),
        stage="initial",
    )


def build_feedback_prompt(
    prev: PromptBundle, prev_code: str, feedback: "FeedbackDigest"
) -> PromptBundle:
    """Repair prompt carrying the prior code and categorized tool feedback."""
    if not feedback.categories:
        raise ContractError("feedback digest is empty")
    stage = "hls_repair" if feedback.origin == "hls_stage" else "rtl_repair"
    sections = [
        "The previous kernel version failed verification. Fix the failures "
        "listed below and return the complete corrected source file.",
        "",
        "PREVIOUS KERNEL",
        "```cpp",
        prev_code.rstrip("\n"),
        "```",
        "",
        "TOOL FEEDBACK",
    ]
    for entry in feedback.categories:
        sections.append(f"## {CATEGORY_HEADINGS[entry.kind]}")
        sections.append(entry.excerpt)
        sections.append("")
    sections.append(
        "Address every failure category above. Keep the function signature and "
        "semantics unchanged; adjust directives or restructure code as needed."
    )
    return PromptBundle(
        system=prev.system,
        user="\n".join(sections),
        context_docs=prev.context_docs,
        stage=stage,
    )


# ---------------------------------------------------------------------------
# Code extraction

_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_BARE_PREFIXES = ("#include", "void ", "int ")


def extract_code_block(raw: str) -> str:
    """Content of the longest fenced block; bare source passes through.

    Responses often mix small illustrative snippets with one full file;
    the longest block is taken to be the file.
    """
    blocks = [m.group(1) for m in _FENCE.finditer(raw)]
    if blocks:
        return max(blocks, key=len)
    if raw.lstrip().startswith(_BARE_PREFIXES):
        return raw
    raise ExtractionError("no code fence and text does not look like bare source")


# ---------------------------------------------------------------------------
# Backends


class GenerationBackend:
    name = "backend"

    def generate(self, prompt: PromptBundle) -> GenerationResult:
        raise NotImplementedError


def load_script(script_path: str | Path) -> tuple[dict, ...]:
    """The entries of a scenario script; ValidationError names the file
    when it is not a JSON array of {stage, response} objects."""
    name = Path(script_path).name
    try:
        raw = json.loads(Path(script_path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"script {name} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ValidationError(f"script {name} is not a JSON array")
    for i, entry in enumerate(raw):
        if not (isinstance(entry, dict) and entry.get("stage") in STAGES
                and isinstance(entry.get("response"), str)):
            raise ValidationError(f"script {name} entry {i} malformed: {entry!r}")
    return tuple(raw)


class ScriptedBackend(GenerationBackend):
    """Replays queued responses from a JSON script, in order, per stage.

    The script is an array of {"stage": ..., "response": ...} objects; a
    generate call consumes the first unconsumed entry whose stage matches
    the prompt's. Cursor state is per-instance, one instance per run.
    """

    name = "scripted"

    def __init__(self, script_path: str | Path, entries: tuple[dict, ...] | None = None):
        """entries, when given, are load_script(script_path)'s, loaded
        once for many runs; the backend only reads them."""
        # the file name alone, so an archive does not depend on the results directory
        self.script_name = Path(script_path).name
        self.entries = load_script(script_path) if entries is None else entries
        self.consumed = [False] * len(self.entries)

    def generate(self, prompt: PromptBundle) -> GenerationResult:
        for i, entry in enumerate(self.entries):
            if not self.consumed[i] and entry["stage"] == prompt.stage:
                self.consumed[i] = True
                return GenerationResult(
                    code=extract_code_block(entry["response"]),
                    backend=self.name,
                    latency_ms=0.0,
                )
        raise ScriptExhausted(
            f"script {self.script_name} has no remaining response for stage {prompt.stage!r}"
        )


class HttpChatBackend(GenerationBackend):
    """Chat-completion client: POSTs messages, reads the first choice.

    Transport errors, HTTP 429 and 5xx, and a 200 response without
    choices[0].message.content are retried with exponential backoff
    (base 1s, factor 2) up to max_retries, then raise BackendError; any
    other HTTP error status raises BackendError at once. The API key comes
    from the environment, never from configuration files.
    """

    name = "http_chat"

    def __init__(self, cfg: BackendConfig, sleeper=time.sleep):
        cfg.validate()
        self.cfg = cfg
        self._sleep = sleeper

    def generate(self, prompt: PromptBundle) -> GenerationResult:
        # imported here: urllib.request loads http.client and email, which a
        # run on the scripted backend never needs
        import http.client
        import urllib.error
        import urllib.request

        endpoint = os.environ.get(ENV_ENDPOINT) or self.cfg.endpoint
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(ENV_API_KEY)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.cfg.model,
            "temperature": self.cfg.temperature,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
        }
        request = urllib.request.Request(
            endpoint, data=json.dumps(body).encode("utf-8"), headers=headers, method="POST"
        )
        start = time.monotonic()
        last_error: Exception | None = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._sleep(RETRY_BASE_S * RETRY_FACTOR ** (attempt - 1))
            try:
                with urllib.request.urlopen(request, timeout=120) as resp:
                    raw = json.loads(resp.read())["choices"][0]["message"]["content"]
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code != 429 and exc.code < 500:
                    raise BackendError(
                        f"generation failed: HTTP {exc.code} {exc.reason}, not retried"
                    ) from None
                last_error = exc
            except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
                last_error = exc  # transport error, timeout or malformed body
            else:
                return GenerationResult(
                    code=extract_code_block(raw),
                    backend=self.name,
                    latency_ms=(time.monotonic() - start) * 1000.0,
                )
        raise BackendError(
            f"generation failed after {self.cfg.max_retries + 1} attempts: {last_error}"
        )


