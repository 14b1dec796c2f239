"""Negative-campaigning codebooks and deterministic prompt rendering.

The prompt template is fixed so that every run of the toolkit produces one
canonical wording: definition paragraph, instruction paragraph, optional
labeled-examples block (adjusted variant), optional context line, output
instruction. The bundled example texts are neutral placeholders written for
this toolkit, not reproductions of any published training material.
"""

from __future__ import annotations

import hashlib
import json
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple

from .errors import ConfigError
from .ingest import Document, load_json_file

OUTPUT_INSTRUCTION = "Answer with a single character: 0 or 1."


class ContextLevel(str, Enum):
    NO_CONTEXT = "no_context"
    SYSTEM = "system"
    SYSTEM_USER = "system_user"


class CodebookVariant(str, Enum):
    ORIGINAL = "original"
    ADJUSTED = "adjusted"


class PromptVariant(NamedTuple):
    """One cell of the context-level x codebook-variant grid."""

    context_level: ContextLevel = ContextLevel.NO_CONTEXT
    codebook_variant: CodebookVariant = CodebookVariant.ORIGINAL

    @classmethod
    def parse(cls, value: str) -> "PromptVariant":
        """Parse ``"<context>:<variant>"``, e.g. ``"no_context:original"``."""
        try:
            context_part, _, variant_part = value.partition(":")
            return cls(ContextLevel(context_part), CodebookVariant(variant_part or "original"))
        except ValueError:
            levels = "|".join(c.value for c in ContextLevel)
            variants = "|".join(v.value for v in CodebookVariant)
            raise ConfigError(f"invalid variant {value!r}; expected {{{levels}}}:{{{variants}}}") from None

    def __str__(self) -> str:
        return f"{self.context_level.value}:{self.codebook_variant.value}"


class _CodebookFields(NamedTuple):
    name: str
    definition_text: str
    instructions: str
    labeled_examples: tuple[tuple[str, int], ...] = ()
    output_instruction: str = OUTPUT_INSTRUCTION


class Codebook(_CodebookFields):
    """A coding definition plus instructions and optional labeled examples."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "Codebook":
        self = super().__new__(cls, *args, **kwargs)
        if not self.definition_text:
            raise ConfigError(f"codebook {self.name!r}: empty definition")
        if self.labeled_examples:
            seen = {label for _, label in self.labeled_examples}
            if seen != {0, 1}:
                raise ConfigError(f"codebook {self.name!r}: examples must include both labels")
        return self

    def digest(self) -> str:
        """Stable hex digest of the full codebook content."""
        payload = json.dumps(
            {
                "name": self.name,
                "definition": self.definition_text,
                "instructions": self.instructions,
                "examples": list(self.labeled_examples),
                "output_instruction": self.output_instruction,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class RenderedPrompt(NamedTuple):
    """System and user message for one document, with a stable 64-bit hash."""

    system_text: str
    user_text: str
    prompt_hash: str


def prompt_digest(system_text: str, user_text: str, model_id: str) -> str:
    """64-bit stable digest of (system_text, user_text, model_id), as hex."""
    h = hashlib.blake2b(digest_size=8)
    for part in (system_text, user_text, model_id):
        data = part.encode("utf-8")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def render(
    codebook: Codebook,
    variant: PromptVariant,
    doc: Document,
    context: str | None = None,
    model_id: str = "",
) -> RenderedPrompt:
    """Render the prompt for one document: ``render_system``, then
    ``render_user``. Pure and deterministic; its ``prompt_hash`` equals
    ``prompt_digest(system_text, user_text, model_id)``."""
    return render_user(render_system(codebook, variant, context), variant, doc, context, model_id)


def render_system(codebook: Codebook, variant: PromptVariant, context: str | None = None) -> tuple[str, hashlib._Hash]:
    """The system text shared by every document with this context, and a
    ``prompt_digest`` state that has absorbed it, for ``render_user``.

    Context-requiring variants place the author/party descriptor in the
    system text; the SYSTEM_USER level additionally prefixes it to the user
    text. The adjusted codebook variant serializes the labeled examples into
    the system text in declaration order.
    """
    if variant.context_level is not ContextLevel.NO_CONTEXT and context is None:
        raise ConfigError(f"variant {variant} requires a context descriptor")

    parts = [codebook.definition_text, codebook.instructions]
    if variant.codebook_variant is CodebookVariant.ADJUSTED:
        if not codebook.labeled_examples:
            raise ConfigError(f"codebook {codebook.name!r} has no examples for the adjusted variant")
        blocks = [f"Text: {text}\nLabel: {label}" for text, label in codebook.labeled_examples]
        parts.append("Examples:\n" + "\n\n".join(blocks))
    if variant.context_level is not ContextLevel.NO_CONTEXT:
        parts.append(f"Context: {context}")
    parts.append(codebook.output_instruction)
    system_text = "\n\n".join(parts)
    data = system_text.encode("utf-8")
    return system_text, hashlib.blake2b(len(data).to_bytes(8, "big") + data, digest_size=8)


def render_user(
    system: tuple[str, hashlib._Hash], variant: PromptVariant, doc: Document, context: str | None, model_id: str
) -> RenderedPrompt:
    """The prompt for one document, from the ``render_system`` result for its context."""
    system_text, h = system[0], system[1].copy()
    user_text = f"Message:\n{doc.text}"
    if variant.context_level is ContextLevel.SYSTEM_USER:
        user_text = f"Context: {context}\n{user_text}"
    for data in (user_text.encode("utf-8"), model_id.encode("utf-8")):
        h.update(len(data).to_bytes(8, "big") + data)
    return RenderedPrompt(system_text=system_text, user_text=user_text, prompt_hash=h.hexdigest())


def default_context_descriptor(doc: Document) -> str:
    """Author/party descriptor built from document metadata alone."""
    party = doc.party_id if doc.party_id else "independent"
    return f"author {doc.author_id}, party {party}, country {doc.country}"


_PLACEHOLDER_EXAMPLES = (
    ("The opposition has failed this country and cannot be trusted to govern.", 1),
    ("Thank you to every volunteer who joined us at the market square today.", 0),
)


def builtin_codebooks() -> Mapping[str, Codebook]:
    """The bundled codebooks: broad, strict, and the main-study wording."""
    return {
        "broad": Codebook(
            name="broad",
            definition_text=(
                "Negative campaigning means the presence of an explicit attack "
                "or critique toward an opponent."
            ),
            instructions=(
                "Read the message and decide whether it contains negative "
                "campaigning as defined above."
            ),
            labeled_examples=_PLACEHOLDER_EXAMPLES,
        ),
        "strict": Codebook(
            name="strict",
            definition_text=(
                "Negative campaigning means an explicit attack on or critique of "
                "an identifiable opponent's record, policies, or character."
            ),
            instructions=(
                "Distinguish between negative tonality and negative campaigning: "
                "general pessimism, complaints about circumstances, or a critical "
                "tone without a target are not negative campaigning. Label 1 only "
                "when the message explicitly attacks or critiques an identifiable "
                "opponent."
            ),
            labeled_examples=_PLACEHOLDER_EXAMPLES
            + (("Times are hard and too many families are struggling to get by.", 0),),
        ),
        "main_study": Codebook(
            name="main_study",
            definition_text=(
                "Negative campaigning means the presence of explicit attack or "
                "critique toward opponent party or candidate."
            ),
            instructions=(
                "Read the message and decide whether it contains negative "
                "campaigning as defined above."
            ),
            labeled_examples=_PLACEHOLDER_EXAMPLES,
        ),
    }


def load_codebook(path: str | Path) -> Codebook:
    """Load a codebook from a JSON file.

    Expected keys: ``definition``, ``instructions``, optional ``examples``
    (list of ``[text, label]`` pairs), optional ``output_instruction``.
    """
    path = Path(path)
    data = load_json_file(path, f"cannot load codebook {path}")
    if not isinstance(data, dict):
        raise ConfigError(f"invalid codebook file {path}: not a JSON object")
    try:
        examples = tuple((str(t), int(l)) for t, l in data.get("examples", []))
        return Codebook(
            name=data.get("name", path.stem),
            definition_text=data["definition"],
            instructions=data["instructions"],
            labeled_examples=examples,
            output_instruction=data.get("output_instruction", OUTPUT_INSTRUCTION),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid codebook file {path}: {exc!r}") from None


def resolve_codebook(name_or_path: str) -> Codebook:
    """Resolve a builtin codebook name, falling back to a file path."""
    builtins = builtin_codebooks()
    if name_or_path in builtins:
        return builtins[name_or_path]
    if Path(name_or_path).is_file():
        return load_codebook(name_or_path)
    raise ConfigError(
        f"unknown codebook {name_or_path!r}; builtins: {', '.join(sorted(builtins))}"
    )
