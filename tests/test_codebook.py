import json

import pytest
from hypothesis import example, given, strategies as st

from helpers import make_doc
from negcamp.codebook import (
    Codebook,
    CodebookVariant,
    ContextLevel,
    PromptVariant,
    builtin_codebooks,
    load_codebook,
    prompt_digest,
    render,
    resolve_codebook,
)
from negcamp.errors import ConfigError

NO_CONTEXT = PromptVariant(ContextLevel.NO_CONTEXT, CodebookVariant.ORIGINAL)
SYSTEM = PromptVariant(ContextLevel.SYSTEM, CodebookVariant.ORIGINAL)
SYSTEM_USER = PromptVariant(ContextLevel.SYSTEM_USER, CodebookVariant.ORIGINAL)
ADJUSTED = PromptVariant(ContextLevel.NO_CONTEXT, CodebookVariant.ADJUSTED)


class TestBuiltins:
    def test_main_study_definition(self):
        book = builtin_codebooks()["main_study"]
        assert "opponent party or candidate" in book.definition_text

    def test_broad_definition(self):
        book = builtin_codebooks()["broad"]
        assert "explicit attack or critique" in book.definition_text
        assert "opponent" in book.definition_text

    def test_strict_distinguishes_tonality(self):
        book = builtin_codebooks()["strict"]
        assert "negative tonality" in book.instructions
        assert "negative campaigning" in book.instructions

    def test_unknown_name_absent(self):
        assert "does_not_exist" not in builtin_codebooks()
        with pytest.raises(ConfigError):
            resolve_codebook("does_not_exist")

    def test_all_builtins_carry_balanced_examples(self):
        for book in builtin_codebooks().values():
            labels = {label for _, label in book.labeled_examples}
            assert labels == {0, 1}


class TestRender:
    def test_no_context_contains_definition_and_text(self):
        doc = make_doc(text="Vote for us!")
        prompt = render(builtin_codebooks()["broad"], NO_CONTEXT, doc)
        assert "explicit attack or critique" in prompt.system_text
        assert "Vote for us!" in prompt.user_text

    def test_system_context_leaves_user_text_alone(self):
        doc = make_doc(text="Vote for us!")
        descriptor = "US Senate candidate, 2018"
        plain = render(builtin_codebooks()["broad"], NO_CONTEXT, doc)
        with_context = render(builtin_codebooks()["broad"], SYSTEM, doc, context=descriptor)
        assert descriptor in with_context.system_text
        assert with_context.user_text == plain.user_text

    def test_system_user_context_prefixes_user_text(self):
        doc = make_doc(text="Vote for us!")
        descriptor = "US Senate candidate, 2018"
        prompt = render(builtin_codebooks()["broad"], SYSTEM_USER, doc, context=descriptor)
        assert descriptor in prompt.system_text
        assert prompt.user_text.startswith(f"Context: {descriptor}")
        assert "Vote for us!" in prompt.user_text

    def test_missing_context_errors(self):
        with pytest.raises(ConfigError, match="context"):
            render(builtin_codebooks()["broad"], SYSTEM, make_doc())

    def test_adjusted_serializes_each_example_once_in_order(self):
        book = builtin_codebooks()["strict"]
        prompt = render(book, ADJUSTED, make_doc(text="hi"))
        positions = []
        for text, label in book.labeled_examples:
            block = f"Text: {text}\nLabel: {label}"
            assert prompt.system_text.count(block) == 1
            positions.append(prompt.system_text.index(block))
        assert positions == sorted(positions)

    def test_original_variant_omits_examples(self):
        book = builtin_codebooks()["strict"]
        prompt = render(book, NO_CONTEXT, make_doc(text="hi"))
        for text, _ in book.labeled_examples:
            assert text not in prompt.system_text

    def test_adjusted_requires_examples(self):
        bare = Codebook(name="bare", definition_text="def", instructions="instr")
        with pytest.raises(ConfigError, match="example"):
            render(bare, ADJUSTED, make_doc())

    def test_render_is_deterministic(self):
        doc = make_doc(text="same text")
        a = render(builtin_codebooks()["main_study"], NO_CONTEXT, doc, model_id="m")
        b = render(builtin_codebooks()["main_study"], NO_CONTEXT, doc, model_id="m")
        assert a == b
        assert a.prompt_hash == b.prompt_hash
        assert len(a.prompt_hash) == 16

    def test_hash_covers_model_id(self):
        doc = make_doc(text="same text")
        a = render(builtin_codebooks()["main_study"], NO_CONTEXT, doc, model_id="model-a")
        b = render(builtin_codebooks()["main_study"], NO_CONTEXT, doc, model_id="model-b")
        assert a.system_text == b.system_text
        assert a.prompt_hash != b.prompt_hash


    @pytest.mark.parametrize(
        "variant", [PromptVariant(c, v) for c in ContextLevel for v in CodebookVariant], ids=str
    )
    @given(text=st.text(), context=st.text(), model_id=st.text())
    @example(text="Größenwahn! Ελλάδα 🗳️\u2028", context="Partei Ø — 政党", model_id="modèle-𝟒o")
    def test_hash_is_prompt_digest_of_the_texts(self, variant, text, context, model_id):
        if variant.context_level is ContextLevel.NO_CONTEXT:
            context = None
        prompt = render(builtin_codebooks()["strict"], variant, make_doc(text=text), context, model_id)
        assert prompt.prompt_hash == prompt_digest(prompt.system_text, prompt.user_text, model_id)


class TestCodebookValidation:
    def test_empty_definition_rejected(self):
        with pytest.raises(ConfigError):
            Codebook(name="x", definition_text="", instructions="i")

    def test_single_class_examples_rejected(self):
        with pytest.raises(ConfigError, match="both labels"):
            Codebook(name="x", definition_text="d", instructions="i", labeled_examples=(("t", 1),))

    def test_load_from_json(self, tmp_path):
        path = tmp_path / "book.json"
        path.write_text(
            json.dumps(
                {
                    "definition": "a definition",
                    "instructions": "some instructions",
                    "examples": [["bad thing", 1], ["nice thing", 0]],
                }
            ),
            encoding="utf-8",
        )
        book = load_codebook(path)
        assert book.name == "book"
        assert book.labeled_examples == (("bad thing", 1), ("nice thing", 0))
        assert resolve_codebook(str(path)).digest() == book.digest()

    @pytest.mark.parametrize("value", [[1], "text", None])
    def test_json_file_not_an_object_rejected(self, tmp_path, value):
        path = tmp_path / "book.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^invalid codebook file .*book\.json: not a JSON object$"):
            load_codebook(path)

    def test_variant_parsing(self):
        variant = PromptVariant.parse("system_user:adjusted")
        assert variant.context_level is ContextLevel.SYSTEM_USER
        assert variant.codebook_variant is CodebookVariant.ADJUSTED
        assert PromptVariant.parse("no_context") == NO_CONTEXT
        with pytest.raises(ConfigError):
            PromptVariant.parse("sideways:original")
