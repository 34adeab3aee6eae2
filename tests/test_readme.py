"""Every file-format example in README.md parses."""

import re
from pathlib import Path

import pytest

from torsionlab import (
    parse_complex,
    parse_presentation,
    parse_representation,
    parse_spectrum,
)

README = Path(__file__).resolve().parent.parent / "README.md"

FENCE = re.compile(r"^```(pres|rep|cw|spec)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def examples(kind):
    return [body for k, body in FENCE.findall(README.read_text()) if k == kind]


@pytest.mark.parametrize("kind", ["pres", "rep", "cw", "spec"])
def test_every_format_has_an_example(kind):
    assert examples(kind)


@pytest.mark.parametrize("text", examples("pres"))
def test_presentation_examples(text):
    parse_presentation(text)


@pytest.mark.parametrize("text", examples("rep"))
def test_representation_examples_are_reps_of_the_presentation_example(text):
    pres = parse_presentation(examples("pres")[0])
    rep = parse_representation(text, pres.generator_names)
    rep.validate_against(pres, [rep.of_word(r) for r in pres.relators])


@pytest.mark.parametrize("text", examples("cw"))
def test_complex_examples(text):
    parse_complex(text)


@pytest.mark.parametrize("text", examples("spec"))
def test_spectrum_examples(text):
    parse_spectrum(text)
