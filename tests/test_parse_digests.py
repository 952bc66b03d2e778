"""What the parser makes of a fixed corpus, pinned by one SHA-256 digest.

The corpus is every ``programs/*.stl``, plus the ``pretty_program`` text of
generator seeds 0..499 with and without protected methods, and four seeded
token-level mutants of each of those texts (a token inserted, deleted or
replaced), so that errors and their positions are pinned as well as trees.
Each text contributes ``repr(parse(text))``, or the type, message, line and
column of the ``ParseError`` it raises.

A change to the tokenizer, the descent or name resolution that alters any
tree, error message or position shows here.
"""

import hashlib
import random
import re

from protolite.errors import ParseError
from protolite.generator import GeneratorConfig, generate_program
from protolite.parser import parse
from protolite.syntax import pretty_program

from tests.conftest import PROGRAMS

PARSE_DIGEST = \
    "92b3b9a03d2d30178da8374fb979269cb90ec6a090a73918c01177bca83b4ba1"

SEEDS = range(500)
MUTANTS = 4

# Token spans for the mutator, kept apart from the parser's own tokenizer.
_TOKEN = re.compile(r"\d+|[A-Za-z_]\w*|:=|//[^\n]*|\S")
# What a mutant inserts or substitutes: every keyword and punctuation token,
# names (one reserved), integers, characters outside the language, a comment
# and a line break.
_VOCABULARY = (
    "class", "extends", "fields", "method", "protected", "main", "new", "nil",
    "self", "let", "in", "super", "{", "}", "(", ")", ".", ",", ";", ":", "+",
    "=", ":=", "x", "f", "Object", "__r", "7", "123456789", "@", "/", "\xa0",
    "\x0b", "٣", "// note\n", "\n",
)


def _texts():
    for path in sorted(PROGRAMS.glob("*.stl")):
        yield path.name, path.read_text()
    for config in (GeneratorConfig(), GeneratorConfig(allow_protected=False)):
        for seed in SEEDS:
            yield (f"seed {seed} {config.allow_protected}",
                   pretty_program(generate_program(seed, config)))


def _mutants(name, text):
    rng = random.Random(name)
    spans = [m.span() for m in _TOKEN.finditer(text)]
    for _ in range(MUTANTS):
        start, end = rng.choice(spans)
        how = rng.choice(("insert", "delete", "replace"))
        token = rng.choice(_VOCABULARY)
        if how == "insert":
            yield text[:start] + token + " " + text[start:]
        elif how == "delete":
            yield text[:start] + text[end:]
        else:
            yield text[:start] + token + text[end:]


def _outcome(text):
    try:
        return repr(parse(text))
    except ParseError as err:
        return repr((type(err).__name__, err.message, err.line, err.col))


def parse_lines():
    for name, text in _texts():
        yield f"== {name}\n{_outcome(text)}"
        for i, mutant in enumerate(_mutants(name, text)):
            yield f"== {name} mutant {i}\n{_outcome(mutant)}"


def test_parses_are_pinned():
    assert hashlib.sha256(
        "\n".join(parse_lines()).encode()).hexdigest() == PARSE_DIGEST
