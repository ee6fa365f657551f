"""Seeded random dependency treebank for the treebank workloads.

Every sentence is a random tree over a small grammar: a root verb with an
optional subject, object, adverb and oblique phrase, noun phrases with
determiners, adjectives and nested ``nmod`` phrases, and an occasional
coordinated clause after a comma. A share of sentences are verbless noun
fragments whose only edges are ``det``, ``case`` and ``nmod``, so the
``majrel`` mask has no support there and its diagonal fallback runs. Most
sentences, not all, end in a punctuation separator.

Open-class words are drawn with Zipfian frequencies, so document frequency
and therefore the ``rarew`` IDF ranking vary across tokens. The label says
whether the root verb has an ``obj`` dependent. Some verbs always take one,
some never do and some vary, so the label is a deterministic function of the
parse that word identity predicts only in part.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate

import numpy as np

from guided_attention.corpus import Sentence, Token

MAX_TOKENS = 32
LABEL_TRANSITIVE = "trans"
LABEL_INTRANSITIVE = "intr"

_POOL_SIZES = {"n": 400, "vt": 60, "vi": 40, "va": 40, "j": 120, "r": 50}
_DETERMINERS = ("the", "a", "this", "every")
_ADPOSITIONS = ("in", "on", "with", "of", "near")
_PRONOUNS = ("she", "he", "they", "it", "we")
_CONJUNCTIONS = ("and", "or", "but")
_FINAL_PUNCT = (".", ".", ".", ".", "?", "!")


class _Node:
    __slots__ = ("form", "deprel", "left", "right")

    def __init__(self, form: str, deprel: str):
        self.form, self.deprel = form, deprel
        self.left: list[_Node] = []
        self.right: list[_Node] = []


class _Grammar:
    def __init__(self, rng: np.random.Generator, zipf_exponent: float = 1.1):
        self.rng = rng
        self.cdf = {
            pool: list(accumulate(1.0 / (k + 1) ** zipf_exponent for k in range(size)))
            for pool, size in _POOL_SIZES.items()
        }

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    def pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def word(self, pool: str) -> str:
        cdf = self.cdf[pool]
        return f"{pool}{bisect(cdf, self.rng.random() * cdf[-1])}"

    def noun_phrase(self, deprel: str, depth: int = 0) -> _Node:
        head = _Node(self.word("n"), deprel)
        if self.chance(0.7):
            head.left.append(_Node(self.pick(_DETERMINERS), "det"))
        while len(head.left) < 3 and self.chance(0.3):
            head.left.append(_Node(self.word("j"), "amod"))
        if depth < 2 and self.chance(0.15):
            head.right.append(self.prepositional("nmod", depth + 1))
        return head

    def prepositional(self, deprel: str, depth: int) -> _Node:
        phrase = self.noun_phrase(deprel, depth)
        phrase.left.insert(0, _Node(self.pick(_ADPOSITIONS), "case"))
        return phrase

    def clause(self, deprel: str) -> tuple[_Node, bool]:
        kind = self.pick(("vt", "vi", "va"))
        verb = _Node(self.word(kind), deprel)
        has_obj = kind == "vt" or (kind == "va" and self.chance(0.5))
        if self.chance(0.9):
            subject = _Node(self.pick(_PRONOUNS), "nsubj") if self.chance(0.3) else self.noun_phrase("nsubj")
            verb.left.append(subject)
        if self.chance(0.35):
            adverb = _Node(self.word("r"), "advmod")
            (verb.left if self.chance(0.5) else verb.right).append(adverb)
        if has_obj:
            verb.right.append(self.noun_phrase("obj"))
        while len(verb.right) < 4 and self.chance(0.3):
            verb.right.append(self.prepositional("obl", 0))
        return verb, has_obj

    def sentence(self) -> tuple[_Node, str]:
        if self.chance(0.12):
            root = self.noun_phrase("root")
            root.left = [n for n in root.left if n.deprel != "amod"]
            root.right.append(self.prepositional("nmod", 1))
            has_obj = False
        else:
            root, has_obj = self.clause("root")
            if self.chance(0.15):
                conj, _ = self.clause("conj")
                conj.left[:0] = [_Node(",", "punct"), _Node(self.pick(_CONJUNCTIONS), "cc")]
                root.right.append(conj)
        if self.chance(0.85):
            root.right.append(_Node(self.pick(_FINAL_PUNCT), "punct"))
        return root, LABEL_TRANSITIVE if has_obj else LABEL_INTRANSITIVE


def _linearize(root: _Node) -> list[Token]:
    order: list[tuple[_Node, _Node | None]] = []

    def visit(node: _Node, head: _Node | None) -> None:
        for child in node.left:
            visit(child, node)
        order.append((node, head))
        for child in node.right:
            visit(child, node)

    visit(root, None)
    position = {id(node): i + 1 for i, (node, _) in enumerate(order)}
    return [
        Token(form=node.form, index=i + 1, head=0 if head is None else position[id(head)], deprel=node.deprel)
        for i, (node, head) in enumerate(order)
    ]


def generate_treebank(n: int, seed: int, prefix: str) -> list[Sentence]:
    """``n`` labelled, parsed sentences of at most ``MAX_TOKENS`` tokens; deterministic per seed."""
    grammar = _Grammar(np.random.default_rng(seed))
    sentences = []
    while len(sentences) < n:
        root, label = grammar.sentence()
        tokens = _linearize(root)
        if len(tokens) <= MAX_TOKENS:
            sentences.append(Sentence(tokens=tokens, label=label, sent_id=f"{prefix}-{len(sentences) + 1}"))
    return sentences
