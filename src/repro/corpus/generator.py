"""Full email synthesis: bodies from the language models, plus headers.

Headers matter to the threat model: the contamination assumption gives
the attacker control over *bodies only* (Section 2.2), and the
tokenizer emits header tokens under distinct prefixes, so legitimate
header vocabulary stays clean during attacks.  The generator therefore
produces realistic header blocks — sender addresses from per-class
domain pools, subjects drawn from the same language model as the body,
date/message-id plumbing — so that header evidence behaves the way it
does in the paper's TREC data.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.rng import SeedSpawner
from repro.corpus.language_model import HamLanguageModel, SpamLanguageModel
from repro.corpus.vocabulary import Vocabulary
from repro.spambayes.message import Email

__all__ = ["GeneratorConfig", "EmailGenerator"]

_LINE_WIDTH = 72


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of email synthesis (shapes only; content comes from LMs)."""

    victim_address: str = "victim@corp.example.com"
    ham_domains: tuple[str, ...] = (
        "corp.example.com",
        "partners.example.net",
        "example-trading.com",
    )
    spam_domain_count: int = 120
    spam_url_probability: float = 0.6
    spam_money_probability: float = 0.4
    ham_signature_entities: int = 3
    subject_tokens: tuple[int, int] = (3, 7)
    topic_count: int = 40

    def __post_init__(self) -> None:
        if not 0.0 <= self.spam_url_probability <= 1.0:
            raise ConfigurationError("spam_url_probability must be in [0, 1]")
        if not 0.0 <= self.spam_money_probability <= 1.0:
            raise ConfigurationError("spam_money_probability must be in [0, 1]")
        low, high = self.subject_tokens
        if not 1 <= low <= high:
            raise ConfigurationError("subject_tokens must be an increasing pair >= 1")


_LIVE: "weakref.WeakValueDictionary[tuple, EmailGenerator]" = weakref.WeakValueDictionary()
"""The live generators over a seeded vocabulary in this process, by
``(profile, vocabulary seed, config, seed)``.  Weak, so a dropped
corpus is freed; a forked worker inherits the parent's entries."""


def _seeded_generator(
    vocabulary: Vocabulary, config: GeneratorConfig, seed: int
) -> "EmailGenerator":
    """The unpickling side of :meth:`EmailGenerator.__reduce__`."""
    if vocabulary.seeded:
        live = _LIVE.get((vocabulary.profile, vocabulary.seed, config, seed))
        if live is not None:
            return live
    return EmailGenerator(vocabulary, config, seed)


class EmailGenerator:
    """Deterministic ham/spam :class:`Email` factory.

    ``ham_email(i)`` / ``spam_email(i)`` are pure functions of
    ``(vocabulary, config, seed, i)`` — message ``i`` is identical no
    matter how many siblings are generated or in what order, which is
    what makes fold/experiment resampling reproducible.

    So a generator pickles as ``(vocabulary, config, seed)`` (a built
    vocabulary as its ``(profile, seed)``) and unpickles to this
    process's live generator for that key when there is one.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        config: GeneratorConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.vocabulary = vocabulary
        self.config = config or GeneratorConfig()
        self.seed = seed
        self._spawner = SeedSpawner(seed).spawn("email-generator")
        self.ham_model = HamLanguageModel(vocabulary, topic_count=self.config.topic_count)
        self.spam_model = SpamLanguageModel(vocabulary)
        domain_rng = self._spawner.rng("spam-domains")
        entity_pool = vocabulary.entity or ("spamco",)
        self._spam_domains = tuple(
            f"{domain_rng.choice(entity_pool)}.{domain_rng.choice(('biz', 'info', 'net', 'com'))}"
            for _ in range(self.config.spam_domain_count)
        )
        if vocabulary.seeded:
            _LIVE[vocabulary.profile, vocabulary.seed, self.config, seed] = self

    def __reduce__(self):
        return (_seeded_generator, (self.vocabulary, self.config, self.seed))

    # ------------------------------------------------------------------
    # Public factories
    # ------------------------------------------------------------------

    @staticmethod
    def msgid(is_spam: bool, index: int) -> str:
        """The msgid of message ``index`` of one class, without generating it."""
        return f"{'spam' if is_spam else 'ham'}-{index:06d}"

    def ham_email(self, index: int) -> Email:
        """Generate ham message ``index``."""
        rng = self._spawner.rng(f"ham[{index}]")
        config = self.config
        tokens = self.ham_model.sample_body_tokens(rng)
        entities = [
            rng.choice(self.vocabulary.entity)
            for _ in range(config.ham_signature_entities)
        ] if self.vocabulary.entity else []
        body = self._render_body(tokens + entities)
        sender_name = rng.choice(self.vocabulary.entity) if self.vocabulary.entity else "sender"
        sender = f"{sender_name}@{rng.choice(config.ham_domains)}"
        subject = " ".join(self._subject_tokens(rng, self.ham_model.base))
        headers = [
            ("From", sender),
            ("To", config.victim_address),
            ("Subject", subject),
            ("Date", self._date_header(rng)),
            ("Message-ID", f"<ham-{index}@{rng.choice(config.ham_domains)}>"),
            ("X-Mailer", rng.choice(("Outlook 9.0", "Evolution 1.4", "Mutt 1.5"))),
        ]
        return Email(body=body, headers=headers, msgid=self.msgid(False, index))

    def spam_email(self, index: int) -> Email:
        """Generate spam message ``index``."""
        rng = self._spawner.rng(f"spam[{index}]")
        config = self.config
        tokens = self.spam_model.sample_body_tokens(rng)
        extras: list[str] = []
        if rng.random() < config.spam_url_probability:
            host = rng.choice(self._spam_domains)
            path = rng.choice(("offer", "deal", "win", "free", "click"))
            extras.append(f"http://{host}/{path}{rng.randrange(100)}")
        if rng.random() < config.spam_money_probability:
            extras.append(f"${rng.randrange(10, 5000)}")
        body = self._render_body(tokens + extras)
        domain = rng.choice(self._spam_domains)
        local = rng.choice(self.vocabulary.entity) if self.vocabulary.entity else "promo"
        subject = " ".join(self._subject_tokens(rng, self.spam_model.base))
        headers = [
            ("From", f"{local}@{domain}"),
            ("To", config.victim_address),
            ("Subject", subject),
            ("Date", self._date_header(rng)),
            ("Message-ID", f"<spam-{index}@{domain}>"),
        ]
        return Email(body=body, headers=headers, msgid=self.msgid(True, index))

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    def _subject_tokens(self, rng: random.Random, model) -> list[str]:
        low, high = self.config.subject_tokens
        return model.sample(rng, rng.randint(low, high))

    @staticmethod
    def _date_header(rng: random.Random) -> str:
        day = rng.randrange(1, 29)
        month = rng.choice(
            ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
        )
        hour, minute, second = rng.randrange(24), rng.randrange(60), rng.randrange(60)
        return f"{day} {month} 2005 {hour:02d}:{minute:02d}:{second:02d} -0000"

    @staticmethod
    def _render_body(tokens: list[str]) -> str:
        """Greedy-wrap tokens into lines of at most ``_LINE_WIDTH``
        characters (a longer token gets a line of its own)."""
        lines: list[str] = []
        current: list[str] = []
        width = 0
        for word in tokens:
            size = len(word) + 1
            if width + size > _LINE_WIDTH and current:
                lines.append(" ".join(current))
                current = [word]
                width = size
            else:
                current.append(word)
                width += size
        if current:
            lines.append(" ".join(current))
        return "\n".join(lines)
