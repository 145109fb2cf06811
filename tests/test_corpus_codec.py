"""The typed corpus codec (``RPCS``): exact round trips, canonical bytes.

A snapshot's ``corpus`` section decodes straight to model objects
(:func:`~repro.persistence.codec.decode_corpus_section`).  Every decoded
source must equal ``Source.from_dict(source.to_dict())`` field by field
and type by type — the transient ``content_revision`` and ``touch_count``
included — for generator output and for adversarial values (non-ASCII
text, lone surrogates, ``-0.0``, ``inf``, ``nan``, integers beyond 64
bits, integers in float fields, users keyed apart from their ids).  The
encoding is canonical (``encode(decode(b)) == b``), its bytes are pinned
by a golden digest, and input the codec cannot interpret raises
:class:`~repro.errors.CorruptSnapshotError`, never a lower-level error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CorruptSnapshotError, PersistenceError
from repro.persistence.codec import (
    decode_corpus_section,
    encode_corpus_section,
    join_corpus_section,
)
from repro.sources.generators import SourceGenerator, SourceSpec
from repro.sources.models import (
    AccountKind,
    Discussion,
    Interaction,
    InteractionType,
    Post,
    Source,
    SourceType,
    UserProfile,
)

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _same(left, right, where: str = "source") -> None:
    """Equal field by field, types included; floats bit for bit."""
    assert type(left) is type(right), where
    if dataclasses.is_dataclass(left):
        for item in dataclasses.fields(left):
            if item.name != "_mutation_watchers":
                _same(getattr(left, item.name), getattr(right, item.name), f"{where}.{item.name}")
    elif isinstance(left, float):
        assert struct.pack("<d", left) == struct.pack("<d", right), where
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), where
        for at, (a, b) in enumerate(zip(left, right)):
            _same(a, b, f"{where}[{at}]")
    elif isinstance(left, dict):
        assert list(left) == list(right), where
        for key in left:
            _same(left[key], right[key], f"{where}[{key!r}]")
    else:
        assert left == right, where


def _round_trips(sources: list[Source]) -> list[Source]:
    section = encode_corpus_section(sources)
    decoded = decode_corpus_section(section)
    for source, twin in zip(sources, decoded, strict=True):
        _same(twin, Source.from_dict(source.to_dict()))
    return decoded


def _canonical(sources: list[Source]) -> None:
    section = encode_corpus_section(sources)
    assert encode_corpus_section(_round_trips(sources)) == section


texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["\ud800", "a\udfffb", "café 東京", "\x00", ""]),
)
optional_texts = st.one_of(st.none(), texts)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan")]),
    st.integers(min_value=-(2**60), max_value=2**60),
)
counts = st.one_of(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(max_value=-1),
    st.booleans(),
)
flags = st.one_of(st.booleans(), st.integers(min_value=0, max_value=3))

posts = st.builds(
    Post,
    post_id=texts,
    author_id=texts,
    day=floats,
    text=texts,
    category=optional_texts,
    tags=st.lists(texts, max_size=3).map(tuple),
    location=optional_texts,
    on_topic=flags,
    read_count=counts,
    feedback_count=counts,
    reply_count=counts,
)
discussions = st.builds(
    Discussion,
    discussion_id=texts,
    category=texts,
    title=texts,
    opened_at=floats,
    posts=st.lists(posts, max_size=4),
    is_open=flags,
    on_topic=flags,
)
users = st.builds(
    UserProfile,
    user_id=st.sampled_from(["u1", "u2", "ü3"]),
    name=texts,
    registered_at=floats,
    location=optional_texts,
    account_kind=st.sampled_from(list(AccountKind)),
)
interactions = st.builds(
    Interaction,
    interaction_type=st.sampled_from(list(InteractionType)),
    actor_id=texts,
    target_user_id=texts,
    day=floats,
    post_id=optional_texts,
)


@st.composite
def sources(draw) -> Source:
    source = Source(
        source_id=draw(texts),
        name=draw(texts),
        url=draw(texts),
        source_type=draw(st.sampled_from(list(SourceType))),
        categories=tuple(draw(st.lists(texts, max_size=3))),
        discussions=draw(st.lists(discussions, max_size=3)),
        users={user.user_id: user for user in draw(st.lists(users, max_size=4))},
        interactions=draw(st.lists(interactions, max_size=4)),
        created_at=draw(floats),
        observation_day=draw(floats),
        latent_popularity=draw(floats),
        latent_engagement=draw(floats),
        latent_stickiness=draw(floats),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        source.touch()
    return source


@_SETTINGS
@given(st.lists(sources(), max_size=3))
def test_adversarial_sources_round_trip_exactly(built):
    _canonical(built)


@_SETTINGS
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(list(SourceType)),
)
def test_generated_sources_round_trip_exactly(seed, budget, source_type):
    spec = SourceSpec(
        source_id=f"gen-{seed}", source_type=source_type,
        discussion_budget=budget, user_budget=budget,
    )
    _canonical([SourceGenerator(spec, seed=seed).generate()])


def test_users_keyed_apart_from_their_ids_decode_as_from_dict_rekeys_them():
    source = _golden_corpus()[0]
    first, second = source.users.values()
    source.users = {"a": first, "b": dataclasses.replace(second, user_id="u1")}
    twin = _round_trips([source])[0]
    assert list(twin.users) == ["u1"] and twin.content_revision == 2


def test_an_empty_corpus_round_trips():
    section = encode_corpus_section([])
    assert section == b"RPCS\x00\x00\x00\x00"
    assert decode_corpus_section(section) == []


def test_a_live_int_in_a_float_field_encodes_like_its_decoded_twin():
    source = _golden_corpus()[0]
    source.discussions[0].posts[0].day = 3
    twin = decode_corpus_section(encode_corpus_section([source]))[0]
    assert twin.discussions[0].posts[0].day == 3.0
    assert type(twin.discussions[0].posts[0].day) is float
    assert encode_corpus_section([source]) == encode_corpus_section([twin])


def test_a_value_no_coercion_accepts_raises_before_anything_is_written():
    source = _golden_corpus()[0]
    source.discussions[0].posts[0].read_count = float("nan")
    with pytest.raises(PersistenceError, match="cannot be encoded"):
        encode_corpus_section([source])
    source.discussions[0].posts[0].read_count = 0
    source.interactions[0].day = "not a day"
    with pytest.raises(PersistenceError, match="cannot be encoded"):
        encode_corpus_section([source])


def test_decoded_blocks_splice_back_into_the_section():
    section = encode_corpus_section(_golden_corpus())
    blocks: list = []
    decode_corpus_section(section, blocks=blocks)
    assert [len(threads) for _, threads in blocks] == [2, 0]
    assert join_corpus_section(blocks) == section


def _golden_corpus() -> list[Source]:
    """Two hand-built sources covering every field kind."""
    first = Source(
        source_id="golden-blog",
        name="Golden Blog",
        url="https://golden.example.org",
        source_type=SourceType.BLOG,
        categories=("travel", "food"),
        created_at=1.5,
        observation_day=365.0,
        latent_popularity=0.25,
        latent_engagement=0.5,
        latent_stickiness=0.75,
    )
    first.add_user(UserProfile("u1", "Ann", registered_at=2.0, location="Milan"))
    first.add_user(UserProfile("u2", "Bøb", account_kind=AccountKind.BRAND))
    first.add_discussion(
        Discussion(
            "d1", "travel", "Where to eat in Milan", 3.0,
            posts=[
                Post("p1", "u1", 3.0, "risotto, café", "travel", ("food", "milan"),
                     "Milan", True, 12, 1, 2),
                Post("p2", "u2", 4.25, "-0.0 is a day too", None, (), None, False, 0, 0, 0),
            ],
        )
    )
    first.add_discussion(Discussion("d2", "food", "Empty thread", -0.0, is_open=False))
    first.add_interaction(Interaction(InteractionType.LIKE, "u2", "u1", 4.5, "p1"))
    first.add_interaction(Interaction(InteractionType.MENTION, "u1", "u2", 5.0))
    second = Source(
        source_id="golden-forum",
        name="Golden Forum",
        url="https://forum.example.org",
        source_type=SourceType.FORUM,
    )
    return [first, second]


def test_the_encoding_of_a_hand_built_corpus_is_pinned():
    section = encode_corpus_section(_golden_corpus())
    assert hashlib.sha256(section).hexdigest() == GOLDEN_SHA256
    _canonical(_golden_corpus())


#: Change only with a deliberate format change (and a reader for the old one).
GOLDEN_SHA256 = "c909758fc5e41445e54f88d3e0b0928da38883828e0f834481f26198568fcea9"


def test_every_truncation_and_trailing_byte_is_corruption():
    section = encode_corpus_section(_golden_corpus())
    for end in range(len(section)):
        with pytest.raises(CorruptSnapshotError):
            decode_corpus_section(section[:end])
    with pytest.raises(CorruptSnapshotError, match="trailing"):
        decode_corpus_section(section + b"\x00")


def test_flipped_bytes_decode_or_raise_corruption():
    section = encode_corpus_section(_golden_corpus())
    rng = random.Random(5)
    for offset in range(len(section)):
        damaged = bytearray(section)
        damaged[offset] ^= 1 << rng.randrange(8)
        try:
            decode_corpus_section(bytes(damaged))
        except CorruptSnapshotError:
            pass
