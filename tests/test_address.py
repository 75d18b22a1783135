import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capchain.address import ADDRESS_LENGTH, Address, AddressFactory, ZERO_ADDRESS

from reference_models import ReferenceAddress


def test_rendering_is_42_char_lowercase_hex():
    addr = Address(bytes(range(20)))
    assert addr.hex.startswith("0x")
    assert len(addr.hex) == 42
    assert addr.hex == addr.hex.lower()


def test_round_trip_is_bit_exact():
    addr = Address(b"\xaa\x09\xc6\xd6\x59\x08\xe5\x4b\xf6\x95"
                   b"\x74\x88\x12\xc5\x1d\x8f\x2c\xee\xa0\xf5")
    assert Address.from_hex(addr.hex) == addr
    assert Address.from_hex(addr.hex).raw == addr.raw


def test_zero_address_reserved():
    assert ZERO_ADDRESS.is_zero
    assert ZERO_ADDRESS.hex == "0x" + "00" * ADDRESS_LENGTH


@pytest.mark.parametrize("value", [6, None])
def test_from_hex_rejects_non_string(value):
    with pytest.raises(TypeError):
        Address.from_hex(value)


@pytest.mark.parametrize("raw", [b"", b"\x01" * 19, b"\x01" * 21])
def test_wrong_length_rejected(raw):
    with pytest.raises(ValueError):
        Address(raw)


def test_from_hex_rejects_wrong_length():
    with pytest.raises(ValueError):
        Address.from_hex("0x1234")


def test_factory_is_deterministic():
    a = AddressFactory(99).new_addresses(5)
    b = AddressFactory(99).new_addresses(5)
    assert a == b
    assert len(set(a)) == 5
    assert not any(addr.is_zero for addr in a)


def test_factory_seeds_differ():
    assert AddressFactory(1).new_address() != AddressFactory(2).new_address()


# -- interning, checked against the frozen dataclass it replaced ---------------

PREFIXES = ("0x", "0X", "")


def outcome(make, value):
    """``make(value)``, or the type of the exception it raised."""
    try:
        return make(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


def rendered(raw, prefix, upper):
    digits = raw.hex()
    return prefix + (digits.upper() if upper else digits)


hex_texts = st.one_of(
    # right and wrong lengths, each prefix, either case
    st.builds(rendered, st.binary(min_size=18, max_size=22), st.sampled_from(PREFIXES),
              st.booleans()),
    # non-hex characters, spaces included, near the right length
    st.builds(str.__add__, st.sampled_from(PREFIXES),
              st.text(alphabet="0123456789abcdefABCDEFgxX -", min_size=38, max_size=42)),
    st.text(max_size=44),
    # not strings
    st.none(), st.integers(), st.binary(max_size=42), st.floats(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
raw_values = st.one_of(st.binary(min_size=19, max_size=21), st.binary(max_size=24),
                       st.text(max_size=20), st.none(), st.integers(),
                       st.builds(bytearray, st.binary(min_size=20, max_size=20)),
                       st.lists(st.integers(0, 255), min_size=20, max_size=20))


@settings(max_examples=300, deadline=None)
@given(text=hex_texts)
def test_from_hex_accepts_and_rejects_as_the_reference(text):
    ours, theirs = outcome(Address.from_hex, text), outcome(ReferenceAddress.from_hex, text)
    if isinstance(theirs, type):
        assert ours is theirs
    else:
        assert ours.hex == theirs.hex and ours.raw == theirs.raw
        assert ours is Address(theirs.raw)


@settings(max_examples=300, deadline=None)
@given(raw=raw_values)
def test_constructor_accepts_and_rejects_as_the_reference(raw):
    ours, theirs = outcome(Address, raw), outcome(ReferenceAddress, raw)
    if isinstance(theirs, type):
        assert ours is theirs
    else:
        assert ours.hex == theirs.hex and ours.raw == theirs.raw


@settings(max_examples=100, deadline=None)
@given(raws=st.lists(st.sampled_from([b"\x00" * 20, b"\x01" * 20, bytes(range(20))])
                     | st.binary(min_size=20, max_size=20), min_size=1, max_size=6))
def test_equality_and_hash_agree_with_the_reference(raws):
    # each value built twice, once from bytes and once from its hex text
    ours = [Address(raw) for raw in raws] + \
        [Address.from_hex(rendered(raw, "0X", True)) for raw in raws]
    theirs = [ReferenceAddress(raw) for raw in raws] * 2
    for a, ref_a in zip(ours, theirs):
        for b, ref_b in zip(ours, theirs):
            assert (a == b) is (ref_a == ref_b) is (a is b)
            if a == b:
                assert hash(a) == hash(b) and hash(ref_a) == hash(ref_b)
    assert len(set(ours)) == len(set(theirs))


def test_copies_and_pickles_are_the_same_object():
    addr = AddressFactory(5).new_address()
    assert copy.copy(addr) is addr
    assert copy.deepcopy(addr) is addr
    assert pickle.loads(pickle.dumps(addr)) is addr
    nested = copy.deepcopy({addr: [addr, ZERO_ADDRESS]})
    assert list(nested) == [addr] and nested[addr][0] is addr
    assert nested[addr][1] is ZERO_ADDRESS


def test_fields_cannot_be_assigned_or_deleted():
    addr = Address(bytes(range(20)))
    for name in ("raw", "hex", "other"):
        with pytest.raises(AttributeError):
            setattr(addr, name, b"\x02" * 20)
        with pytest.raises(AttributeError):
            delattr(addr, name)
    assert addr.hex == "0x" + bytes(range(20)).hex()


def test_concurrent_builders_get_one_object_per_value():
    # values no other test builds, so every thread races to intern them
    raws = [b"interning-race-%05d" % i for i in range(2000)]
    texts = ["0x" + raw.hex() for raw in raws]
    start = threading.Barrier(4)
    built = [None] * 4

    def build(slot):
        start.wait()
        made = [Address.from_hex(text) if (slot + i) % 2 else Address(raw)
                for i, (raw, text) in enumerate(zip(raws, texts))]
        built[slot] = made

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, so the builds interleave
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, raw in enumerate(raws):
        assert {id(made[i]) for made in built} == {id(Address(raw))}
