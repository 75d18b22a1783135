import pytest

from capchain.address import ADDRESS_LENGTH, Address, AddressFactory, ZERO_ADDRESS


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
