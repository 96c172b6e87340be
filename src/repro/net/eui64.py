"""EUI-64 interface identifiers: the leak at the heart of the paper.

Modified EUI-64 (RFC 4291 appendix A) derives a 64-bit IID from a 48-bit
MAC address by

1. splitting the MAC into OUI (high 24 bits) and NIC (low 24 bits) halves,
2. inserting the literal bytes ``ff:fe`` between them, and
3. flipping the Universal/Local bit (bit 1 of the first octet, which lands
   at bit 57 of the IID).

The transform is a bijection on MACs, so any observer of an EUI-64 IPv6
address can recover the device's exact hardware MAC -- manufacturer OUI
included -- by reversing it.  That static, globally unique identifier is
what lets the paper's attacker follow a CPE across prefix rotations.
"""

from __future__ import annotations

from repro.net.mac import MAC_MAX
from repro.util import np

_FFFE = 0xFFFE
_UL_BIT = 1 << 57  # the MAC's U/L bit, once shifted into IID position

_NIC_MASK = 0xFFFFFF
_OUI_SHIFT = 40  # MAC bits above the NIC half
_IID_OUI_SHIFT = 40  # IID bits above the ff:fe + NIC tail
_FFFE_SHIFT = 24


def mac_to_eui64_iid(mac: int) -> int:
    """Convert a 48-bit MAC int to its modified EUI-64 IID."""
    if not 0 <= mac <= MAC_MAX:
        raise ValueError(f"MAC out of range: {mac:#x}")
    oui = mac >> 24
    nic = mac & _NIC_MASK
    iid = (oui << _IID_OUI_SHIFT) | (_FFFE << _FFFE_SHIFT) | nic
    return iid ^ _UL_BIT


def is_eui64_iid(iid: int) -> bool:
    """True if *iid* has the ``ff:fe`` marker of modified EUI-64.

    This is the same structural test the paper applies to response
    addresses (``isEUI`` in Algorithms 1 and 2): bytes 4-5 of the IID are
    ``0xff, 0xfe``.  A random privacy-extension IID matches with
    probability 2^-16, which the paper treats as negligible.
    """
    if not 0 <= iid < (1 << 64):
        return False
    return (iid >> _FFFE_SHIFT) & 0xFFFF == _FFFE


def eui64_iid_to_mac(iid: int) -> int:
    """Recover the MAC embedded in an EUI-64 IID.

    Raises :class:`ValueError` if *iid* lacks the ``ff:fe`` marker; callers
    should test with :func:`is_eui64_iid` first when the input is untrusted.
    """
    if not is_eui64_iid(iid):
        raise ValueError(f"not an EUI-64 IID: {iid:#018x}")
    flipped = iid ^ _UL_BIT
    oui = flipped >> _IID_OUI_SHIFT
    nic = flipped & _NIC_MASK
    return (oui << 24) | nic


def eui64_mask(lo):
    """:func:`is_eui64_iid` over an IID (low-64) ``uint64`` column."""
    return (lo >> np.uint64(_FFFE_SHIFT)) & np.uint64(0xFFFF) == np.uint64(_FFFE)


def addr_is_eui64(addr: int) -> bool:
    """True if the full 128-bit address carries an EUI-64 IID."""
    return is_eui64_iid(addr & ((1 << 64) - 1))


def addr_to_mac(addr: int) -> int:
    """Recover the MAC embedded in a full EUI-64 IPv6 address."""
    return eui64_iid_to_mac(addr & ((1 << 64) - 1))
