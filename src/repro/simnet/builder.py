"""Scenario builders: from declarative specs to a probe-able Internet.

:func:`build_internet` turns :class:`InternetSpec` into a fully populated
:class:`SimInternet`.  :func:`build_paper_internet` constructs the default
reproduction scenario: a scaled-down Internet whose AS mix, vendor mixes,
allocation sizes, rotation policies, and pathologies mirror what the
paper measured (Table 1's AS/country ranking, Figure 4's homogeneity,
Figure 5's allocation-size distributions, Section 5.5's pathologies).

Address plan: every named provider carries a representative real-world
/32 (Versatel really is 2001:16b8::/32); synthesized tail ASes draw /32s
from 3a00::/8.  Pools are carved at /44 boundaries from the start of each
provider's /32 so that seed-campaign traceroutes over the low /48s of
each /32 (the scaled CAIDA stand-in) can discover them.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from repro.data.asinfo_db import TAIL_COUNTRIES
from repro.data.oui_db import VENDOR_OUIS
from repro.net.addr import Prefix
from repro.net.mac import parse_oui
from repro.simnet.device import _EUI64, _PRIVACY, AddressingMode, DeviceColumns, ResponsePolicy
from repro.simnet.events import clone_mac_into_ases, switch_provider
from repro.simnet.internet import SimInternet
from repro.simnet.pool import RotationPool
from repro.simnet.provider import Provider
from repro.simnet.rotation import (
    IncrementRotation,
    NoRotation,
    RotationPolicy,
    SequentialAssignment,
    ShuffleRotation,
)

# Pools are carved on /44 boundaries inside each provider /32.
_POOL_SPACING_PLEN = 44
# The seed/expansion campaigns cover this many leading /48s per /32;
# pool carving must stay inside it.
SEED_COVERAGE_48S = 256

_RESPONSE_MIX: tuple[tuple[str, float], ...] = (
    ("admin_prohibited", 0.40),
    ("addr_unreachable", 0.25),
    ("no_route", 0.20),
    ("hop_limit_exceeded", 0.10),
    ("silent", 0.05),
)

_OUIS = {vendor: [parse_oui(text) for text in ouis] for vendor, ouis in VENDOR_OUIS.items()}

_POLICY_FACTORIES = {
    "admin_prohibited": ResponsePolicy.admin_prohibited,
    "addr_unreachable": ResponsePolicy.addr_unreachable,
    "no_route": ResponsePolicy.no_route,
    "hop_limit_exceeded": ResponsePolicy.hop_limit_exceeded,
    "silent": ResponsePolicy.silent,
}


@dataclass(frozen=True)
class PoolSpec:
    """Declarative description of one rotation pool."""

    pool_plen: int = 46
    delegation_plen: int = 56
    occupancy: float = 0.6
    policy: RotationPolicy = field(default_factory=IncrementRotation)

    def __post_init__(self) -> None:
        if not _POOL_SPACING_PLEN <= self.pool_plen <= 56:
            raise ValueError(
                f"pool_plen must be in [{_POOL_SPACING_PLEN}, 56], got {self.pool_plen}"
            )
        if not self.pool_plen <= self.delegation_plen <= 64:
            raise ValueError(
                f"delegation /{self.delegation_plen} outside "
                f"[/{self.pool_plen}, /64]"
            )
        if not 0.0 < self.occupancy <= 1.0:
            raise ValueError(f"occupancy must be in (0, 1], got {self.occupancy}")


@dataclass(frozen=True)
class ProviderSpec:
    """Declarative description of one provider."""

    asn: int
    name: str
    country: str
    pools: tuple[PoolSpec, ...]
    bgp_prefix: str | None = None  # None -> allocate from synthetic space
    vendor_mix: tuple[tuple[str, float], ...] = (("AVM", 1.0),)
    eui64_fraction: float = 0.85
    online_fraction: float = 0.96
    new_since_seed_fraction: float = 0.15
    retired_fraction: float = 0.04
    response_mix: tuple[tuple[str, float], ...] = _RESPONSE_MIX

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError(f"AS{self.asn}: at least one pool required")
        if abs(sum(w for _, w in self.vendor_mix) - 1.0) > 1e-6:
            raise ValueError(f"AS{self.asn}: vendor_mix weights must sum to 1")
        if abs(sum(w for _, w in self.response_mix) - 1.0) > 1e-6:
            raise ValueError(f"AS{self.asn}: response_mix weights must sum to 1")
        unknown = [name for name, _ in self.response_mix if name not in _POLICY_FACTORIES]
        if unknown:
            raise ValueError(f"AS{self.asn}: unknown response policies {unknown}")
        unknown = [name for name, _ in self.vendor_mix if not _OUIS.get(name)]
        if unknown:
            raise ValueError(f"AS{self.asn}: unknown vendors {unknown}")
        for fraction in (
            self.eui64_fraction,
            self.online_fraction,
            self.new_since_seed_fraction,
            self.retired_fraction,
        ):
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"AS{self.asn}: fraction {fraction} outside [0,1]")


@dataclass(frozen=True)
class InternetSpec:
    """A whole simulated Internet: providers plus global timing."""

    providers: tuple[ProviderSpec, ...]
    seed: int = 0
    seed_campaign_hours: float = -365.0 * 24.0  # CAIDA seed ran ~a year early
    campaign_span_hours: float = 44.0 * 24.0


class _DeviceFactory:
    """Allocates unique device ids and vendor MACs (per OUI, serials)."""

    def __init__(self) -> None:
        self.next_id = 1
        self.serials: dict[int, int] = {}

    def next_device_id(self) -> int:
        self.next_id += 1
        return self.next_id - 1


def _draw_customers(
    n: int,
    factory: _DeviceFactory,
    rng: random.Random,
    spec: ProviderSpec,
    internet_spec: InternetSpec,
) -> DeviceColumns:
    """*n* customers' configuration as columns.  Per device, in order:
    a vendor roll and an OUI choice (the MAC is that OUI's next serial),
    an EUI-64 roll, a response-mix roll, then a new-since-seed roll and
    its service start or else a retirement roll and its end.  A roll
    picks the first mix entry whose running weight exceeds it, else the
    last."""
    random_, choice, uniform = rng.random, rng.choice, rng.uniform
    vendor_sums = list(accumulate(weight for _, weight in spec.vendor_mix))
    vendor_ouis = [_OUIS[vendor] for vendor, _ in spec.vendor_mix]
    response_sums = list(accumulate(weight for _, weight in spec.response_mix))
    policies = [_POLICY_FACTORIES[name]() for name, _ in spec.response_mix]
    responses = [(policy.responds, policy.icmp_type, policy.icmp_code) for policy in policies]
    last_vendor, last_response = len(vendor_ouis) - 1, len(responses) - 1
    serials = factory.serials
    eui64, new, retired = spec.eui64_fraction, spec.new_since_seed_fraction, spec.retired_fraction
    seed_hours, span_hours = internet_spec.seed_campaign_hours, internet_spec.campaign_span_hours
    macs, modes, answers, active_from, active_until = [], [], [], [], []
    for _ in range(n):
        oui = choice(vendor_ouis[min(bisect_right(vendor_sums, random_()), last_vendor)])
        serial = serials.get(oui, 0)
        if serial >= 1 << 24:
            raise ValueError(f"OUI {oui:#08x} exhausted")
        serials[oui] = serial + 1
        macs.append(oui << 24 | serial)
        modes.append(_EUI64 if random_() < eui64 else _PRIVACY)
        answers.append(responses[min(bisect_right(response_sums, random_()), last_response)])
        if random_() < new:
            active_from.append(uniform(seed_hours, 0.0))
            active_until.append(math.inf)
        else:
            active_from.append(-math.inf)
            active_until.append(uniform(0.0, span_hours) if random_() < retired else math.inf)
    factory.next_id += n
    responds, kinds, codes = zip(*answers)
    return DeviceColumns(
        n, device_id=range(factory.next_id - n, factory.next_id), mac=macs, mode=modes,
        responds=responds, icmp_type=kinds, icmp_code=codes, active_from=active_from,
        active_until=active_until, online_fraction=[spec.online_fraction] * n,
    )


_TAIL_BASE_TOP32 = 0x3A00_0000


def _allocate_bgp_prefix(spec: ProviderSpec, tail_index: int) -> Prefix:
    if spec.bgp_prefix is not None:
        return Prefix.parse(spec.bgp_prefix)
    top32 = _TAIL_BASE_TOP32 + (tail_index << 8)
    return Prefix(top32 << 96, 32)


def _build_provider(
    spec: ProviderSpec,
    bgp_prefix: Prefix,
    factory: _DeviceFactory,
    rng: random.Random,
    internet_spec: InternetSpec,
) -> Provider:
    provider = Provider(
        asn=spec.asn,
        name=spec.name,
        country=spec.country,
        bgp_prefixes=[bgp_prefix],
    )
    for index, pool_spec in enumerate(spec.pools):
        anchor = bgp_prefix.subnet(index, _POOL_SPACING_PLEN)
        if (index + 1) * (1 << (48 - _POOL_SPACING_PLEN)) > SEED_COVERAGE_48S:
            raise ValueError(
                f"AS{spec.asn}: pool {index} falls outside seed coverage"
            )
        pool_prefix = Prefix(anchor.network, pool_spec.pool_plen)
        pool_key = rng.getrandbits(63) | 1  # drawn before its customers
        nslots = pool_prefix.num_subnets(pool_spec.delegation_plen)
        pool = RotationPool(
            prefix=pool_prefix,
            delegation_plen=pool_spec.delegation_plen,
            policy=pool_spec.policy,
            pool_key=pool_key,
            rows=_draw_customers(
                max(1, int(nslots * pool_spec.occupancy)), factory, rng, spec, internet_spec
            ),
        )
        provider.add_pool(pool)
    return provider


def build_internet(spec: InternetSpec) -> SimInternet:
    """Materialize a simulated Internet from *spec* (deterministic)."""
    rng = random.Random(spec.seed)
    factory = _DeviceFactory()
    providers = []
    tail_index = 0
    for provider_spec in spec.providers:
        bgp_prefix = _allocate_bgp_prefix(provider_spec, tail_index)
        if provider_spec.bgp_prefix is None:
            tail_index += 1
        providers.append(
            _build_provider(provider_spec, bgp_prefix, factory, rng, spec)
        )
    internet = SimInternet(providers)
    internet._device_factory = factory  # scenario mutators may need fresh ids
    return internet


def next_device_id(internet: SimInternet) -> int:
    """Fresh unique device id for post-build scenario events."""
    factory = getattr(internet, "_device_factory", None)
    if factory is not None:
        return factory.next_device_id()
    return 1 + max((d.device_id for d in internet.all_devices()), default=0)


# ---------------------------------------------------------------------------
# The default paper-mix scenario
# ---------------------------------------------------------------------------

_NAMED_PROVIDER_SPECS: tuple[ProviderSpec, ...] = (
    # AS8881 Versatel: Table 1's dominant rotator.  Daily increment
    # rotation inside /46 pools (Figures 9, 10), reassignment staggered
    # over the 00:00-06:00 window, mixed /56 and /64 delegations
    # (Figure 6).
    ProviderSpec(
        asn=8881,
        name="Versatel / 1&1",
        country="DE",
        bgp_prefix="2001:16b8::/32",
        pools=tuple(
            [
                PoolSpec(46, 56, 0.60, IncrementRotation(24.0, 0.0, 6.0))
                for _ in range(7)
            ]
            + [PoolSpec(46, 64, 0.02, IncrementRotation(24.0, 0.0, 6.0))]
        ),
        vendor_mix=(("AVM", 0.92), ("Technicolor", 0.05), ("Sagemcom", 0.03)),
        eui64_fraction=0.90,
    ),
    # AS6799 OTE: second-largest rotator (Greece).
    ProviderSpec(
        asn=6799,
        name="OTE (Hellenic Telecom)",
        country="GR",
        bgp_prefix="2a02:580::/32",
        pools=tuple(
            [PoolSpec(46, 56, 0.55, IncrementRotation(24.0, 1.0, 4.0)) for _ in range(5)]
            + [PoolSpec(48, 60, 0.30, ShuffleRotation(48.0))]
        ),
        vendor_mix=(("ZTE", 0.72), ("Sagemcom", 0.18), ("Huawei", 0.10)),
        eui64_fraction=0.80,
    ),
    ProviderSpec(
        asn=1241,
        name="Forthnet",
        country="GR",
        bgp_prefix="2a02:2148::/32",
        pools=(
            PoolSpec(46, 56, 0.45, IncrementRotation(24.0, 2.0, 4.0)),
            PoolSpec(46, 56, 0.45, IncrementRotation(24.0, 2.0, 4.0)),
        ),
        vendor_mix=(("ZTE", 0.70), ("Technicolor", 0.20), ("Huawei", 0.10)),
    ),
    ProviderSpec(
        asn=9808,
        name="China Mobile Guangdong",
        country="CN",
        bgp_prefix="2409:8000::/32",
        pools=(
            PoolSpec(46, 56, 0.50, ShuffleRotation(24.0, 2.0)),
            PoolSpec(48, 64, 0.06, ShuffleRotation(24.0, 2.0)),
        ),
        vendor_mix=(("Huawei", 0.90), ("ZTE", 0.08), ("FiberHome", 0.02)),
        eui64_fraction=0.75,
    ),
    # AS3320 Deutsche Telekom: rotating /46 pools; also one endpoint of
    # the Figure 12 provider switches.
    ProviderSpec(
        asn=3320,
        name="Deutsche Telekom",
        country="DE",
        bgp_prefix="2003:e2::/32",
        pools=(PoolSpec(46, 56, 0.55, IncrementRotation(24.0, 3.0, 3.0)),),
        vendor_mix=(("AVM", 0.80), ("Sagemcom", 0.15), ("Huawei", 0.05)),
    ),
    # AS8422 NetCologne: the paper's homogeneity exemplar (99.98% AVM).
    ProviderSpec(
        asn=8422,
        name="NetCologne",
        country="DE",
        bgp_prefix="2001:4dd0::/32",
        pools=(PoolSpec(46, 56, 0.55, IncrementRotation(24.0, 2.0, 4.0)),),
        vendor_mix=(("AVM", 0.9990), ("Lancom Systems", 0.0008), ("Zyxel", 0.0002)),
        eui64_fraction=0.92,
    ),
    # AS7552 Viettel: the other homogeneity exemplar (99.6% ZTE); slow
    # rotation (Table 2's IID #1 saw only 2 prefixes in a week).
    ProviderSpec(
        asn=7552,
        name="Viettel Group",
        country="VN",
        bgp_prefix="2405:4800::/32",
        pools=(PoolSpec(48, 56, 0.55, ShuffleRotation(96.0)),),
        vendor_mix=(("ZTE", 0.996), ("Huawei", 0.004)),
        eui64_fraction=0.88,
    ),
    # AS9146 BH Telecom: the /60-allocation exemplar (Figure 3b).
    ProviderSpec(
        asn=9146,
        name="BH Telecom",
        country="BA",
        bgp_prefix="2a03:b240::/32",
        pools=(PoolSpec(48, 60, 0.40, ShuffleRotation(48.0)),),
        vendor_mix=(("Huawei", 0.75), ("ZTE", 0.15), ("Sagemcom", 0.10)),
    ),
    # AS6568 Entel Bolivia: the /56-allocation exemplar (Figure 3a).
    ProviderSpec(
        asn=6568,
        name="Entel Bolivia",
        country="BO",
        bgp_prefix="2800:cd0::/32",
        pools=(
            PoolSpec(47, 56, 0.68, ShuffleRotation(72.0)),
            PoolSpec(47, 56, 0.68, ShuffleRotation(72.0)),
        ),
        vendor_mix=(("Huawei", 0.92), ("ZTE", 0.08)),
    ),
    # AS7682 Starcat: the /64-allocation exemplar (Figure 3c); does not
    # rotate, so its inferred rotation pool collapses to /64.
    ProviderSpec(
        asn=7682,
        name="Starcat Cable Network",
        country="JP",
        bgp_prefix="2405:6580::/32",
        pools=(PoolSpec(48, 64, 0.10, SequentialAssignment()),),
        vendor_mix=(("Sercomm", 0.70), ("MitraStar", 0.30)),
        eui64_fraction=0.85,
    ),
    ProviderSpec(
        asn=56044,
        name="China Mobile Zhejiang",
        country="CN",
        bgp_prefix="2409:8a38::/32",
        pools=(PoolSpec(46, 56, 0.40, ShuffleRotation(48.0)),),
        vendor_mix=(("Huawei", 0.92), ("ZTE", 0.08)),
    ),
    ProviderSpec(
        asn=262557,
        name="Claro Fibra",
        country="BR",
        bgp_prefix="2804:3f08::/32",
        pools=(PoolSpec(48, 56, 0.50, ShuffleRotation(72.0)),),
        vendor_mix=(("Askey", 0.70), ("Arris", 0.20), ("Technicolor", 0.10)),
    ),
    ProviderSpec(
        asn=27699,
        name="Telefonica Brasil",
        country="BR",
        bgp_prefix="2804:14c::/32",
        pools=(
            PoolSpec(46, 56, 0.45, ShuffleRotation(48.0)),
            PoolSpec(48, 64, 0.06, SequentialAssignment()),
        ),
        vendor_mix=(("Askey", 0.40), ("Sagemcom", 0.35), ("Arris", 0.25)),
    ),
    ProviderSpec(
        asn=14868,
        name="Copel Telecom",
        country="BR",
        bgp_prefix="2804:4e8::/32",
        pools=(PoolSpec(48, 56, 0.50, ShuffleRotation(96.0)),),
        vendor_mix=(("Arris", 0.70), ("Technicolor", 0.30)),
    ),
    ProviderSpec(
        asn=10834,
        name="Telefonica de Argentina",
        country="AR",
        bgp_prefix="2800:340::/32",
        pools=(PoolSpec(48, 56, 0.45, ShuffleRotation(72.0)),),
        vendor_mix=(("Sagemcom", 0.70), ("Technicolor", 0.30)),
    ),
    ProviderSpec(
        asn=200924,
        name="Stadtwerke Netz",
        country="DE",
        bgp_prefix="2a0c:9a40::/32",
        pools=(PoolSpec(48, 56, 0.40, IncrementRotation(24.0, 1.0, 2.0)),),
        vendor_mix=(("AVM", 0.90), ("Lancom Systems", 0.10)),
    ),
    # Non-rotating / low-density extras exercised by Sections 4.2 & 5.3.
    ProviderSpec(
        asn=12322,
        name="Free SAS",
        country="FR",
        bgp_prefix="2a01:e00::/32",
        pools=(PoolSpec(46, 56, 0.50, NoRotation()),),
        vendor_mix=(("Sagemcom", 0.75), ("Technicolor", 0.25)),
    ),
    ProviderSpec(
        asn=6057,
        name="Antel Uruguay",
        country="UY",
        bgp_prefix="2800:a0::/32",
        pools=(PoolSpec(48, 56, 0.45, ShuffleRotation(72.0)),),
        vendor_mix=(("ZTE", 0.92), ("Huawei", 0.08)),
    ),
    # A provider that delegates whole /48s to end sites: the low-density
    # class that Section 4.2's threshold filters out.
    ProviderSpec(
        asn=3462,
        name="Chunghwa Telecom",
        country="TW",
        bgp_prefix="2001:b000::/32",
        pools=(PoolSpec(44, 48, 0.50, NoRotation()),),
        vendor_mix=(("Zyxel", 0.60), ("D-Link", 0.40)),
    ),
    ProviderSpec(
        asn=12389,
        name="Rostelecom",
        country="RU",
        bgp_prefix="2a02:2690::/32",
        pools=(PoolSpec(48, 60, 0.35, ShuffleRotation(96.0)),),
        vendor_mix=(("Huawei", 0.70), ("ZTE", 0.20), ("TP-Link", 0.10)),
    ),
    ProviderSpec(
        asn=4134,
        name="China Telecom",
        country="CN",
        bgp_prefix="240e:100::/32",
        pools=(PoolSpec(46, 56, 0.35, ShuffleRotation(48.0)),),
        vendor_mix=(("Huawei", 0.68), ("ZTE", 0.22), ("FiberHome", 0.10)),
        eui64_fraction=0.70,
    ),
    ProviderSpec(
        asn=6057 + 60000,  # AS66057, a second Uruguayan eyeball network
        name="Montevideo Cable",
        country="UY",
        bgp_prefix="2800:b00::/32",
        pools=(PoolSpec(48, 56, 0.40, NoRotation()),),
        vendor_mix=(("ZTE", 0.80), ("Huawei", 0.20)),
    ),
)

_TAIL_VENDOR_POOL = (
    "AVM",
    "ZTE",
    "Huawei",
    "Sagemcom",
    "Arris",
    "Technicolor",
    "TP-Link",
    "Zyxel",
    "Sercomm",
    "Askey",
    "Netgear",
    "D-Link",
    "MitraStar",
    "Compal Broadband",
    "Calix",
    "Nokia",
)

# Dominant-vendor share distribution shaping Figure 4's homogeneity CDF:
# half the ASes above 0.9, three quarters above ~0.67.
_TAIL_DOMINANCE = (0.995, 0.98, 0.95, 0.92, 0.91, 0.86, 0.78, 0.68, 0.55, 0.40)


def _tail_provider_spec(index: int, rng: random.Random) -> ProviderSpec:
    countries = [c for c, w in TAIL_COUNTRIES for _ in range(w)]
    country = countries[index % len(countries)]
    dominant = rng.choice(_TAIL_VENDOR_POOL)
    second = rng.choice([v for v in _TAIL_VENDOR_POOL if v != dominant])
    third = rng.choice([v for v in _TAIL_VENDOR_POOL if v not in (dominant, second)])
    share = rng.choice(_TAIL_DOMINANCE)
    rest = 1.0 - share
    vendor_mix = ((dominant, share), (second, rest * 0.7), (third, rest * 0.3))

    # Class mix tuned so the device-weighted allocation-size distribution
    # lands near Figure 5a (/56 plurality ~40%, /64 ~30%, /60 inflection)
    # and the AS-weighted one near Figure 5b (~half of ASes at /56).
    roll = rng.random()
    if roll < 0.35:
        delegation, pool_plen, occupancy = 56, 46, 0.55
    elif roll < 0.55:
        delegation, pool_plen, occupancy = 56, 48, 0.50
    elif roll < 0.77:
        delegation, pool_plen, occupancy = 64, 48, 0.06
    elif roll < 0.92:
        delegation, pool_plen, occupancy = 60, 48, 0.25
    else:
        delegation, pool_plen, occupancy = 48, 44, 0.50  # /48-to-endsite, low density

    policy: RotationPolicy
    policy_roll = rng.random()
    if policy_roll < 0.45:
        # Non-rotators; /64-per-customer providers assign sequentially.
        policy = SequentialAssignment() if delegation == 64 else NoRotation()
    elif policy_roll < 0.75:
        policy = IncrementRotation(24.0, rng.uniform(0, 5), rng.uniform(1, 5))
    else:
        policy = ShuffleRotation(rng.choice([24.0, 48.0, 72.0, 96.0]))

    return ProviderSpec(
        asn=64512 + index,
        name=f"Tail ISP {index}",
        country=country,
        pools=(PoolSpec(pool_plen, delegation, occupancy, policy),),
        vendor_mix=vendor_mix,
        eui64_fraction=rng.uniform(0.6, 0.95),
    )


def paper_internet_spec(seed: int = 0, n_tail_ases: int = 90) -> InternetSpec:
    """The spec behind :func:`build_paper_internet` (inspectable)."""
    rng = random.Random(seed ^ 0x7A11)
    tail = tuple(_tail_provider_spec(i, rng) for i in range(n_tail_ases))
    return InternetSpec(providers=_NAMED_PROVIDER_SPECS + tail, seed=seed)


def build_paper_internet(seed: int = 0, n_tail_ases: int = 90) -> SimInternet:
    """Build the default reproduction scenario, pathologies included."""
    internet = build_internet(paper_internet_spec(seed, n_tail_ases))

    # Section 5.5 pathology: the all-zero default MAC, seen in 12 ASes.
    twelve = [p.asn for p in internet.providers[:12]]
    clone_mac_into_ases(internet, 0, twelve, first_device_id=next_device_id(internet))

    # Figure 11 pathology: one vendor MAC reused on several continents.
    reused_mac = parse_oui(VENDOR_OUIS["ZTE"][0]) << 24 | 0x7E57E5
    continents = [6057, 7552, 9146, 14868, 4134, 12389, 12322]
    clone_mac_into_ases(
        internet, reused_mac, continents, first_device_id=next_device_id(internet)
    )

    # Figure 12: two customers switching between the German ISPs --
    # AS3320 -> AS8881 in early August (day ~10) and AS8881 -> AS3320 in
    # early September (day ~38).
    switch_candidates = _pick_switch_devices(internet)
    if len(switch_candidates) >= 2:
        (dev_a, _), (dev_b, _) = switch_candidates[0], switch_candidates[1]
        switch_provider(
            internet, dev_a, from_asn=3320, to_asn=8881,
            at_hours=6 * 24.0, next_device_id=next_device_id(internet),
        )
        switch_provider(
            internet, dev_b, from_asn=8881, to_asn=3320,
            at_hours=38 * 24.0, next_device_id=next_device_id(internet),
        )
    return internet


def _pick_switch_devices(internet: SimInternet) -> list[tuple[int, int]]:
    """(device_id, asn) of always-active EUI-64 devices to switch (Fig 12)."""
    picks: list[tuple[int, int]] = []
    for asn in (3320, 8881):
        provider = internet.provider_of_asn(asn)
        if provider is None:
            continue
        for device in (device for pool in provider.pools for device in pool.devices):
            if (
                device.addressing is AddressingMode.EUI64
                and device.policy.responds
                and device.active_from_hours == -math.inf
                and device.active_until_hours == math.inf
            ):
                picks.append((device.device_id, asn))
                break
    return picks
