"""Scanning substrate: zmap6- and yarrp-style probing over the simulator.

The paper's measurements rest on two probing tools: zmap with the tumi8
IPv6 extensions for high-speed stateless scanning (Sections 3-6), and
yarrp for the randomized traceroutes behind the CAIDA seed data
(Section 4).  This subpackage reimplements the behaviours the methodology
depends on: random-permutation probe ordering that is reproducible from a
seed, a simulated-time rate model, loss, and last-hop extraction.
"""

from repro.scan.permutation import FeistelPermutation, MultiplicativeCycle
from repro.scan.rate import IcmpRateLimiter, TokenBucket
from repro.scan.targets import one_target_per_subnet
from repro.scan.yarrp import TracerouteRecord, Yarrp
from repro.scan.zmap import ScanConfig, ScanResult, Zmap6

__all__ = [
    "FeistelPermutation",
    "IcmpRateLimiter",
    "MultiplicativeCycle",
    "ScanConfig",
    "ScanResult",
    "TokenBucket",
    "TracerouteRecord",
    "Yarrp",
    "Zmap6",
    "one_target_per_subnet",
]
