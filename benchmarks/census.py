"""Reachability census: which functions in ``src/repro`` does nothing reach?

    python3 benchmarks/census.py          # regenerate benchmarks/CENSUS.md
    python3 benchmarks/census.py --check  # fail on an unexplained function

The census runs the repository's own consumers of ``src/`` -- the
``BENCHMARK.json`` workloads untraced and traced, the SMALL experiments
report, and every example at ``tiny`` -- with a call hook loaded into
every Python process they start, child processes included.  The hook
appends each ``src/repro`` function to a log the first time it is
called, unbuffered, so a process that is SIGKILLed mid-run (the standby
drill's follower) still reports what it ran.  It rides on
``PYTHONUSERBASE`` as ``usercustomize`` rather than on ``PYTHONPATH``
because the e2e harness starts its follower child with ``PYTHONPATH``
replaced.

Every function in ``src/repro``, listed by AST, keyed
``module:qualname`` and matched on ``co_firstlineno`` (a decorated
function's first decorator line), that no input called must carry
exactly one verdict in :data:`VERDICTS`.  A verdict key is a module
(all of its functions), a function, or a class or enclosing function
(everything under it).  ``--check`` fails on an unreached function
with no verdict or with two, on a verdict that names no function, and
on a category outside :data:`CATEGORIES`; a verdict whose functions are
all reached this run is listed, not failed, so a timing-dependent fault
path cannot flake the gate.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import sysconfig
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUT = HERE / "CENSUS.md"
#: Run length of each workload: long enough for one timed unit.
SECONDS = 2
TIMEOUT_SECONDS = 900

#: The call hook, installed as ``usercustomize`` (see the module doc).
HOOK = """\
import os
import sys
import threading

ROOT = os.environ.get("CENSUS_ROOT")
LOG = os.environ.get("CENSUS_LOG")
if ROOT and LOG:
    fd = os.open(LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            key = (code.co_filename, code.co_firstlineno)
            if key not in seen:
                seen.add(key)
                if key[0].startswith(ROOT):
                    os.write(fd, f"{key[0]}\\t{key[1]}\\n".encode())

    sys.setprofile(hook)
    threading.setprofile(hook)
"""

CATEGORIES = {
    "reference": "a kernel-less or batch path that tests compare against",
    "safety": "an error, validation or fault-recovery path",
    "interface": "a hook a backend, sink, policy or server supplies or calls",
    "entry": "a command-line or deployment entry point",
    "seed": "seed-era API whose seed tests are tier-1's floor",
    "pending": "its consumer is an open ROADMAP item",
}
PENDING = re.compile(r"pending: ROADMAP item (\d+)")

#: ROADMAP item 8's candidates for deletion, confirmed or refuted here.
CANDIDATES = (
    "repro.obs.dashboard",
    "repro.viz.ascii",
    "repro.stream.feeds:MixedFeed",
)

#: Why each function no input reaches stays: ``key: (category, reason)``.
VERDICTS: dict[str, tuple[str, str]] = {
    # -- seed: the seed's library surface, held by its own tier-1 tests
    "repro.bgp.asinfo:AsRegistry": (
        "seed",
        "registry queries beyond the builder's; tests/bgp",
    ),
    "repro.bgp.table": ("seed", "withdraw, per-AS routes, describe; tests/bgp"),
    "repro.bgp.trie:PrefixTrie": (
        "seed",
        "verbs the memoised origin_of never calls; tests/bgp",
    ),
    "repro.core.correlator": ("seed", "the flow-correlation defence; tests/core"),
    "repro.core.density:DensityReport.describe": ("seed", "report text; tests/core"),
    "repro.core.grids:AllocationGrid": (
        "seed",
        "grid queries beside the renderers; tests/core",
    ),
    "repro.core.homogeneity:AsHomogeneity.dominant_vendor": ("seed", "tests/core"),
    "repro.core.predictor": (
        "seed",
        "increment-model prediction; tests/core, integration",
    ),
    "repro.core.records:ProbeObservation.target_net64": ("seed", "seed accessor"),
    "repro.core.records:ObservationStore.add": ("seed", "one-row insert; tests/core"),
    "repro.core.records:ObservationStore.eui64_histories": ("seed", "tests/core"),
    "repro.core.records:ObservationStore.in_prefix": ("seed", "tests/core"),
    "repro.core.records:ObservationStore.targets_of_iid_on_day": ("seed", "tests/core"),
    "repro.core.rotation_detect:RotationDetection.n_rotating": ("seed", "tests/core"),
    "repro.core.search_space": (
        "seed",
        "the search-space bound's arithmetic; tests/core",
    ),
    "repro.core.timeseries:fraction_multi_prefix": ("seed", "tests/core"),
    "repro.core.tracker:IidTrack.ever_rotated": ("seed", "tests/core"),
    "repro.data.asinfo_db:records_by_asn": ("seed", "tests/test_util_clock_data.py"),
    "repro.experiments.ablations": ("seed", "renderers report.py formats itself"),
    "repro.experiments.fig3:Fig3Result.render": (
        "seed",
        "report.py formats fig3 itself",
    ),
    "repro.experiments.fig6:Fig6Result.render": (
        "seed",
        "report.py formats fig6 itself",
    ),
    "repro.experiments.fig9:Fig9Result.render": (
        "seed",
        "report.py formats fig9 itself",
    ),
    "repro.experiments.fig10:Fig10Result.render": (
        "seed",
        "report.py formats fig10 itself",
    ),
    "repro.net.addr": ("seed", "address helpers; tests/net"),
    "repro.net.eui64:addr_to_mac": ("seed", "tests/net"),
    "repro.net.icmpv6": (
        "seed",
        "the ICMPv6 wire codec; simnet answers objects; tests/net",
    ),
    "repro.net.iid": ("seed", "IID classification; tests/net"),
    "repro.net.mac": ("seed", "MAC parse/format helpers; tests/net"),
    "repro.net.oui:OuiRegistry": ("seed", "registry queries; tests/net"),
    "repro.scan.permutation": ("seed", "permutation dunders and first(); tests/scan"),
    "repro.scan.targets": ("seed", "target generators no campaign uses; tests/scan"),
    "repro.scan.zmap:ScanResult": (
        "seed",
        "reply objects, built on request, and the response rate; tests/scan",
    ),
    "repro.scan.zmap:Zmap6.scan_until": (
        "seed",
        "one hunt as one sweep; the tracker batches its days itself; tests/scan",
    ),
    "repro.simnet.clock": ("seed", "clock helpers; tests/test_util_clock_data.py"),
    "repro.simnet.device:_check_fraction": (
        "safety",
        "rejects an online_fraction outside [0,1] when a device is made or "
        "assigned; the builder writes drawn columns; tests/simnet",
    ),
    "repro.simnet.device:CpeDevice.policy": (
        "seed",
        "assigning a device's response policy (the getter is reached); tests/simnet",
    ),
    "repro.simnet.events:retire_device": ("seed", "tests/simnet"),
    "repro.simnet.rotation:RotationPolicy.rotates": ("seed", "tests/simnet"),
    "repro.simnet.rotation:RotationPolicy.slot_of": (
        "seed",
        "scalar slot map; tests/simnet",
    ),
    "repro.simnet.rotation:RotationPolicy.customer_of": (
        "seed",
        "its inverse; tests/simnet",
    ),
    "repro.simnet.rotation:NoRotation": ("seed", "scalar slot map; tests/simnet"),
    "repro.simnet.rotation:SequentialAssignment.slot_of": ("seed", "tests/simnet"),
    "repro.simnet.rotation:ShuffleRotation.slot_of": ("seed", "tests/simnet"),
    "repro.viz.cdf:quantile": ("seed", "tests/viz"),
    # -- reference: the kernel-less or batch paths tests compare against
    "repro.core.allocation": ("reference", "batch oracle; no product path"),
    "repro.core.rotation_pool": ("reference", "batch oracle; no product path"),
    "repro.core.campaign:Campaign.run_streaming.<locals>.deliver": (
        "reference",
        "per-row delivery to a plain callable; test_equivalence checks it",
    ),
    "repro.core.records:ObservationStore.group_eui64_by_asn": (
        "reference",
        "per-AS observation lists for the batch oracles' from_store and tests",
    ),
    "repro.core.records:ObservationStore.extend": (
        "reference",
        "the object currency of extend_columns, how tests build oracle stores",
    ),
    "repro.core.records:ObservationStore.restore_rows": (
        "reference",
        "the JSON engine checkpoint's corpus restore (load_engine)",
    ),
    "repro.store.batch:ColumnBatch": (
        "reference",
        "object and row views of a batch that tests compare columns against",
    ),
    "repro.scan.zmap:ScanStream.__iter__": (
        "reference",
        "lazy per-probe replies: the fuzz harness's reference leg and "
        "test_equivalence hold chunked scans against them",
    ),
    "repro.simnet.internet:SimInternet.probe_many": (
        "reference",
        "one sweep through classify and commit, held against probe_each by tests",
    ),
    "repro.scan.rate:TokenBucket": (
        "reference",
        "the bucket cells' oracle (test_bucket_columns); available(): tests/scan",
    ),
    "repro.scan.rate:IcmpRateLimiter": (
        "reference",
        "one limiter object per bucket: the oracle test_bucket_columns holds cells to",
    ),
    "repro.simnet.pool:RotationPool.allow_many": (
        "reference",
        "one pool's cells walked alone; commit walks the world table's",
    ),
    "repro.stream.checkpoint:save_engine": (
        "reference",
        "engine checkpoints: the fuzz harness pins every restore against them",
    ),
    "repro.stream.checkpoint:load_engine": (
        "reference",
        "engine checkpoints: the fuzz harness pins every restore against them",
    ),
    "repro.stream.engine:StreamEngine._merged_spans": (
        "reference",
        "kernel-less span merge; the no-numpy tier-1 leg runs it",
    ),
    "repro.stream.engine:StreamEngine._each_as": (
        "reference",
        "kernel-less per-AS inferences; the no-numpy tier-1 leg runs it",
    ),
    "repro.stream.engine:StreamEngine._pairs_on": (
        "reference",
        "kernel-less day pairs the set-based close diffs (no-numpy leg)",
    ),
    "repro.stream.columnar:LiveDetection.changed_pairs": (
        "reference",
        "changed pairs as tuples: the kernel-less close folds into them "
        "(no-numpy leg); tests and the fuzz harness read them",
    ),
    "repro.stream.state:ShardState.observe": (
        "reference",
        "the scalar fold: the kernel-less path and the kernel's oracle",
    ),
    "repro.stream.state:lift_family": (
        "reference",
        "kernel-less shards as column records (no-numpy leg)",
    ),
    "repro.stream.state:lift_records": (
        "reference",
        "kernel-less shards as column records (no-numpy leg)",
    ),
    "repro.stream.state:merge_spans": (
        "reference",
        "kernel-less span merge behind the span queries (no-numpy leg)",
    ),
    "repro.stream.state:allocation_inference_from_spans": (
        "reference",
        "kernel-less Algorithm 1 over shard spans (no-numpy leg)",
    ),
    # -- safety: error, validation and fault-recovery paths
    "repro.obs.events:EventLog": ("safety", "context-manager close of the sink"),
    "repro.replicate.follower:ReplicaFollower.__enter__": ("safety", "context manager"),
    "repro.replicate.follower:ReplicaFollower.__exit__": (
        "safety",
        "stops the follower",
    ),
    "repro.replicate.shipper:_Subscriber.clear": ("safety", "outbox overflow"),
    "repro.replicate.shipper:SegmentShipper._resync_locked": (
        "safety",
        "a slow follower's overflow resync",
    ),
    "repro.serve.http:_Handler._error": ("safety", "error answers"),
    "repro.serve.http:_Handler._discard_body": ("safety", "drains or refuses a body"),
    "repro.store.batch:_reject_address": ("safety", "rejects an out-of-range address"),
    "repro.stream.campaign:StreamingCampaign._salvage_store": (
        "safety",
        "commits a caller's store after a mid-campaign crash",
    ),
    "repro.stream.columnar:_match_rows": (
        "safety",
        "the exact diff of rows whose row hashes collide; test_columnar forces it",
    ),
    "repro.stream.columnar:all_logged": (
        "safety",
        "a restored engine's check of its rebuilt close mask: warm_standby "
        "reaches it when its follower promotes mid-day; test_day_edges always",
    ),
    "repro.stream.tracker:LivePursuit": (
        "safety",
        "a pursuit's own checkpoint and resume (state, save, restore, load)",
    ),
    # -- interface: protocol hooks a backend or policy supplies
    "repro.core.records:ObservationStore.days": ("interface", "StoreBackend query"),
    "repro.core.records:ObservationStore.iid_history": (
        "interface",
        "StoreBackend query",
    ),
    "repro.core.records:ObservationStore.stats": ("interface", "StoreBackend query"),
    "repro.replicate.follower:ReplicaFollower.role_info": (
        "interface",
        "the role hook TrackerServer calls on a serving standby",
    ),
    "repro.scan.yarrp:TraceNetwork": ("interface", "Protocol stub"),
    "repro.scan.zmap:ProbeNetwork": ("interface", "Protocol stub"),
    "repro.store.backend:StoreBackend": ("interface", "Protocol stubs"),
    "repro.store.backend:ColumnarBackend": ("interface", "StoreBackend queries"),
    "repro.store.sqlite:SqliteBackend": ("interface", "StoreBackend queries"),
    # -- entry: command-line and deployment entry points
    "repro.replicate.follower:main": ("entry", "python -m repro.replicate.follower"),
    "repro.replicate.follower:ReplicaFollower.promote_campaign": (
        "entry",
        "failover runbook",
    ),
    "repro.replicate.follower:ReplicaFollower.promote_daemon": (
        "entry",
        "failover runbook",
    ),
    "repro.serve.daemon:TrackerDaemon": ("entry", "operator stop (POST /shutdown)"),
    "repro.serve.http:_Handler.do_POST": ("entry", "POST /shutdown"),
    "repro.serve.http:_Handler._get_metrics": ("entry", "GET /metrics, a scraper's"),
    "repro.serve.snapshot:TrackerSnapshot": (
        "entry",
        "in-process reader API and GET /profiles",
    ),
    "repro.util:JsonLogFormatter.format": ("entry", "REPRO_LOG_JSON log lines"),
    # -- pending: the ROADMAP item that gives each its consumer
    "repro.core.records:ObservationStore._timed_scan": (
        "pending: ROADMAP item 1",
        "a telemetered scan; item 1 traces the workloads from inside src",
    ),
    "repro.obs.instruments:ServeInstruments": (
        "pending: ROADMAP item 1",
        "live_service serves untelemetered; item 1 traces it from inside src",
    ),
    "repro.obs.instruments:ReplicationInstruments": (
        "pending: ROADMAP item 1",
        "standby_chain ships untelemetered; item 1 traces it from inside src",
    ),
    "repro.stream.columnar:ColumnarAccumulator.drop_pair_days": (
        "pending: ROADMAP item 4",
        "retain_days pruning; item 4 checks resident pair-days stay flat",
    ),
    "repro.stream.engine:StreamEngine.prune_pair_days": (
        "pending: ROADMAP item 4",
        "retain_days pruning",
    ),
    "repro.stream.state:prune_shard_days": (
        "pending: ROADMAP item 4",
        "retain_days pruning, kernel-less",
    ),
    "repro.experiments.one_bad_apple": (
        "pending: ROADMAP item 5",
        "the passive-feed experiment; item 5 scores it in FIDELITY.json",
    ),
    "repro.experiments.streaming": (
        "pending: ROADMAP item 5",
        "stream-vs-batch comparison; item 5's FIDELITY.json",
    ),
    "repro.simnet.internet:SimInternet.resolve": (
        "pending: ROADMAP item 5",
        "ground truth; item 5 scores the tracker against resolve()",
    ),
    "repro.simnet.provider:Provider": (
        "pending: ROADMAP item 5",
        "ground truth behind SimInternet.resolve",
    ),
    "repro.obs.registry": (
        "pending: ROADMAP item 8",
        "metric verbs no instrument calls (merge, span, quantile, inc, dec)",
    ),
}


@dataclass(frozen=True)
class Function:
    module: str
    qualname: str
    path: str
    line: int  # co_firstlineno: the first decorator's line, else the def's
    end: int

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def list_functions(package: Path = PACKAGE) -> list[Function]:
    """Every ``def`` under *package* (nested and methods included)."""
    functions: list[Function] = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, module, "", str(path.resolve()), functions)
    return functions


def _collect(node, module: str, prefix: str, path: str, out: list) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([child.lineno] + [d.lineno for d in child.decorator_list])
            qualname = prefix + child.name
            out.append(Function(module, qualname, path, line, child.end_lineno))
            _collect(child, module, f"{qualname}.<locals>.", path, out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, f"{prefix}{child.name}.", path, out)
        else:
            _collect(child, module, prefix, path, out)


def covers(key: str, function: Function) -> bool:
    """Whether verdict *key* speaks for *function*."""
    if ":" not in key:
        return function.module == key
    return function.key == key or function.key.startswith(key + ".")


# -- running the inputs ----------------------------------------------------


def install_hook(userbase: Path) -> None:
    """Write the hook where ``PYTHONUSERBASE=userbase`` makes every
    interpreter of this Python import it at start-up."""
    scheme = sysconfig.get_preferred_scheme("user")
    paths = sysconfig.get_paths(scheme, vars={"userbase": str(userbase)})
    site = Path(paths["purelib"])
    site.mkdir(parents=True, exist_ok=True)
    (site / "usercustomize.py").write_text(HOOK)


def hook_env(userbase: Path, root: Path, log: Path, pythonpath: Path) -> dict:
    """The environment of one hooked input: no ambient ``REPRO_*``
    setting, so every run sees the defaults a fresh checkout does."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONUSERBASE=str(userbase),
        CENSUS_ROOT=str(root),
        CENSUS_LOG=str(log),
        PYTHONPATH=str(pythonpath),
    )
    return env


def read_log(log: Path) -> set[tuple[str, int]]:
    """``(resolved path, co_firstlineno)`` of every call the log holds."""
    if not log.exists():
        return set()
    reached = set()
    for row in log.read_text().splitlines():
        path, line = row.rsplit("\t", 1)
        reached.add((os.path.realpath(path), int(line)))
    return reached


def inputs() -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of every consumer the census runs."""
    python = sys.executable
    run_py = str(HERE / "e2e" / "run.py")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in manifest["workloads"]:
        name = workload["name"]
        for trace in ("0", "1"):
            argv = [python, run_py, "--workload", name, "--seconds", str(SECONDS)]
            runs.append((f"e2e {name} --trace {trace}", argv + ["--trace", trace]))
    report = [python, "-m", "repro.experiments.report", "small", "EXPERIMENTS.md"]
    runs.append(("experiments.report small", report))
    for path in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{path.name} tiny", [python, str(path), "tiny"]))
    return runs


def run_inputs(workdir: Path) -> dict[str, set[tuple[str, int]]]:
    """Run every input hooked, each with its own working and temp
    directory under *workdir*; returns what each reached.  A failing
    input stops the census."""
    userbase = workdir / "userbase"
    install_hook(userbase)
    root = os.path.realpath(PACKAGE) + os.sep
    reached = {}
    for index, (name, argv) in enumerate(inputs()):
        log = workdir / f"{index}.log"
        cwd = workdir / f"cwd{index}"
        cwd.mkdir()
        print(f"census: {name}", file=sys.stderr, flush=True)
        env = hook_env(userbase, root, log, SRC)
        env["TMPDIR"] = str(cwd)  # what an example leaves goes with workdir
        result = subprocess.run(
            argv,
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_SECONDS,
        )
        if result.returncode != 0:
            sys.exit(f"census: {name} exited {result.returncode}:\n{result.stderr}")
        reached[name] = read_log(log)
        if not reached[name]:
            sys.exit(f"census: {name} recorded no call; the hook did not load")
    return reached


# -- verdicts --------------------------------------------------------------


def verdict_problems(functions: list[Function], unreached: list[Function]) -> list:
    """Everything ``--check`` fails on."""
    problems = []
    for function in unreached:
        keys = [key for key in VERDICTS if covers(key, function)]
        if len(keys) != 1:
            problems.append(
                f"{function.key} ({function.path}:{function.line}):"
                f" {len(keys)} verdicts {keys}"
            )
    roadmap = (ROOT / "ROADMAP.md").read_text()
    items = {int(n) for n in re.findall(r"^### (\d+)\.", roadmap, re.M)}
    for key, (category, reason) in VERDICTS.items():
        if not any(covers(key, function) for function in functions):
            problems.append(f"verdict names no function: {key}")
        pending = PENDING.fullmatch(category)
        if pending is not None and int(pending.group(1)) not in items:
            problems.append(f"{key}: {category!r} cites no open ROADMAP item")
        elif pending is None and category not in CATEGORIES:
            problems.append(f"{key}: {category!r} is not a fixed category")
        if not reason:
            problems.append(f"{key}: no reason")
    return problems


def _category(verdict: str) -> str:
    return "pending" if PENDING.fullmatch(verdict) else verdict


def _lines(functions) -> int:
    return len({(f.path, n) for f in functions for n in range(f.line, f.end + 1)})


def render(functions: list[Function], reached: dict[str, set]) -> str:
    """``CENSUS.md``."""
    everything = set().union(*reached.values())
    unreached = [f for f in functions if (f.path, f.line) not in everything]
    by_key = {
        key: [f for f in unreached if covers(key, f)] for key in sorted(VERDICTS)
    }
    out = [
        "# Reachability census",
        "",
        "Generated by `python3 benchmarks/census.py` (see its docstring);",
        "CI runs `python3 benchmarks/census.py --check`.  A function is",
        "*reached* when one of the inputs below called it in any process.",
        "",
        "| | functions | lines |",
        "|---|---:|---:|",
        f"| `src/repro` | {len(functions)} | {_lines(functions)} |",
        f"| reached | {len(functions) - len(unreached)} |"
        f" {_lines(functions) - _lines(unreached)} |",
        f"| unreached | {len(unreached)} | {_lines(unreached)} |",
        "",
        "## Inputs",
        "",
        "| input | functions reached |",
        "|---|---:|",
    ]
    for name, calls in reached.items():
        hits = sum((f.path, f.line) in calls for f in functions)
        out.append(f"| `{name}` | {hits} |")
    out += [
        "",
        "## ROADMAP item 8's candidates",
        "",
        "| candidate | reached by |",
        "|---|---|",
    ]
    for key in CANDIDATES:
        scope = [(f.path, f.line) for f in functions if covers(key, f)]
        hits = [n for n, calls in reached.items() if any(s in calls for s in scope)]
        by = ", ".join(f"`{name}`" for name in hits) or "nothing"
        out.append(f"| `{key}` | {by} |")
    out += [
        "",
        "## Verdicts",
        "",
        "| category | meaning | verdicts | unreached functions | lines |",
        "|---|---|---:|---:|---:|",
    ]
    for category, meaning in CATEGORIES.items():
        keys = [k for k in by_key if _category(VERDICTS[k][0]) == category]
        covered = [f for k in keys for f in by_key[k]]
        out.append(
            f"| {category} | {meaning} | {len(keys)} | {len(covered)} |"
            f" {_lines(covered)} |"
        )
    out += [
        "",
        "| verdict | category | unreached | reason |",
        "|---|---|---:|---|",
    ]
    for key, covered in by_key.items():
        category, reason = VERDICTS[key]
        out.append(f"| `{key}` | {category} | {len(covered)} | {reason} |")
    stale = [k for k, covered in by_key.items() if not covered]
    out += [
        "",
        "## Verdicts whose functions were all reached this run",
        "",
        *(f"- `{key}`" for key in stale),
        *([] if stale else ["None."]),
        "",
        "## Unreached functions",
        "",
        "| function | line | verdict |",
        "|---|---:|---|",
    ]
    for function in unreached:
        keys = [k for k in VERDICTS if covers(k, function)]
        verdict = ", ".join(f"`{k}`" for k in keys) or "**none**"
        out.append(f"| `{function.key}` | {function.line} | {verdict} |")
    return "\n".join(out) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on an unexplained function instead of writing CENSUS.md",
    )
    args = parser.parse_args(argv)
    functions = list_functions()
    with tempfile.TemporaryDirectory(prefix="census-") as workdir:
        reached = run_inputs(Path(workdir))
    everything = set().union(*reached.values())
    unreached = [f for f in functions if (f.path, f.line) not in everything]
    problems = verdict_problems(functions, unreached)
    print(
        f"census: {len(functions)} functions, {len(unreached)} unreached,"
        f" {len(problems)} problems"
    )
    if not args.check:
        OUT.write_text(render(functions, reached))
        print(f"census: wrote {OUT.relative_to(ROOT)}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
