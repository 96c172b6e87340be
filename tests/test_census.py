"""The reachability census tool (``benchmarks/census.py``), without its
inputs: the verdict table, the AST keying, and the call hook."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import census  # noqa: E402


def test_every_verdict_names_a_function():
    functions = census.list_functions()
    for key in census.VERDICTS:
        assert any(census.covers(key, f) for f in functions), key
    assert census.verdict_problems(functions, []) == []


def write_package(tmp_path, source: str) -> Path:
    package = tmp_path / "pkg" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(source)
    return package


def test_decorated_function_keyed_by_first_decorator_line(tmp_path):
    package = write_package(
        tmp_path,
        "def deco(f):\n"
        "    return f\n"
        "\n"
        "\n"
        "@deco\n"
        "@deco\n"
        "def decorated():\n"
        "    return 1\n",
    )
    functions = {f.key: f for f in census.list_functions(package)}
    namespace: dict = {}
    exec(compile((package / "mod.py").read_text(), "mod.py", "exec"), namespace)
    code = namespace["decorated"].__code__
    assert functions["repro.mod:decorated"].line == code.co_firstlineno == 5


def test_call_in_a_sigkilled_child_is_recorded(tmp_path):
    package = write_package(tmp_path, "def ping():\n    return 1\n")
    userbase = tmp_path / "userbase"
    census.install_hook(userbase)
    log = tmp_path / "calls.log"
    env = census.hook_env(userbase, package, log, package.parent)
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import time, repro.mod; repro.mod.ping(); print('ready', flush=True);"
            " time.sleep(60)",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert child.stdout.readline() == "ready\n"
    finally:
        child.kill()  # SIGKILL: no atexit, no flush
        child.wait(timeout=10)
    assert child.returncode == -9
    functions = census.list_functions(package)
    reached = {f.key for f in functions if (f.path, f.line) in census.read_log(log)}
    assert reached == {"repro.mod:ping"}
