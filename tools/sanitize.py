"""Run the compiled library under AddressSanitizer and UndefinedBehaviorSanitizer.

    python tools/sanitize.py [pytest arguments]

Builds ``_kernel.c`` with ``_compiled.compile_command()`` plus
``-g -fsanitize=address,undefined -fno-sanitize-recover=all`` into a
temporary ``XDG_CACHE_HOME``, under the name ``_compiled.library()`` looks
for (the current ``build_key()``), so that every process started with that
cache binds the sanitized build in place of the checked one.  Then, under
``LD_PRELOAD=<the compiler's libasan.so> ASAN_OPTIONS=detect_leaks=0
PYTHONMALLOC=malloc``, it runs the four build checks (the ``_agrees``
functions) on the build, and the format, CSV byte, property, engine stream,
stream and path stream tests and the writers' round trips against it;
pytest arguments given here are passed on.  With ``PYTHONMALLOC=malloc``
every Python object comes from the sanitized ``malloc``, so a read or write
of the C loops past the end of a Python buffer (a label table, a row buffer,
a numeric loop's slice, a lattice memo) is reported too.

Exits 0 when the checks and the tests pass and no sanitizer reports
anything; non-zero otherwise.  The user's own cache is not touched.  It is
not part of the test suite: the sanitized run takes minutes.
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spikesim import _compiled  # noqa: E402

SANITIZE = ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
# The stream tests run the loop resumed at chunk sizes 1 and 7; the path
# stream tests run both numeric loops writing their rows into slices of 1,
# 7 and 1024 rows; TestIO writes and reads back each kind of CSV in process.
TESTS = ("tests/test_format.py", "tests/test_csv_bytes.py", "tests/test_properties.py",
         "tests/test_engine_stream.py", "tests/test_stream.py", "tests/test_path_stream.py",
         "tests/test_cli.py::TestIO")
# The four checks a build must pass, as ``_compiled.build_library`` runs them.
CHECKS = """
from spikesim import _compiled, io, jump, ode
loops = _compiled.library()
checks = (jump._agrees, ode._agrees, io._formatter_agrees, io._reader_agrees)
failed = [name for name, check, loop in zip(loops._fields, checks, loops) if not check(loop)]
print(f"{len(checks) - len(failed)} of {len(checks)} build checks pass", *failed)
raise SystemExit(1 if failed else 0)
"""
# The first line of an AddressSanitizer report, and an UndefinedBehaviorSanitizer one.
REPORT = re.compile(r"ERROR: AddressSanitizer|: runtime error: |SUMMARY: \w*Sanitizer")


def run(step: str, command: list[str], env: dict[str, str]) -> bool:
    """Run ``command``, its stderr echoed; whether it exits 0 with no
    sanitizer report."""
    start = time.perf_counter()
    result = subprocess.run(command, env=env, cwd=ROOT, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(result.stderr)
    reported = REPORT.search(result.stderr) is not None
    print(f"{step}: exit {result.returncode}, {'a' if reported else 'no'} sanitizer report, "
          f"{time.perf_counter() - start:.1f} s", flush=True)
    return result.returncode == 0 and not reported


def main(pytest_args: list[str]) -> int:
    cc = _compiled.compile_command()
    libasan = subprocess.run([cc[0], "-print-file-name=libasan.so"], capture_output=True,
                             text=True, check=True).stdout.strip()
    if not os.path.isabs(libasan):
        print(f"{cc[0]} has no libasan.so", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="spikesim-sanitize-") as home:
        cache = Path(home, "spikesim")
        cache.mkdir(mode=0o700)
        target = cache / f"_kernel-{_compiled.build_key()}.so"
        static = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
        start = time.perf_counter()
        subprocess.run([*cc, *SANITIZE, str(_compiled.SOURCE), str(static), "-lm",
                        "-o", str(target)], check=True)
        print(f"sanitized build: {time.perf_counter() - start:.1f} s", flush=True)
        env = dict(os.environ, XDG_CACHE_HOME=home, LD_PRELOAD=libasan,
                   ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        passed = run("build checks", [sys.executable, "-c", CHECKS], env)
        # --capture=sys leaves the C code's stderr to reach this script.
        passed &= run("tests", [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                "--capture=sys", *TESTS, *pytest_args], env)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
