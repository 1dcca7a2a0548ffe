"""The package as a whole: importing it stays cheap, its modules and the
test files carry no leftovers of removed code, and the README's library
example runs."""

import ast
import functools
import inspect
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import spikesim
from spikesim import _compiled, io, jump, ode

PACKAGE = Path(spikesim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
README = Path(__file__).parents[1] / "README.md"


def _fresh_output(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    return result.stdout


def test_import_and_building_specs_load_no_compiled_library():
    # The compiled library, and subprocess for its build, load on the first
    # run that wants them, never at import or when a process is built.
    assert _fresh_output(
        "import sys, spikesim\n"
        "p = spikesim.ModelParams(alpha=0.01, beta=1.0, gamma=100.0, p=7.0)\n"
        "spikesim.build_global(p, 10), spikesim.build_meanfield(p), spikesim.build_oneunit(p)\n"
        "print(sorted({'spikesim._compiled', 'subprocess'} & set(sys.modules)))\n") == "[]\n"


def test_the_figure_pipeline_never_imports_numpy_ma(tmp_path):
    # numpy.ma takes about 10 ms to import, and np.unique without indices or
    # counts imports it; nothing in the figure pipeline needs it.
    jump_csv = tmp_path / "jump.csv"
    runs = [["preset", name, "--t-end", "100", "--outdir", str(tmp_path)]
            for name in ("fig6", "fig7")]
    runs += [["simulate", "--mode", "oneunit", "--gamma", "2", "--t-end", "100",
              "--out", str(jump_csv)],
             ["analyze", "--input", str(jump_csv), "--a0", "2", "--thr", "0",
              "--out", str(tmp_path / "a.json"), "--pairs-out", str(tmp_path / "p.csv")]]
    assert _fresh_output(
        "import sys\n"
        "from spikesim import cli\n"
        f"print([cli.main(argv) for argv in {runs!r}], 'numpy.ma' in sys.modules)\n"
    ).splitlines()[-1] == "[0, 0, 0, 0] False"


def test_one_process_writes_the_files_of_the_sample_paths_presets_run_alone(tmp_path):
    # In one interpreter fig3 copies the ODE path CSVs that fig1 and fig2
    # wrote; each file is the one its preset writes in an interpreter of its
    # own, and the peak RSS is no higher than theirs, since the record of
    # the files written holds no path (the two ODE CSVs are 1.9 MB; the
    # peaks of runs alike vary by about 0.2 MB).  The peak is VmHWM, the
    # interpreter's own: ru_maxrss would also count the pytest process that
    # it was started from.
    names = ("fig1", "fig2", "fig3", "fig5")

    def run(outdir: Path, *presets: str) -> int:
        return int(_fresh_output(
            "from spikesim import cli\n"
            f"for name in {presets!r}:\n"
            f"    argv = ['preset', name, '--t-end', '20', '--outdir', {str(outdir)!r}]\n"
            "    assert cli.main(argv) == 0\n"
            "print(*[line.split()[1] for line in open('/proc/self/status')\n"
            "        if line.startswith('VmHWM:')])\n").split()[-1])

    together_kb = run(tmp_path / "together", *names)
    alone_kb = max(run(tmp_path / name, name) for name in names)
    alone = {p.name: p.read_bytes() for name in names for p in (tmp_path / name).iterdir()}
    assert len(alone) == 12
    assert {p.name: p.read_bytes() for p in (tmp_path / "together").iterdir()} == alone
    assert together_kb <= alone_kb + 512, (together_kb, alone_kb)


def test_cache_directory_is_made_only_when_missing(monkeypatch, tmp_path):
    (tmp_path / "home").mkdir()
    (tmp_path / "home" / "spikesim").write_text("")

    def no_mkdir(*args, **kwargs):
        raise PermissionError("mkdir")

    def no_temp_dir():
        raise AssertionError("the temp dir is looked up only when the cache home fails")

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    with monkeypatch.context() as patch:
        patch.setattr(tempfile, "gettempdir", no_temp_dir)
        made = _compiled.cache_dir()
        assert made == tmp_path / "xdg" / "spikesim" and made.stat().st_mode & 0o777 == 0o700
        # An existing directory is taken as it is, with no mkdir.
        patch.setattr(Path, "mkdir", no_mkdir)
        assert _compiled.cache_dir() == made
    # A file where the directory should be: the temp dir instead.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    assert _compiled.cache_dir().parent == tmp_path / "tmp"


def test_importing_the_cli_builds_no_parser():
    # main builds its parser on its first call, so an import stays cheap.
    assert _fresh_output("import spikesim.cli as cli\n"
                         "print(cli._parser.cache_info().currsize)\n") == "0\n"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in the module, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name the code reads, directly or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: imported and never used"


def _global_reads(tree: ast.Module) -> set[str]:
    """The names a module reads as its globals: at module level, or in a
    function that neither takes nor assigns them."""
    reads = set()

    def scan(node: ast.AST, local: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local | {n.arg for n in ast.walk(node.args) if isinstance(n, ast.arg)} | {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            reads.add(node.id)
        for child in ast.iter_child_nodes(node):
            scan(child, local)

    scan(tree, frozenset())
    return reads


def _taken_names(trees: dict[Path, ast.Module]) -> dict[str, set[str]]:
    """By module name, the module-level names the package reads: each
    module's own global reads, the names other modules import from it, and
    the ``<module>.<name>`` attributes they read."""
    taken = {path.stem: _global_reads(tree) for path, tree in trees.items()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                taken.get(module, set()).update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                taken.get(node.value.id, set()).add(node.attr)
    return taken


def test_every_private_module_level_name_is_used():
    # A name counts as used only where it is read as that module-level
    # binding, so a function's local or an attribute of another object that
    # happens to share the name does not keep a dead private name alive.
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    taken = _taken_names(trees)
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                # ``_compiled`` is private as a whole, though its names carry
                # no underscore: each of its functions and classes must be
                # read too, so a binding only tests call fails.
                everyone = path.stem == "_compiled"
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                everyone = False
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names
                       if (everyone or name.startswith("_") and not name.startswith("__"))
                       and name not in taken[path.stem]]
    assert unused == [], "private names that nothing in the package refers to"


def _file_writes(tree: ast.Module) -> list[int]:
    """The lines that open a file for writing: ``open`` or ``Path.open``
    with a mode that is not plainly a read mode, ``write_text``,
    ``write_bytes`` or ``json.dump``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            # open(file, mode) or path.open(mode)
            position = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[position] if len(node.args) > position else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                lines.append(node.lineno)
        elif name in ("write_text", "write_bytes", "dump"):
            lines.append(node.lineno)
    return lines


def test_only_io_writes_files():
    # One writer: every artifact goes through spikesim.io.
    writes = {path.name: _file_writes(ast.parse(path.read_text(), filename=str(path)))
              for path in MODULES}
    assert writes.pop("io.py")  # the check sees io's own writes
    assert {name: lines for name, lines in writes.items() if lines} == {}


def test_every_exported_c_function_is_loaded():
    # A function of the library that is not static is an entry point, and
    # _compiled must be what takes it, so the C file exports nothing that
    # only a test calls.  Unused static functions fail the -Wall build.
    source = (PACKAGE / "_kernel.c").read_text()
    exported = re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(", source, re.M)
    assert exported  # the pattern sees the definitions
    loader = (PACKAGE / "_compiled.py").read_text()
    assert [name for name in exported if f'"{name}"' not in loader] == []


@pytest.mark.parametrize("binding, bound, twin", [
    (_compiled.run, 1, jump._run_python),
    (_compiled.rk4, 1, ode._rk4_python),
    (_compiled.format_rows, 1, io._python_rows),
], ids=["run", "rk4", "format_rows"])
def test_each_compiled_binding_takes_its_python_twins_arguments(binding, bound, twin):
    # Bound to its C function (and table), a binding stands in for its
    # Python twin, so it must take the same parameters in the same order.
    def parameters(function):
        return [(p.name, p.kind) for p in inspect.signature(function).parameters.values()]

    assert parameters(functools.partial(binding, *[None] * bound)) == parameters(twin)


def test_readme_library_example_runs(capsys):
    # The code block under "## Library example", exactly as the README shows it.
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README.name}, Library example", "exec"), {})
    assert capsys.readouterr().out.startswith("TailFit(a0=10.0, lambda_hat=")


def _sanitize_script():
    """``tools/sanitize.py`` as a module; its ``main`` runs only as a script."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "sanitize", Path(__file__).parents[1] / "tools" / "sanitize.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_sanitizer_runs_what_exists():
    # Each test file or node it runs is there, and each build check it
    # calls is a function of its module, so that no sanitized run passes
    # for running less than it names.
    script = _sanitize_script()
    root = Path(__file__).parents[1]
    for entry in script.TESTS:
        path, *names = entry.split("::")
        body = ast.parse((root / path).read_text()).body
        for name in names:
            (node,) = [node for node in body if getattr(node, "name", None) == name]
            body = node.body
    checks = [node for node in ast.walk(ast.parse(script.CHECKS))
              if isinstance(node, ast.Attribute) and node.attr.endswith("_agrees")]
    assert len(checks) == len(_compiled.Loops._fields)
    for check in checks:
        assert callable(getattr(getattr(spikesim, check.value.id), check.attr))
