"""Rules on the package's source, checked on its syntax trees.

The closed-form routes in asymptotics.py import nothing from the oracle
module, and only phase.py forms a t-sized phase: outside it, t_phase is called
only by the exponent-identity check.  The package has one array path: its one
test for a numpy array is phase's wrapper _on_arrays, which serves every
public evaluator that takes a point a Python number, so the evaluators of
phase, substitution, fresnel and ibp compute on arrays only.  The contour
integrals take one frame, the pair (phase, amplitude): only
quadrature._on_line turns a phase into an oscillation, and every call of a
frame in quadrature.py gives the phase and the amplitude together.  A point
is derived where it enters the package, once: params.derive is called only
by params.from_offset, by harness.run_sweep and by cli._build_params, and
every route, oracle and residual takes the record they give.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "endpoint_uniform"


def _imports_quadrature(node):
    if isinstance(node, ast.ImportFrom):
        return ("quadrature" in (node.module or "").split(".")
                or any(a.name == "quadrature" for a in node.names))
    if isinstance(node, ast.Import):
        return any("quadrature" in a.name.split(".") for a in node.names)
    return False


def _t_phase_calls():
    """(file, enclosing top-level name, line) of each t_phase call outside
    phase.py."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "phase.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                f = getattr(node, "func", None)
                name = getattr(f, "attr", None) or getattr(f, "id", None)
                if isinstance(node, ast.Call) and name == "t_phase":
                    calls.append((path.name, owner, node.lineno))
    return calls


def test_closed_form_routes_import_nothing_from_the_oracle_module():
    tree = ast.parse((SRC / "asymptotics.py").read_text())
    lines = [n.lineno for n in ast.walk(tree) if _imports_quadrature(n)]
    assert not lines, f"asymptotics.py imports from quadrature at line(s) {lines}"


def test_only_phase_forms_a_t_sized_phase():
    calls = _t_phase_calls()
    allowed = {("asymptotics.py", "exponent_identity_residual")}
    stray = [c for c in calls if c[:2] not in allowed]
    assert not stray, f"t_phase called outside phase.py at {stray}"
    # the walk sees calls at all: the one allowed call is found
    assert {c[:2] for c in calls} == allowed


def _ndarray_tests(tree):
    """(enclosing function, line) of each isinstance(..., np.ndarray) call."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2 and ast.unparse(node.args[1]) == "np.ndarray"):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_phase_has_one_array_path():
    found = [(path.name, owner, line) for path in sorted(SRC.glob("*.py"))
             for owner, line in _ndarray_tests(ast.parse(path.read_text()))]
    assert [(name, owner) for name, owner, _line in found] == [("phase.py", "_on_arrays")], (
        f"a test for a numpy array outside phase's public wrapper at {found}")
    # the walk sees such a test at all, nested in an expression
    probe = "def f(z):\n    return 1 if isinstance(z, np.ndarray) else 0\n"
    assert _ndarray_tests(ast.parse(probe)) == [("f", 2)]


def _is_imaginary(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, complex)


def _oscillations(tree):
    """(enclosing top-level name, line) of each np.exp(1j * ...) call, the
    imaginary constant on either side of the product."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.exp"
                    and len(node.args) == 1 and isinstance(node.args[0], ast.BinOp)
                    and isinstance(node.args[0].op, ast.Mult)
                    and (_is_imaginary(node.args[0].left)
                         or _is_imaginary(node.args[0].right))):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_only_on_line_forms_the_oscillation_of_a_frame():
    found = [(name, owner, line) for name in ("quadrature.py", "substitution.py")
             for owner, line in _oscillations(ast.parse((SRC / name).read_text()))]
    assert [(name, owner) for name, owner, _line in found] == [("quadrature.py", "_on_line")], (
        f"np.exp(1j * ...) formed outside quadrature._on_line at {found}")
    # the walk sees such a call at all, nested in a closure, either way round
    probe = "def f(w):\n    def g(z):\n        return np.exp(w * 1j)\n    return g\n"
    assert _oscillations(ast.parse(probe)) == [("f", 3)]


# a frame, and its pull-back onto a line, as quadrature.py names them
_FRAMES = ("frame", "f")


def _frame_calls(tree):
    """(enclosing top-level name, line, unpacked) of each call of a frame;
    unpacked when the call is the whole value assigned to a pair of names."""
    pairs = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Tuple) and len(node.targets[0].elts) == 2
             and all(isinstance(e, ast.Name) for e in node.targets[0].elts)}
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FRAMES:
                found.append((getattr(top, "name", None), node.lineno, id(node) in pairs))
    return found


def test_every_frame_call_gives_the_phase_and_the_amplitude_together():
    # a frame evaluated for its phase alone costs a second call at the same
    # points; each call is unpacked as the pair (w, amp) instead
    calls = _frame_calls(ast.parse((SRC / "quadrature.py").read_text()))
    alone = [(owner, line) for owner, line, unpacked in calls if not unpacked]
    assert not alone, f"a frame call in quadrature.py not unpacked as a pair at {alone}"
    # the walk sees the calls at all: the pull-back, truncation and GK15 rounds
    assert {owner for owner, _line, _u in calls} == {"_on_line", "ray_truncation",
                                                    "_gk_batch", "_adaptive"}
    # and catches a phase-only closure that indexes the pair
    probe = ("def _on_line(frame, z0, rot):\n    def ph(s):\n"
             "        return frame(z0 + s * rot)[0]\n    return ph\n")
    assert _frame_calls(ast.parse(probe)) == [("_on_line", 3, False)]


def _derive_calls(tree):
    """(enclosing top-level name, line) of each call of derive, by name or
    as an attribute."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            f = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "derive" in (getattr(f, "id", None),
                                                         getattr(f, "attr", None)):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_a_point_is_derived_only_where_it_enters():
    # asymptotics, quadrature, substitution and ibp take the record: none of
    # their functions derives one
    found = [(path.name, owner, line) for path in sorted(SRC.glob("*.py"))
             for owner, line in _derive_calls(ast.parse(path.read_text()))]
    assert [(name, owner) for name, owner, _line in found] == [
        ("cli.py", "_build_params"), ("harness.py", "run_sweep"),
        ("params.py", "from_offset")], f"derive called at {found}"
    # the walk sees such a call at all, nested in an expression in a closure
    probe = ("def route(p):\n    def wa(z):\n"
             "        return z * params.derive(p).phi\n    return wa\n")
    assert _derive_calls(ast.parse(probe)) == [("route", 3)]
