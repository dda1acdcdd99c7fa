"""Checks on the package source itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weilsf"


def test_no_assert_statements():
    # invariants are explicit checks that raise: `python -O` strips asserts
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(list(SRC.glob("*.py"))) >= 9
    assert found == []


def _package_imports(path):
    """The weilsf modules a source file imports, relative imports resolved."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("weilsf" + ("." + node.module if node.module else "")
                      if node.level else node.module)
            # `from . import m` and `from weilsf import m` import the module m
            names = ([module + "." + a.name for a in node.names]
                     if module == "weilsf" else [module])
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("weilsf."))
    return found


def test_oracle_imports_no_structural_module():
    # the cross-check rests on two independent routes: the numeric oracle
    # builds on the integer core and the root computation only, never on
    # the factorization, base-change or classifier modules
    assert _package_imports(SRC / "anglerank.py") == {"_intpoly", "weilpoly"}


def test_trace_layer_imports_no_smith_form():
    # the trace functions read the Smith transform that the oracle keeps
    # with its lattice; a Smith form of their own would compute it again
    path = SRC / "distribution.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "angle_rank_numeric" in names
    assert "smith_normal_form" not in names


def test_precision_is_the_oracles_knob():
    # working precision means something only where the oracle finds
    # relations from approximate angles: `roots` and `angle_rank_numeric`
    found = []
    for name in ["classify.py", "polyarith.py", "distribution.py", "newton.py"]:
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # an ast.arg is a parameter of a function or lambda
            if isinstance(node, ast.arg) and node.arg == "precision":
                found.append("%s:%d" % (name, node.lineno))
    assert found == []


def test_structural_modules_are_integer_exact():
    # the structural side takes no width from the oracle and computes in
    # integers and Fractions only: no float constant and no true division
    knobs = {"DEFAULT_PRECISION", "GUARD_BITS"}
    found = []
    for name in ["_intpoly.py", "polyarith.py", "classify.py", "newton.py"]:
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Name) and node.id in knobs
                    or isinstance(node, ast.alias) and node.name in knobs
                    or isinstance(node, ast.Constant) and isinstance(node.value, float)
                    or isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)):
                found.append("%s:%d" % (name, node.lineno))
    assert found == []


def test_no_module_names_mpmath():
    # the numeric layer is exact-integer end to end; mpmath serves the
    # tests as a reference only
    assert [p.name for p in sorted(SRC.glob("*.py")) if "mpmath" in p.read_text()] == []


def test_traced_functions_exist():
    # the benchmark tracer wraps each (module, function) of its TARGETS with
    # getattr, so a target that is renamed or deleted ends every traced run
    path = ROOT / "perfbench" / "tracing.py"
    targets = next(ast.literal_eval(node.value)
                   for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert len(targets) >= 10
    missing = []
    for module, name in targets:
        tree = ast.parse((SRC / (module + ".py")).read_text())
        if not any(isinstance(node, ast.FunctionDef) and node.name == name
                   for node in tree.body):
            missing.append((module, name))
    assert missing == []


def test_oracle_has_no_integer_kernel():
    # the saturation is read off the inverse transform of the oracle's one
    # Smith form, so no kernel construction repeats that Smith form
    tree = ast.parse((SRC / "anglerank.py").read_text())
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"smith_normal_form", "saturate_lattice"} <= names
    assert "integer_kernel" not in names


def test_classify_is_the_one_classifier_entry():
    # the trees of g = 2, g = 3 and prime g are private nodes that take the
    # factorization and stratum from `classify` as required arguments
    tree = ast.parse((SRC / "classify.py").read_text())
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in funcs if f.args.defaults] == ["classify"]
    assert [f.name for f in funcs if f.name.startswith("classify")] == ["classify"]


def test_classify_decides_the_shape_once():
    # `classify` sends a supersingular P to `_supersingular` and any other
    # reducible P to `_product`; the trees of g = 2 and 3 see only simple,
    # non-supersingular inputs and never test the factorization
    tree = ast.parse((SRC / "classify.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def callers(name, first_arg=None):
        return sorted(fname for fname, func in funcs.items()
                      for node in ast.walk(func)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == name
                      and (first_arg is None or ast.unparse(node.args[0]) == first_arg))

    assert callers("sf_of_product") == ["_product"]
    assert callers("supersingular_match") == ["_supersingular"]
    assert callers("supersingular_torsion_order", "P.coeffs") == ["_supersingular"]
    for name in ["_surface", "_threefold"]:
        assert [a.arg for a in funcs[name].args.args] == ["P", "stratum", "split"]
        assert not any(isinstance(node, ast.Attribute) and node.attr == "is_irreducible"
                       for node in ast.walk(funcs[name]))


def _functions(path):
    """The module-level functions of a source file, by name."""
    return {node.name: node for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def _called(node, name):
    """Whether `node` calls `name`, as a name or as an attribute."""
    return any(isinstance(n, ast.Call) and name in (getattr(n.func, "id", None),
                                                    getattr(n.func, "attr", None))
               for n in ast.walk(node))


def test_roots_of_unity_are_asked_for_one_way():
    # one base-change routine (`_intpoly.base_changes`), polynomials
    # normalized where they are built (only `weil_pullback` builds one from
    # a list that may lead with zeros), and one sqrt(q) rule
    # (`polyarith._sqrt_orders`) for the torsion order and Lambda_g
    names = set()
    normalizers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names |= {getattr(n, "name", None) or getattr(n, "id", None)
                  or getattr(n, "attr", None) for n in ast.walk(tree)}
        normalizers += ["%s.%s" % (path.stem, name)
                        for name, func in _functions(path).items()
                        if _called(func, "normalize")]
    assert "base_changes" in names and "base_change_coeffs" not in names
    assert normalizers == ["weilpoly.weil_pullback"]
    funcs = _functions(SRC / "polyarith.py")
    for name in ["supersingular_torsion_order", "exterior_relation"]:
        func = funcs[name]
        assert _called(func, "_sqrt_orders") and not _called(func, "isqrt"), name
        parity = [ast.unparse(n) for n in ast.walk(func) if isinstance(n, ast.BinOp)
                  and isinstance(n.op, (ast.Mod, ast.BitAnd))
                  and isinstance(n.right, ast.Constant) and n.right.value in (1, 2)]
        assert parity == [], name
