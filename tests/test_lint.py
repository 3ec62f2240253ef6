import ast
from pathlib import Path

import paircodes
from test_bench_targets import load_spans

SRC = Path(paircodes.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check must raise instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_every_error_class_is_raised():
    # An error class nothing raises is dead, or a second name for another.
    defined = {"PairCodeError"}
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in defined
                for base in node.bases):
            defined.add(node.name)
    defined.discard("PairCodeError")
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(defined - raised) == []


def _uncalled(skip=()) -> set:
    """The functions and methods that no src module (but those in `skip`)
    calls, as module.name or module.Class.name.  A method counts as called
    only through an attribute access; a module-level function through a
    bare name in its own module, an attribute access or an import."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    bare, attrs, imported = set(), set(), set()
    for path, tree in trees.items():
        if path.name in skip:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.add(f"{path.stem}.{node.id}")
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                imported.add(node.name)
    called, uncalled = attrs | imported, set()
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                qual = f"{path.stem}.{node.name}"
                if qual not in bare and node.name not in called:
                    uncalled.add(qual)
            elif isinstance(node, ast.ClassDef):
                uncalled |= {f"{path.stem}.{node.name}.{f.name}"
                             for f in node.body
                             if isinstance(f, ast.FunctionDef)
                             and f.name not in attrs}
    return uncalled


def test_every_private_helper_has_a_caller():
    # A _name function or method that nothing in src calls is dead.
    names = {qual: qual.rpartition(".")[2] for qual in _uncalled()}
    assert [qual for qual, name in sorted(names.items())
            if name.startswith("_") and not name.startswith("__")] == []


# Why a public name that no src module except __init__ calls stays: one
# reason from this fixed set each.
PAPER_LEMMA = "paper lemma"
REFERENCE = "reference the tests compare against"
ROW_SPACE_TOOL = "row-space tool"
WRAPPED = "wrapped by bench/spans.py"

# A new name without a src caller belongs in tests/, or here with its reason.
PUBLIC_WITHOUT_SRC_CALLER = {
    "theory.binomial_power_weight": PAPER_LEMMA,
    "quotient.coefficient_weight": PAPER_LEMMA,
    "pairmetric.hamming_distance": REFERENCE,
    "codes.ConstacyclicCode.contains": ROW_SPACE_TOOL,
    "codes.ConstacyclicCode.same_rowspace": ROW_SPACE_TOOL,
    "codes.ideal_code": WRAPPED,
    "theory.mds_verdict": WRAPPED,
}


def test_public_names_without_a_src_caller_are_listed():
    # A public function or method that no src module calls is either a
    # deliberate reference or tool (listed above, each with its reason) or
    # dead.  __init__ only re-exports.  A local variable or an argument that
    # shares a method's name is no call of it.
    uncalled = {qual for qual in _uncalled({"__init__.py"})
                if not qual.rpartition(".")[2].startswith("_")}
    assert uncalled == set(PUBLIC_WITHOUT_SRC_CALLER)
    reasons = {PAPER_LEMMA, REFERENCE, ROW_SPACE_TOOL, WRAPPED}
    assert set(PUBLIC_WITHOUT_SRC_CALLER.values()) <= reasons
    wrapped = {f"{module.rpartition('.')[2]}.{attr}"
               for module, attr, _ in load_spans().TARGETS}
    assert {qual for qual, why in PUBLIC_WITHOUT_SRC_CALLER.items()
            if why == WRAPPED} <= wrapped


def test_only_codes_names_the_code_families():
    # The shape of each family's codes is stated once, in codes.py; every
    # other module reads it through codes' functions, never by family.
    records = {"FieldPower", "ChainPrincipal", "Type1", "Type2", "Type3"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("codes.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.name if isinstance(node, ast.alias) else
                    node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name in records:
                found.append(f"{path.name}:{name}")
    assert found == []


def test_the_oracle_reads_only_the_basis():
    # The oracle checks the closed forms, so it must not learn a code's
    # size or shape from them: nothing from theory, and none of the names
    # that classify a code or enumerate the records.
    classifying = {"_standard_exponents", "log_size", "_log_size",
                   "generators", "all_code_specs"}
    tree = ast.parse((SRC / "pairmetric.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[-1] == "theory":
            found.append(node.module)
        names = ([alias.name for alias in node.names]
                 if isinstance(node, (ast.Import, ast.ImportFrom)) else
                 [node.id] if isinstance(node, ast.Name) else
                 [node.attr] if isinstance(node, ast.Attribute) else [])
        found += [name for name in names
                  if name.split(".")[-1] in classifying | {"theory"}]
    assert found == []


def test_the_reference_reads_no_classification():
    # build_code is held to ideal_code, so the reference shares only the
    # digit layer with the build: neither ideal_code nor any codes.py name
    # it reaches reads the classification or writes a standard form.
    banned = {"build_code", "_standard_basis", "_standard_pair",
              "_standard_exponents", "_log_size", "_pivot_inverse",
              "generators"}
    defs = {node.name: node
            for node in ast.parse((SRC / "codes.py").read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo, seen, found = ["ideal_code"], set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            used = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if used in banned:
                found.append(f"{name}:{node.lineno}:{used}")
            elif used in defs:
                todo.append(used)
    assert {"_Digits", "rref_mod_p", "ConstacyclicCode"} <= seen
    assert found == []


def test_every_dataclass_field_is_read():
    # A record field that nothing reads is dead state.  A field counts as
    # read when src loads it as an attribute or names it as a string key,
    # as in getattr(spec, key).
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                fields += [(f"{path.name}:{node.name}", stmt.target.id)
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str):
                read.add(node.value)
    assert fields
    assert [f"{owner}.{name}" for owner, name in fields
            if name not in read] == []


def test_every_cli_option_is_read():
    # An option whose args.<dest> nothing reads is left over from deleted
    # plumbing: argparse would accept it and change nothing.
    tree = ast.parse((SRC / "cli.py").read_text())
    options, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.func.attr == "add_argument":
            kw = {k.arg: k.value for k in node.keywords}
            flag = node.args[0].value
            if not flag.startswith("--") or (
                    "action" in kw and kw["action"].value == "version"):
                continue
            dest = kw["dest"].value if "dest" in kw else \
                flag[2:].replace("-", "_")
            options.append((flag, dest))
        elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
    assert len(options) > 10
    assert [flag for flag, dest in options if dest not in read] == []


def test_src_reads_private_attributes_only_on_self():
    # A _name attribute belongs to its own class: other code goes through a
    # public method (a ring's memory, for one, through QuotientRing.remember).
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                found.append(f"{path.name}:{node.lineno}:{ast.unparse(node)}")
    assert found == []
