import ast
import re
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
    # that classify a code or enumerate the records.  Nor does it keep
    # state in the ring the formula side classifies with: it names no
    # remember.
    classifying = {"_standard_exponents", "log_size", "_log_size",
                   "generators", "all_code_specs", "remember"}
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


def test_every_imported_name_is_used():
    # A name a module imports and never reads is dead.  Exempt are
    # `from __future__ import annotations`, the package's re-exports in
    # __init__.py, and a name marked `# noqa: F401`, which must be one that
    # bench/spans.py looks up in that module.
    wrapped = {(module, attr) for module, attr, _ in load_spans().TARGETS}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        module = f"paircodes.{path.stem}"
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in used:
                    continue
                if "# noqa: F401" not in lines[alias.lineno - 1] \
                        or (module, name) not in wrapped:
                    found.append(f"{path.name}:{alias.lineno}:{name}")
    assert found == []


def test_the_reference_reads_no_classification():
    # build_code is held to ideal_code, so the reference shares only the
    # digit layer with the build: neither ideal_code nor any name it reaches
    # in codes.py or the digit layer's module reads the classification or
    # writes a standard form.
    banned = {"build_code", "_standard_bases", "_standard_batch",
              "_multipliers", "build_codes",
              "_standard_exponents", "_log_size", "_pivot_inverse",
              "generators"}
    defs = {node.name: node
            for module in ("codes.py", "_digits.py")
            for node in ast.parse((SRC / module).read_text()).body
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


def test_one_function_writes_every_cli_envelope():
    # cli._emit is the one envelope writer (ROADMAP aim 2): no other src
    # code lays JSON out with indent= or streams it with json.dump.  One-line
    # json.dumps, as _error_exit's, stays allowed.
    found, emit = [], None
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        if path.name == "cli.py":
            emit = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "_emit")
            inside = {id(node) for node in ast.walk(emit)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None))
            if name == "dump" or any(k.arg == "indent" for k in node.keywords):
                found.append(f"{path.name}:{node.lineno}:{ast.unparse(node)}")
    assert emit is not None
    assert found == []


def test_the_oracle_names_every_accumulator():
    # The oracle's weights are counted in the narrowest unsigned integer
    # that holds N: a .sum( or add.reduce( without dtype= casts a byte array
    # to int64 row by row, several times the cost of the addition.
    # np.roll copies the mask a second time to rotate it.
    found = []
    for node in ast.walk(ast.parse((SRC / "pairmetric.py").read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "roll":
            found.append(f"{node.lineno}:{ast.unparse(node)}")
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if name.endswith((".sum", "add.reduce")) and all(
                    k.arg != "dtype" for k in node.keywords):
                found.append(f"{node.lineno}:{ast.unparse(node)}")
    assert found == []


def test_every_memo_kind_is_documented():
    # The first item of a remember((...), make) key names the kind of work
    # a ring remembers.  Every kind in src is a row of README's "What a ring
    # remembers" table, every row is a kind in src, and the count the
    # section states is the number of rows.
    kinds, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "remember"):
                continue
            key = node.args[0] if node.args else None
            if isinstance(key, ast.Tuple) and key.elts and isinstance(
                    key.elts[0], ast.Constant):
                kinds.add(key.elts[0].value)
            else:
                found.append(f"{path.name}:{node.lineno}:{ast.unparse(node)}")
    assert found == []
    section = (SRC.parents[1] / "README.md").read_text().split(
        "**What a ring remembers.**", 1)[1]
    stated = re.search(r"there are (\w+):", section).group(1)
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append(line)
    rows = [re.match(r"\| `([^`]+)` \|", line).group(1) for line in table[2:]]
    numbers = ("zero one two three four five six seven eight nine ten "
               "eleven twelve thirteen fourteen fifteen").split()
    assert sorted(rows) == sorted(kinds)
    assert numbers.index(stated) == len(rows)


def test_a_rings_memory_is_touched_only_by_remember():
    # QuotientRing.remember(key, make) is the one way into a ring's memory:
    # only it and __init__ name _memo.  It has one form: every call passes a
    # key and a make, and make has no default, so no call reads the memory
    # without filling it.  Absence is never signalled by a make that raises
    # KeyError.
    found, inside, signatures = [], set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "QuotientRing":
                for method in cls.body:
                    if isinstance(method, ast.FunctionDef) and method.name \
                            in ("__init__", "remember"):
                        inside |= {id(node) for node in ast.walk(method)}
                        if method.name == "remember":
                            signatures.append(ast.unparse(method.args))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_memo" \
                    and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno}:{ast.unparse(node)}")
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr == "remember" \
                    and len(node.args) + len(node.keywords) != 2:
                found.append(f"{path.name}:{node.lineno}:{ast.unparse(node)}")
            elif isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and "KeyError" in {n.id for n in ast.walk(node.type)
                                       if isinstance(n, ast.Name)}:
                found.append(f"{path.name}:{node.lineno}:except KeyError")
    assert inside
    assert signatures == ["self, key: tuple, make"]
    assert found == []
