"""The seams between the routes that the tests pit against each other, read
from the source with ``ast`` alone: the solver, the matrix oracle and the
replay reach nothing of the routes they are checked against, the replay
kernel and those routes do not import each other, and the rest of the
package and the scalar references in ``conftest`` use only the private
names declared here.

A name is ``module.name``.  What a function reaches is what its body reads
of its own module's top-level functions and classes and of the package
names it imports, and all that those reach in turn.  Each seam lists
patterns that every name it uses must match, and each pattern must match
some name, so a new cross-route call fails here until the table says why.
"""
import ast
from fnmatch import fnmatch
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "agectl"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def bindings(tree: ast.Module) -> dict[str, str]:
    """Local names bound by imports from the package: each to ``module`` or
    ``module.name``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "agectl"):
            module = (node.module or "").removeprefix("agectl").lstrip(".")
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{module}.{alias.name}" if module else alias.name
    return bound


TREES = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}
BINDINGS = {module: bindings(tree) for module, tree in TREES.items()}
DEFS = {f"{module}.{node.name}": node for module, tree in TREES.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def names_read(module: str, node: ast.AST, bound: dict[str, str]) -> set[str]:
    """The package names ``node`` reads: its module's own top-level names, the
    names ``bound`` by imports, and attributes of imported modules."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if f"{module}.{sub.id}" in DEFS:
                read.add(f"{module}.{sub.id}")
            elif sub.id in bound and bound[sub.id] not in TREES:   # a module alone is read below
                read.add(bound[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and bound.get(sub.value.id) in TREES:
            read.add(f"{bound[sub.value.id]}.{sub.attr}")
    return read


def reads(name: str) -> set[str]:
    """The package names that the top-level function or class ``name`` reads."""
    module = name.partition(".")[0]
    return names_read(module, DEFS[name], BINDINGS[module])


def reached(starts: tuple[str, ...]) -> set[str]:
    seen, todo = set(), list(starts)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name in DEFS:
                todo += reads(name)
    return seen


def conftest_privates() -> set[str]:
    tree = parse(TESTS / "conftest.py")
    return {name for name in names_read("conftest", tree, bindings(tree))
            if name.rpartition(".")[2].startswith("_")}


def imports(*modules: str) -> set[str]:
    """The package modules that ``modules`` import from."""
    return {name.partition(".")[0] for module in modules for name in BINDINGS[module].values()}


ORACLE = ("chain.transition_matrix", "chain.expected_reward_vector", "chain.steady_state_exact",
          "chain.chain_summary")
REPLAY = ("tracesim._replay_rotations", "tracesim.simulate_policy")
#: the replay kernel's private names that the rest of the package uses: the
#: step tables, the code builders, the walk and the readers of its table rows;
#: how a step's code is built, and from which k, stays inside ``replay``
REPLAY_PRIVATES = ("replay._Steps", "replay._tables", "replay._round_codes", "replay._tile_codes",
                   "replay._walk_codes", "replay._steps", "replay._count_ages", "replay._after",
                   "replay._before")


def replay_privates() -> set[str]:
    """The private ``replay`` names that the other modules read."""
    return {name for module, tree in TREES.items() if module != "replay"
            for name in names_read(module, tree, BINDINGS[module])
            if name.startswith("replay._")}

#: (seam, the names it uses, the patterns they must match)
SEAMS = (
    # policy iteration and RVI are checked against the closed forms and the
    # matrix oracle; a warm start from either would check them against themselves
    ("solver imports only model", lambda: set(BINDINGS["solver"].values()), ("model", "model.*")),
    # the closed forms, _Panels among them, are checked against the matrix oracle
    ("the matrix oracle calls no closed form", lambda: reached(ORACLE),
     (*ORACLE, "chain.ChainSummary", "model.*")),
    # replayed totals and averages are checked against the closed forms and the searches
    ("the replay calls nothing in chain or thresholds", lambda: reached(REPLAY),
     ("model.*", "replay.*", "tracesim.*")),
    # the replay kernel is checked against the closed forms, the matrix oracle
    # and the searches: it imports none of them, and none of them imports it
    ("replay imports only model", lambda: imports("replay"), ("model",)),
    ("chain, thresholds, solver and publisher do not import replay",
     lambda: imports("chain", "thresholds", "solver", "publisher"), ("model", "chain", "thresholds")),
    ("the package uses only the declared private replay names", replay_privates, REPLAY_PRIVATES),
    # the references rebuild everything else from public primitives
    ("conftest's references use only the declared private names", conftest_privates,
     ("solver._evaluate", "solver._action_terms")),
)


@pytest.mark.parametrize("uses, patterns", [seam[1:] for seam in SEAMS], ids=[seam[0] for seam in SEAMS])
def test_seam(uses, patterns):
    used = uses()
    assert {name for name in used if not any(fnmatch(name, p) for p in patterns)} == set()
    assert [p for p in patterns if not any(fnmatch(name, p) for name in used)] == []


#: the learning rounds: the chain env, a trace population's rounds and the
#: closed-loop population loop
ROUNDS = ("learning.chain_sim_env", "tracesim._Cohort", "tracesim.simulate_population")


def test_only_replay_rows_reach_the_chunked_walk():
    # a round walks its rows whole at any length; only a replay row longer
    # than CHUNK_SLOTS runs as chunks, chosen by its length in _walk_patterns
    assert "replay._walk_chunks" in reached(("replay._steps",))
    assert "replay._walk_chunks" not in reached(ROUNDS)
    assert {name for name in DEFS if "replay._walk_chunks" in reads(name)} == {"replay._walk_patterns"}
