"""src/thzra holds only what a command runs: every top-level name of its
modules is reached from cli.main or held in HELD for the caller named
there.  Code that only the tests call lives in tests/reference.py."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "thzra"

HELD = {
    "params.validate_config": "perfbench's set-up probe, admission guard "
                              "and tracer call it",
    "channel.draw_snr_batch": "perfbench's admission guard draws its SNRs",
    "analytics.stage_law": "the per-stage law, kept for a run-time caller "
                           "of the delay/energy closed forms (ROADMAP)",
    "__init__.__all__": "the package's public names",
}


def reference_graph():
    """{module.name: the module.names its definition uses} over the
    functions, classes and assigned names at the top of src/thzra/*.py."""
    edges = {}
    for path in SRC.glob("*.py"):
        mod, tree = path.stem, ast.parse(path.read_text())
        alias = {}      # local name -> module, or module.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    alias[a.asname or a.name] = (
                        f"{node.module}.{a.name}" if node.module
                        else a.name if (SRC / f"{a.name}.py").exists()
                        else f"__init__.{a.name}")
        tops = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                tops[node.name] = node
            elif isinstance(node, ast.Assign):
                tops.update((t.id, node) for t in node.targets)
        for name, node in tops.items():
            uses = edges[f"{mod}.{name}"] = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and n.id in tops:
                    uses.add(f"{mod}.{n.id}")
                elif isinstance(n, ast.Name) and n.id in alias:
                    uses.add(alias[n.id])
                elif (isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name)
                      and "." not in alias.get(n.value.id, ".")):
                    uses.add(f"{alias[n.value.id]}.{n.attr}")
    return edges


def reach(edges, todo):
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += edges.get(name, ())
    return reached


def test_every_src_name_is_reached_by_a_command_or_held():
    edges = reference_graph()
    run = reach(edges, ["cli.main"])
    assert set(HELD) <= set(edges) - run    # a command reaches it: unhold
    assert sorted(set(edges) - reach(edges, [*run, *HELD])) == []
