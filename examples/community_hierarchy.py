"""Discovering a hierarchy of dense communities (the paper's motivating use case).

The paper motivates nucleus decomposition with citation networks: coarse
research areas contain progressively denser sub-areas.  This example builds a
nested-community benchmark graph, runs the truss decomposition, extracts the
nucleus hierarchy and prints it as an indented tree, showing how the planted
leaf communities appear as the densest leaves under coarser ancestors.

Run with::

    python examples/community_hierarchy.py
"""

from repro import build_hierarchy, truss_decomposition
from repro.core.space import NucleusSpace
from repro.graph.generators import hierarchical_community_graph


def print_tree(hierarchy, node, indent: int = 0) -> None:
    density = hierarchy.density_of(node.node_id)
    print(
        "  " * indent
        + f"- nucleus {node.node_id}: k={node.k_low}..{node.k_high}, "
        f"{len(node.vertices)} vertices, density {density:.2f}"
    )
    for child_id in node.children:
        print_tree(hierarchy, hierarchy.node(child_id), indent + 1)


def main() -> None:
    graph = hierarchical_community_graph(
        levels=3, branching=2, leaf_size=10, p_intra=0.85, p_decay=0.25, seed=7
    )
    print(
        f"benchmark graph: {graph.number_of_vertices()} vertices, "
        f"{graph.number_of_edges()} edges, 4 planted leaf communities"
    )

    # the hierarchy is built on the space the decomposition ran on: κ is
    # indexed by that space's cliques, and spaces of one graph may index
    # them differently
    space = NucleusSpace(graph, 2, 3)
    result = truss_decomposition(space, algorithm="and")
    hierarchy = build_hierarchy(space, result)

    print(f"\n{len(hierarchy)} nuclei, max k = {hierarchy.max_k()}\n")
    for root in hierarchy.roots():
        print_tree(hierarchy, root)

    print("\nDensest non-trivial leaves (the recovered communities):")
    leaves = [n for n in hierarchy.leaves() if len(n.vertices) >= 4]
    leaves.sort(
        key=lambda n: (n.k_high, hierarchy.density_of(n.node_id)), reverse=True
    )
    for leaf in leaves[:4]:
        members = sorted(leaf.vertices)
        print(
            f"  k={leaf.k_high}, density {hierarchy.density_of(leaf.node_id):.2f}, "
            f"vertices {members}"
        )


if __name__ == "__main__":
    main()
