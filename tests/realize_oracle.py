"""Reference realization for sedp: the `_realize_tree` that set every
vertex's mode in a top-down pass and then joined the children's open walks
in a bottom-up pass, running the matching of H(t) without the delivering
child again at each node asked to deliver a pair.

`edpkit.sedp._realize_tree` builds the walks in one parent-first pass and
reads that matching from the label pass's records.  The `to_x` and `walks`
it files must equal these.
"""

from __future__ import annotations

from edpkit.sedp import LabelSet, SedpInstance, _max_cover


def _realize_tree(
    prep: SedpInstance, root: int, labels: dict[int, LabelSet], to_x: dict[int, list[int]], walks: dict[int, list[int]]
) -> None:
    """File the walks witnessing that the tree is gamma-empty-connected,
    following the label rules' constructive steps with all arbitrary
    choices fixed to lowest index.

    A top-down pass gives every vertex its mode: "ge", "gx", or the pair
    label whose terminal it delivers to its parent.  A node with one child
    passes its mode down.  A bottom-up pass then joins the children's
    open walks at each node; an open walk is an edge list from its start,
    a terminal or x, to the current vertex, grown in place as it climbs.
    A join is filed at once: one whose far end is x in to_x[terminal] (as
    is a "ge" terminal leaf's x-edge), one of a pair's two terminals in
    walks[pair], from the pair's s.
    """
    x, children_of, up = prep.x, prep.children, prep.parent_edge
    tree = prep.post_order[prep.tree_slice[root]]  # children before parents
    modes: dict[int, str | int] = {root: "ge"}
    steps: dict[int, tuple] = {}  # node -> (pairs of children joined at it, child extended upward)
    for t in reversed(tree):
        mode = modes[t]
        children = children_of[t]
        if len(children) == 1:
            modes[children[0]] = mode
            continue
        if not children:
            continue
        plan, matching, deliverer = prep.decisions.pop(t)
        v_neg, v_x, _, shared_pair = plan
        exclude: int | None = None
        if isinstance(mode, int):
            exclude = deliverer[mode][0]
            _, matching = _max_cover(plan, exclude)
        matched = {v for e in matching for v in e}
        unmatched_neg = [v for v in v_neg if v not in matched and v != exclude]
        suppliers_pool = [v for v in v_x if v != exclude]
        alpha = tuple(zip(unmatched_neg, suppliers_pool))
        upward = exclude  # delivers the pair upward
        if mode == "gx":
            upward = suppliers_pool[len(alpha)]  # the lowest supplier alpha left spare
        child_mode: dict[int, str | int] = {}
        for ci, cj in matching:
            p = shared_pair[(ci, cj)]
            child_mode[ci] = p
            child_mode[cj] = p
        for u, supplier in alpha:
            child_mode[u] = min(labels[u].pair_labels)
            child_mode[supplier] = "gx"
        if upward is not None:
            child_mode[upward] = mode
        steps[t] = (matching + alpha, upward)
        for c in children:
            modes[c] = child_mode.get(c, "ge")

    open_walks: dict[int, tuple[list[int], int]] = {}  # vertex -> (edges so far, start)
    for t in tree:
        mode = modes[t]
        children = children_of[t]
        if not children:
            pair = prep.pair_of.get(t)
            x_edge = prep.x_edge_of.get(t)
            if mode == "ge":
                if pair is not None:
                    assert x_edge is not None, "terminal leaf without x-edge cannot be gamma-empty"
                    to_x[t] = [x_edge]
            elif mode == "gx":
                assert pair is None and x_edge is not None
                open_walks[t] = ([x_edge], x)
            else:
                assert pair == mode, "leaf asked for a pair it does not hold"
                open_walks[t] = ([], t)
            continue
        if len(children) == 1:
            joins: tuple[tuple[int, int], ...] = ()
            upward = None if mode == "ge" else children[0]
        else:
            joins, upward = steps.pop(t)
        # Join two open walks through t: matched deliveries, and unmatched
        # deliveries routed to x through their supplier, which comes second.
        for ci, cj in joins:
            edges, a = open_walks.pop(ci)
            edges_j, b = open_walks.pop(cj)
            edges.append(up[ci])
            edges.append(up[cj])
            edges.extend(reversed(edges_j))
            if b == x:
                to_x[a] = edges
            else:
                j = prep.pair_of[a]
                walks[j] = edges if prep.pairs[j].s == a else edges[::-1]
        if upward is not None:
            walk = open_walks.pop(upward)
            walk[0].append(up[upward])
            open_walks[t] = walk

