"""Structural kernel: postorder, restriction and biideal splits.

postorder_indices and restrict_parents work on the flat preorder encoding
of a forest: a length-n parent array where parents[i] is the preorder
index of vertex i's parent, -1 for roots. Preorder makes every subtree a
contiguous index block and sibling order equal to index order, so
restriction to an arbitrary vertex subset is a filter plus a parent chase.
They serve vertex_order, biideals, restrict and the subset expansion of
phi.

biideal_splits needs neither: it walks the nested trees themselves. The
biideal I_k (the first k vertices in postorder) contains every descendant
of its members, so F|I_k is the list of whole subtrees it holds; its
complement contains every ancestor of its members, so F|J_k is F with
those subtrees cut off. No ancestry is contracted on either side.

Every routine is an explicit loop, so no input depth reaches the
interpreter's recursion limit here.
"""

from . import forest as _forest

__all__ = ["postorder_indices", "restrict_parents", "biideal_splits"]


def postorder_indices(parents):
    """Left-to-right postorder listing of preorder indices.

    In preorder, a vertex whose parent is p closes every open vertex
    above p, so one stack of open vertices emits each vertex as soon as
    its subtree ends.
    """
    out = []
    stack = []
    for i, p in enumerate(parents):
        while stack and stack[-1] != p:
            out.append(stack.pop())
        stack.append(i)
    out.extend(reversed(stack))
    return tuple(out)


def restrict_parents(parents, keep):
    """Parent array of the restriction to keep (ascending preorder indices).

    Entry j is the position within keep of the nearest kept strict ancestor
    of keep[j], or -1 when every strict ancestor was deleted; ancestry is
    contracted through deleted vertices.
    """
    pos = {v: j for j, v in enumerate(keep)}
    out = []
    for v in keep:
        p = parents[v]
        while p >= 0 and p not in pos:
            p = parents[p]
        out.append(pos[p] if p >= 0 else -1)
    return tuple(out)


def biideal_splits(F):
    """The n_F + 1 pairs (F|I_k, F|J_k), k = 0..n_F, in postorder.

    One walk over the nested trees. When the k-th vertex v in postorder
    is reached, F|I_k is the whole trees left of v's branch at every
    level, followed by v's siblings up to v itself. F|J_k starts from
    v's later siblings and rebuilds, with Tree.make, only v's ancestors,
    from v's parent down to the root: each over the J-part below it,
    followed by that ancestor's own later siblings. Trees off that path
    are shared, not rebuilt.

    Each step moves one vertex from J to I, so the k-th pair has k and
    n_F - k vertices.
    """
    make_tree, make = _forest.Tree.make, _forest.Forest.make
    out = [(_forest.EMPTY_FOREST, F)]
    cut = []      # (decoration, later siblings) of each open ancestor
    saved = []    # (siblings, index, I-trees to their left) per open ancestor
    sibs, j, left = F.trees, 0, ()
    while True:
        if j < len(sibs):
            t = sibs[j]
            if t.children:
                cut.append((t.deco, sibs[j + 1:]))
                saved.append((sibs, j, left))
                left = left + sibs[:j]
                sibs, j = t.children, 0
                continue
        elif saved:
            cut.pop()
            sibs, j, left = saved.pop()
        else:
            return out
        # sibs[j] is the next vertex in postorder: its subtree joins I
        j += 1
        rest = sibs[j:]
        for deco, later in reversed(cut):
            rest = (make_tree(deco, rest),) + later
        out.append((make(left + sibs[:j]), make(rest)))
