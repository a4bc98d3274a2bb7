"""Exact maximum-weight matching on integer edge arrays, with its dual
certificate.

``certified_matching`` is Edmonds' primal-dual blossom algorithm in the
O(n^3) form of Galil ("Efficient algorithms for finding maximum matching
in graphs", ACM Computing Surveys 18(1), 1986).  Its control flow follows
networkx's ``max_weight_matching`` (itself after J. van Rantwijk's
mwmatching.py) step for step, with nodes and edges renumbered to list
indices: a vertex is 0..n-1, a blossom n..2n-1 (an id is reused once its
blossom is expanded; at most n/2 blossoms live at once), an edge is its
position k in the input, and its slack is read from three integer arrays
instead of graph views.  Nodes are numbered in order of first appearance
and neighbours kept in edge order, as networkx orders them, so every
choice among equal slacks falls the same way and the matching returned
is the one networkx returns.

All arithmetic is on Python integers.  Vertex duals are kept doubled
(y = 2u, starting at the largest weight), blossom duals z as they are,
so every update stays integral; the reduced cost of an edge uv of weight
w is y_u + y_v - 2w + 2 * (the z of every blossom holding both u and v).

Bounds (n nodes): at most n/2 + 1 stages, since every stage but the last
augments the matching by one edge.  Within a stage every substage ends in
a dual change of one of four kinds: the last one (some vertex dual
reaches 0), labelling an unlabelled top-level blossom (at most the
n + (n-1)/2 vertices and blossoms present at the stage start), forming a
blossom (each merges at least three top-level blossoms into one, and the
top-level count starts at most n and grows by at most n - 1 through
expansions, so at most n - 1 of them), or expanding a T-blossom (at most
the (n-1)/2 blossoms present at the stage start).  Counting the substage
that augments, a stage has at most 3n + 2 substages.  Both loops are
capped at these counts and raise ``EngineError`` past them.  Blossom
expansion and augmentation walk nested blossoms with explicit stacks; no
function recurses.

Before returning, ``certified_matching`` checks the duals by integer
arithmetic (``check_certificate``): y >= 0 and z >= 0, every edge has
reduced cost >= 0, every matched edge has reduced cost 0, every node with
y > 0 is matched, and the dual total (the sum of y plus z * (|B| - 1)
over the blossoms B) equals twice the matching's weight.  By weak duality
for the matching polytope (Edmonds 1965) these prove the matching
optimal.
"""
from __future__ import annotations

from itertools import chain
from typing import Sequence

from .errors import EngineError
from .model import Pair

IntEdge = tuple[int, int, int]
Blossom = tuple[tuple[int, ...], int]
Certificate = tuple[list[Pair], list[int], list[Blossom]]  # (pairs, y, blossoms)


def certified_matching(edges: Sequence[IntEdge]) -> Certificate:
    """A maximum-weight matching of the integer-weighted edges (u, v, w),
    w >= 0, with its certificate: the sorted pairs (u < v), the doubled
    vertex duals y (indexed by node, 0 for a node without edges) and the
    blossoms as (sorted nodes, z) on their laminar family.  Raises
    ``EngineError`` unless ``check_certificate`` accepts them."""
    index: dict[int, int] = {}
    for u, v, _ in edges:
        index.setdefault(u, len(index))
        index.setdefault(v, len(index))
    nodes = list(index)
    mate, dual, found = _primal_dual(
        len(nodes), [(index[u], index[v], w) for u, v, w in edges]
    )
    pairs = sorted(
        (min(nodes[a], nodes[b]), max(nodes[a], nodes[b])) for a, b in enumerate(mate) if a < b
    )
    y = [0] * (max(nodes) + 1 if nodes else 0)
    for a, x in enumerate(nodes):
        y[x] = dual[a]
    blossoms = [(tuple(sorted(nodes[a] for a in members)), z) for members, z in found]
    check_certificate(edges, pairs, y, blossoms)
    return pairs, y, blossoms


def reduced_costs(
    edges: Sequence[IntEdge], y: Sequence[int], blossoms: Sequence[Blossom]
) -> list[int]:
    """Doubled reduced cost y_u + y_v - 2w + 2 * sum(z_B : u, v in B) of
    every edge, in order."""
    inside: dict[int, list[int]] = {}
    for i, (members, z) in enumerate(blossoms):
        if z:
            for v in members:
                inside.setdefault(v, []).append(i)
    out = []
    for u, v, w in edges:
        r = y[u] + y[v] - 2 * w
        if u in inside and v in inside:
            r += 2 * sum(blossoms[i][1] for i in set(inside[u]).intersection(inside[v]))
        out.append(r)
    return out


def check_certificate(
    edges: Sequence[IntEdge],
    pairs: Sequence[Pair],
    y: Sequence[int],
    blossoms: Sequence[Blossom],
) -> None:
    """Refuse, with ``EngineError``, unless the doubled vertex duals y and
    the odd-set duals z prove ``pairs`` a maximum-weight matching of
    ``edges`` (see the module docstring)."""
    if any(v < 0 for v in y) or any(z < 0 for _, z in blossoms):
        raise EngineError("dual certificate has a negative entry")
    for members, _ in blossoms:
        if len(members) % 2 == 0 or len(set(members)) != len(members):
            raise EngineError("dual certificate has a blossom that is not an odd node set")
    covered: set[int] = set()
    for u, v in pairs:
        if u in covered or v in covered:
            raise EngineError("the matching has pairs sharing a node")
        covered.update((u, v))
    matched = {(min(u, v), max(u, v)) for u, v in pairs}
    weight = found = 0
    for (u, v, w), r in zip(edges, reduced_costs(edges, y, blossoms)):
        if r < 0:
            raise EngineError(f"dual certificate leaves edge ({u},{v}) uncovered")
        if (min(u, v), max(u, v)) in matched:
            if r:
                raise EngineError(f"dual certificate is not tight on matched edge ({u},{v})")
            weight += w
            found += 1
    if found != len(matched):
        raise EngineError("the matching uses a pair that is not an edge")
    if any(d > 0 and x not in covered for x, d in enumerate(y)):
        raise EngineError("dual certificate is positive on an exposed node")
    if sum(y) + sum(z * (len(members) - 1) for members, z in blossoms) != 2 * weight:
        raise EngineError("dual certificate total differs from the matching's weight")


def _primal_dual(
    n: int, edges: Sequence[IntEdge]
) -> tuple[list[int], list[int], list[tuple[list[int], int]]]:
    """The blossom algorithm on vertices 0..n-1 (each on some edge): the
    mate of every vertex (-1 if exposed), the doubled vertex duals and the
    live blossoms as (vertices, z), in order of creation."""
    if not edges:
        return [], [], []
    eu = [u for u, _, _ in edges]
    ev = [v for _, v, _ in edges]
    w2 = [2 * w for _, _, w in edges]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (u, v, _) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    size = 2 * n

    mate = [-1] * n  # partner vertex
    mate_edge = [-1] * n  # index of the matched edge
    # label of a top-level blossom (or vertex): 0 free, 1 S, 2 T, 5 S with
    # a breadcrumb of scan_blossom; a vertex inside a T-blossom has label 2
    # once some S-vertex outside reaches it.
    label = [0] * size
    # labeledge[x] = (v, w, k): x got its label through edge k from v to w.
    labeledge: list[tuple[int, int, int] | None] = [None] * size
    inblossom = list(range(n))  # top-level blossom of each vertex
    parent = [-1] * size
    base = list(range(n)) + [-1] * n
    # bestedge[x]: least-slack edge from x (a top-level S-blossom) to
    # another S-blossom, or to x (a free vertex) from an S-vertex; -1 if none.
    bestedge = [-1] * size
    dual = [max(w2) // 2] * n
    bdual = [0] * size
    childs: list[list[int]] = [[] for _ in range(size)]  # base first, round the cycle
    # bedges[b][i] = (v, w, k): edge k joins v in childs[b][i] to w in the next child.
    bedges: list[list[tuple[int, int, int]]] = [[] for _ in range(size)]
    mybest: list[list[int] | None] = [None] * size
    alive: dict[int, None] = {}  # live blossoms, in order of creation
    unused = list(range(size - 1, n - 1, -1))
    allowed = [False] * len(edges)
    queue: list[int] = []

    def slack(k: int) -> int:
        return dual[eu[k]] + dual[ev[k]] - w2[k]

    def leaves(b: int) -> list[int]:
        if b < n:
            return [b]
        out = []
        stack = list(childs[b])
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        return out

    def assign_label(w: int, t: int, v: int, k: int) -> None:
        """Label the top-level blossom of w with t, reached by edge k from
        v (-1 for none); a T-blossom's mate becomes S in turn."""
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = None if v < 0 else (v, w, k)
            bestedge[w] = bestedge[b] = -1
            if t == 1:
                queue.extend(leaves(b))
                return
            x = base[b]
            w, t, v, k = mate[x], 1, x, mate_edge[x]

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from S-vertices v and w: the base of the new blossom,
        or -1 when the two paths reach different exposed vertices."""
        path = []
        found = -1
        while v >= 0:
            b = inblossom[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[b][0]
                v = labeledge[inblossom[v]][0]
            if w >= 0:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(bv_base: int, v: int, w: int, k: int) -> None:
        """Form an S-blossom with base bv_base from the cycle closed by
        edge k = (v, w)."""
        bb, bv, bw = inblossom[bv_base], inblossom[v], inblossom[w]
        b = unused.pop()
        base[b] = bv_base
        parent[b] = -1
        parent[bb] = b
        path = childs[b] = []
        edgs = bedges[b] = [(v, w, k)]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            x, z, kk = labeledge[bw]
            edgs.append((z, x, kk))
            bw = inblossom[x]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        bdual[b] = 0
        alive[b] = None
        for x in leaves(b):
            if label[inblossom[x]] == 2:
                queue.append(x)
            inblossom[x] = b
        best_to: dict[int, int] = {}
        for sub in path:
            if sub >= n and mybest[sub] is not None:
                ks = mybest[sub]
                mybest[sub] = None
            else:
                ks = [kk for x in leaves(sub) for _, kk in adj[x]]
            for kk in ks:
                j = ev[kk] if inblossom[ev[kk]] != b else eu[kk]
                bj = inblossom[j]
                if bj != b and label[bj] == 1 and (
                    bj not in best_to or slack(kk) < slack(best_to[bj])
                ):
                    best_to[bj] = kk
            bestedge[sub] = -1
        mybest[b] = list(best_to.values())
        best = -1
        for kk in mybest[b]:
            if best < 0 or slack(kk) < slack(best):
                best = kk
        bestedge[b] = best

    def expand_one(b: int, endstage: bool):
        """Expand top-level blossom b; yields each sub-blossom that must be
        expanded in turn (zero z at the end of a stage)."""
        for s in childs[b]:
            parent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and bdual[s] == 0:
                yield s
            else:
                for x in leaves(s):
                    inblossom[x] = s
        if not endstage and label[b] == 2:
            # Relabel the even path from the entry child to the base.
            cs, es = childs[b], bedges[b]
            entry = inblossom[labeledge[b][1]]
            j = cs.index(entry)
            if j & 1:
                j -= len(cs)
                step = 1
            else:
                step = -1
            v, w, k = labeledge[b]
            while j != 0:
                if step == 1:
                    p, q, kk = es[j]
                else:
                    q, p, kk = es[j - 1]
                label[w] = label[q] = 0
                assign_label(w, 2, v, k)
                allowed[kk] = True
                j += step
                if step == 1:
                    v, w, k = es[j]
                else:
                    w, v, k = es[j - 1]
                allowed[k] = True
                j += step
            bw = cs[j]
            label[w] = label[bw] = 2
            labeledge[w] = labeledge[bw] = (v, w, k)
            bestedge[bw] = -1
            j += step
            # Children off that path become T only if reached from outside.
            while cs[j] != entry:
                bv = cs[j]
                if label[bv] == 1:
                    j += step
                    continue
                if bv >= n:
                    for x in leaves(bv):
                        if label[x]:
                            break
                else:
                    x = bv
                if label[x]:
                    label[x] = 0
                    label[mate[base[bv]]] = 0
                    assign_label(x, 2, labeledge[x][0], labeledge[x][2])
                j += step
        label[b] = 0
        labeledge[b] = None
        bestedge[b] = parent[b] = base[b] = -1
        bdual[b] = 0
        childs[b], bedges[b], mybest[b] = [], [], None
        del alive[b]
        unused.append(b)

    def expand_blossom(b: int, endstage: bool) -> None:
        stack = [expand_one(b, endstage)]
        while stack:
            for s in stack[-1]:
                stack.append(expand_one(s, endstage))
                break
            else:
                stack.pop()

    def augment_one(b: int, v: int):
        """Swap matched and unmatched edges on the even path from vertex v
        to the base of blossom b, making v its base; yields each
        sub-blossom to treat in turn."""
        t = v
        while parent[t] != b:
            t = parent[t]
        if t >= n:
            yield t, v
        cs, es = childs[b], bedges[b]
        i = j = cs.index(t)
        if i & 1:
            j -= len(cs)
            step = 1
        else:
            step = -1
        while j != 0:
            j += step
            t = cs[j]
            if step == 1:
                w, x, k = es[j]
            else:
                x, w, k = es[j - 1]
            if t >= n:
                yield t, w
            j += step
            t = cs[j]
            if t >= n:
                yield t, x
            mate[w], mate[x] = x, w
            mate_edge[w] = mate_edge[x] = k
        childs[b] = cs[i:] + cs[:i]
        bedges[b] = es[i:] + es[:i]
        base[b] = base[childs[b][0]]

    def augment_blossom(b: int, v: int) -> None:
        stack = [augment_one(b, v)]
        while stack:
            for args in stack[-1]:
                stack.append(augment_one(*args))
                break
            else:
                stack.pop()

    def augment_matching(v: int, w: int, k: int) -> None:
        """Augment along the path through edge k = (v, w) between two
        S-vertices to the exposed vertices at both ends."""
        for s, j in ((v, w), (w, v)):
            kk = k
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s], mate_edge[s] = j, kk
                if labeledge[bs] is None:
                    break
                bt = inblossom[labeledge[bs][0]]
                s, j, kk = labeledge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j], mate_edge[j] = s, kk

    for _stage in range(n // 2 + 1):
        label[:] = [0] * size
        labeledge[:] = [None] * size
        bestedge[:] = [-1] * size
        for b in alive:
            mybest[b] = None
        allowed[:] = [False] * len(edges)
        queue.clear()
        for v in range(n):
            if mate[v] < 0 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1, -1)
        augmented = False
        for _substage in range(3 * n + 2):
            while queue and not augmented:
                v = queue.pop()
                for w, k in adj[v]:
                    bv, bw = inblossom[v], inblossom[w]
                    if bv == bw:
                        continue
                    if not allowed[k]:
                        kslack = dual[v] + dual[w] - w2[k]
                        if kslack <= 0:
                            allowed[k] = True
                    if allowed[k]:
                        if label[bw] == 0:
                            assign_label(w, 2, v, k)
                        elif label[bw] == 1:
                            found = scan_blossom(v, w)
                            if found >= 0:
                                add_blossom(found, v, w, k)
                            else:
                                augment_matching(v, w, k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w] = 2
                            labeledge[w] = (v, w, k)
                    elif label[bw] == 1:
                        kk = bestedge[bv]
                        if kk < 0 or kslack < dual[eu[kk]] + dual[ev[kk]] - w2[kk]:
                            bestedge[bv] = k
                    elif label[w] == 0:
                        kk = bestedge[w]
                        if kk < 0 or kslack < dual[eu[kk]] + dual[ev[kk]] - w2[kk]:
                            bestedge[w] = k
            if augmented:
                break

            # No augmenting path among allowed edges: change the duals by
            # the least delta that allows a new edge, expands a T-blossom
            # or brings a vertex dual to zero (slacks are doubled).
            kind, delta, at = 1, min(dual), -1
            for v in range(n):
                k = bestedge[v]
                if k >= 0 and label[inblossom[v]] == 0:
                    d = dual[eu[k]] + dual[ev[k]] - w2[k]
                    if d < delta:
                        kind, delta, at = 2, d, v
            for b in chain(range(n), alive):
                k = bestedge[b]
                if k >= 0 and parent[b] < 0 and label[b] == 1:
                    d = dual[eu[k]] + dual[ev[k]] - w2[k]
                    if d & 1:
                        raise EngineError("odd slack between two S-blossoms")
                    if d // 2 < delta:
                        kind, delta, at = 3, d // 2, b
            for b in alive:
                if parent[b] < 0 and label[b] == 2 and bdual[b] < delta:
                    kind, delta, at = 4, bdual[b], b

            for v in range(n):
                lb = label[inblossom[v]]
                if lb == 1:
                    dual[v] -= delta
                elif lb == 2:
                    dual[v] += delta
            for b in alive:
                if parent[b] < 0:
                    if label[b] == 1:
                        bdual[b] += delta
                    elif label[b] == 2:
                        bdual[b] -= delta

            if kind == 1:
                break
            if kind == 2:
                k = bestedge[at]
                allowed[k] = True
                queue.append(eu[k] + ev[k] - at)
            elif kind == 3:
                k = bestedge[at]
                allowed[k] = True
                queue.append(eu[k] if inblossom[eu[k]] == at else ev[k])
            else:
                expand_blossom(at, False)
        else:
            raise EngineError(f"a stage ran past {3 * n + 2} substages")
        if not augmented:
            break
        # End of a stage: expand the S-blossoms whose z fell to zero.
        for b in list(alive):
            if b in alive and parent[b] < 0 and label[b] == 1 and bdual[b] == 0:
                expand_blossom(b, True)
    else:
        raise EngineError(f"the matching grew in more than {n // 2} stages")
    return mate, dual, [(leaves(b), bdual[b]) for b in alive]
