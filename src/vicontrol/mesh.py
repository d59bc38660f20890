"""Conforming P1 triangulations of the unit square with a two-part boundary.

The boundary of every mesh is partitioned into a heat-exchange part
(``gamma1``, where Robin or Dirichlet data act) and a flux part (``gamma2``).
``gamma1`` must be nonempty.  Nodes are ordered lexicographically by (y, x)
so that assembly iterates in a reproducible order; projected sweeps go
red-black by grid parity, with a greedy colouring in this node order as
the fallback, so they are deterministic too.
Meshes are immutable after construction and safe to share between solves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import EvaluationError, InvalidParameterError, MeshError

SIDES = ("bottom", "right", "top", "left")

_AREA_TOL = 1e-14


@dataclass(frozen=True)
class Mesh:
    """A conforming triangulation with tagged boundary edges.

    Attributes
    ----------
    nodes : ndarray, shape (N, 2)
        Node coordinates.
    triangles : ndarray, shape (T, 3)
        Node indices per triangle, counterclockwise.
    gamma1_edges : ndarray, shape (E1, 2)
        Boundary edges (sorted node pairs) on the heat-exchange boundary.
    gamma2_edges : ndarray, shape (E2, 2)
        Boundary edges on the flux boundary.
    division_count : int or None
        Subdivisions per side for structured unit-square meshes; None for
        meshes of unknown provenance.
    h : float
        Mesh size, the longest triangle side: computed, not given.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    gamma1_edges: np.ndarray
    gamma2_edges: np.ndarray
    division_count: int | None = None

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.gamma1_edges, self.gamma2_edges):
            arr.setflags(write=False)

    @cached_property
    def h(self) -> float:
        """The longest side, from the side vectors assembly uses; sqrt is monotone."""
        b, c, _ = _element_geometry(self)
        return float(np.sqrt((c * c + b * b).max()))

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]

    def gamma1_nodes(self) -> np.ndarray:
        """Sorted indices of all nodes lying on gamma1 edges."""
        return np.unique(self.gamma1_edges)


def _same_mesh(a: Mesh, b: Mesh) -> bool:
    """Whether a and b are one mesh: the same object, or equal nodes,
    triangles and boundary edges."""
    return a is b or all(np.array_equal(getattr(a, k), getattr(b, k))
                         for k in ("nodes", "triangles", "gamma1_edges", "gamma2_edges"))


@dataclass(frozen=True)
class ScalarField:
    """Nodal coefficients of a piecewise-linear function on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.node_count,):
            raise InvalidParameterError(
                f"field has {vals.shape} values for {self.mesh.node_count} nodes"
            )
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise EvaluationError(f"non-finite value at node {bad}")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)


def _normalize_sides(gamma1_spec) -> tuple[str, ...]:
    if isinstance(gamma1_spec, str):
        names = [s.strip() for s in gamma1_spec.split(",") if s.strip()]
    else:
        names = list(gamma1_spec)
    for name in names:
        if name not in SIDES:
            raise InvalidParameterError(f"unknown boundary side {name!r}")
    if not names:
        raise InvalidParameterError("gamma1 must cover at least one side")
    return tuple(s for s in SIDES if s in names)


def _side_edges(n: int) -> dict[str, np.ndarray]:
    m = n + 1
    bottom = np.column_stack([np.arange(n), np.arange(1, m)])
    top = bottom + n * m
    left = np.column_stack([np.arange(n) * m, np.arange(1, m) * m])
    right = left + n
    return {"bottom": bottom, "right": right, "top": top, "left": left}


def build_unit_square(n: int, gamma1_spec="bottom") -> Mesh:
    """Triangulate (0,1)^2 with n subdivisions per side.

    Each of the n^2 cells is split along its lower-left to upper-right
    diagonal, giving 2 n^2 triangles, (n+1)^2 nodes, and h = sqrt(2)/n.

    Parameters
    ----------
    n : int
        Subdivisions per side, at least 1.
    gamma1_spec : str or iterable of str
        Sides assigned to gamma1, e.g. ``"bottom"`` or ``"bottom,left"``.
        The remaining sides form gamma2.
    """
    _check_divisions(n)
    sides = _normalize_sides(gamma1_spec)

    m = n + 1
    ticks = np.arange(m) / n
    xg, yg = np.meshgrid(ticks, ticks, indexing="xy")
    nodes = np.column_stack([xg.ravel(), yg.ravel()])

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (iy * m + ix).ravel()
    v10 = v00 + 1
    v01 = v00 + m
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    per_side = _side_edges(n)
    g1 = [per_side[s] for s in sides]
    g2 = [per_side[s] for s in SIDES if s not in sides]
    gamma1 = np.vstack(g1)
    gamma2 = np.vstack(g2) if g2 else np.empty((0, 2), dtype=np.int64)

    return Mesh(
        nodes=nodes,
        triangles=triangles,
        gamma1_edges=np.sort(gamma1, axis=1).astype(np.int64),
        gamma2_edges=np.sort(gamma2, axis=1).astype(np.int64),
        division_count=n,
    )


def _unique_edges(tri):
    """The sorted distinct edges of the triangles, for each of the 3T edges
    (all first sides, then second, then third) the index of its edge, and
    how many triangles share each edge."""
    pairs = np.sort(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
    return np.unique(pairs, axis=0, return_inverse=True, return_counts=True)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children via edge midpoints.

    Halves h and passes boundary tags down to child edges.  Node order of
    the refined mesh is again lexicographic by (y, x).
    """
    tri = mesh.triangles
    edges, edge_of, _ = _unique_edges(tri)
    n_old = mesh.node_count

    midpoints = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    nodes = np.vstack([mesh.nodes, midpoints])

    t = mesh.triangle_count
    m01 = n_old + edge_of[0:t]
    m12 = n_old + edge_of[t : 2 * t]
    m20 = n_old + edge_of[2 * t : 3 * t]
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    children = np.empty((4 * t, 3), dtype=np.int64)
    children[0::4] = np.column_stack([a, m01, m20])
    children[1::4] = np.column_stack([m01, b, m12])
    children[2::4] = np.column_stack([m20, m12, c])
    children[3::4] = np.column_stack([m01, m12, m20])

    # restore lexicographic (y, x) node order
    order = np.lexsort((nodes[:, 0], nodes[:, 1]))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    nodes = nodes[order]
    children = rank[children]
    keys = edges[:, 0] * n_old + edges[:, 1]  # ascending: edges are sorted rows

    def split_tagged(tagged):
        """Both halves of each tagged edge in the new node order, sorted."""
        lo, hi = np.sort(tagged, axis=1).T
        mid = n_old + np.searchsorted(keys, lo * n_old + hi)
        halves = rank[np.vstack([np.column_stack([lo, mid]), np.column_stack([mid, hi])])]
        halves = np.sort(halves, axis=1)
        return halves[np.lexsort((halves[:, 1], halves[:, 0]))]

    return Mesh(
        nodes=nodes,
        triangles=children,
        gamma1_edges=split_tagged(mesh.gamma1_edges),
        gamma2_edges=split_tagged(mesh.gamma2_edges),
        division_count=None if mesh.division_count is None else 2 * mesh.division_count,
    )


def interpolate(mesh: Mesh, f: Callable[[float, float], float]) -> ScalarField:
    """Nodal interpolation: the P1 function matching f at every node.

    Reproduces affine functions (and any member of the P1 space) exactly.
    """
    xs, ys = mesh.nodes.T.tolist()  # two flat lists: no list per node for the gc to track
    return _nodal_field(mesh, np.array([f(x, y) for x, y in zip(xs, ys)], dtype=float))


def _nodal_field(mesh: Mesh, values: np.ndarray) -> ScalarField:
    """The field of some f's values at the nodes; the EvaluationError for a
    non-finite value names the first node that has one."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        x, y = mesh.nodes[i].tolist()
        raise EvaluationError(f"f({x}, {y}) = {float(values[i])!r} at node {i} is not finite")
    return ScalarField(mesh, values)


def constant_field(mesh: Mesh, value: float) -> ScalarField:
    return ScalarField(mesh, np.full(mesh.node_count, float(value)))


def prolongate(field: ScalarField, fine: Mesh) -> ScalarField:
    """Transfer a field from a structured mesh to a nested finer one.

    Exact P1 prolongation: coarse nodes inject, new nodes take the value of
    the coarse piecewise-linear function.  Requires both meshes to be
    structured unit-square meshes with fine n a multiple of coarse n.
    """
    nc, nf = field.mesh.division_count, fine.division_count
    if nc is None or nf is None:
        raise InvalidParameterError("prolongation requires structured meshes")
    return ScalarField(fine, _prolongation(nc, _nesting_ratio(nc, nf)) @ field.values)


def _check_divisions(n: int):
    if n < 1:
        raise InvalidParameterError(f"need n >= 1 subdivisions, got {n}")


def _nesting_ratio(nc: int, nf: int) -> int:
    """nf / nc, which must be a whole number >= 1 for the grids to nest."""
    if nf % nc != 0 or nf < nc:
        raise InvalidParameterError(
            f"fine divisions {nf} must be a multiple of coarse divisions {nc}"
        )
    return nf // nc


@lru_cache(maxsize=16)
def _prolongation(nc: int, ratio: int = 2) -> sp.csr_matrix:
    """P1 prolongation matrix from the nc to the ratio * nc grid.

    Fine node i at (s, t) in its coarse cell takes u00 (1 - s) + u10 (s - t)
    + u11 t if s >= t, else u00 (1 - t) + u11 s + u01 (t - s).  Row i keeps
    the nonzero terms in that order, so ``P @ u`` rounds as the sum does.
    Top and right side nodes lie in the cells beyond, with zero off-grid weights.
    Each P is built once and shared, so its arrays are read-only: sorting
    its rows in place would change how ``P @ u`` rounds for every caller.
    """
    nf, m = ratio * nc, nc + 1
    c = np.arange(nf + 1) / nf * nc  # coarse coordinate of each fine grid line
    i = np.floor(c).astype(np.int64)
    s, t = np.tile(c - i, nf + 1), np.repeat(c - i, nf + 1)
    base = np.repeat(i * m, nf + 1) + np.tile(i, nf + 1)
    lower = s >= t
    lo, gap = np.minimum(s, t), np.abs(s - t)  # t and s - t if lower, else s and t - s
    w = np.column_stack([1.0 - np.maximum(s, t), np.where(lower, gap, lo),
                         np.where(lower, lo, gap)])
    cols = np.column_stack([base, base + np.where(lower, 1, m + 1),
                            base + np.where(lower, m + 1, m)])
    nz = np.flatnonzero(w)  # row by row, each row in term order
    indptr = np.concatenate([[0], np.cumsum(np.bincount(nz // 3, minlength=base.size))])
    P = sp.csr_matrix((w.ravel()[nz], cols.ravel()[nz], indptr), shape=(base.size, m * m))
    for arr in (P.data, P.indices, P.indptr):
        arr.flags.writeable = False
    return P


def _element_geometry(mesh: Mesh):
    """Per triangle: the P1 gradient coefficient vectors b and c (grad
    phi_i = (b_i, c_i) / (2 area)) and the signed area."""
    p = mesh.nodes[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (x[:, 0] * bvec[:, 0] + x[:, 1] * bvec[:, 1] + x[:, 2] * bvec[:, 2])
    return bvec, cvec, area


def validate_mesh(mesh: Mesh) -> None:
    """Audit conformity and tagging invariants; raise MeshError on failure."""
    areas = _element_geometry(mesh)[2]
    if np.any(areas <= _AREA_TOL):
        bad = int(np.argmax(areas <= _AREA_TOL))
        raise MeshError(f"triangle {bad} has non-positive area {areas[bad]:.3e}")

    edges, _, counts = _unique_edges(mesh.triangles)
    if np.any(counts > 2):
        raise MeshError("an edge is shared by more than two triangles")
    boundary = {tuple(e) for e in edges[counts == 1]}

    g1 = {tuple(e) for e in np.asarray(mesh.gamma1_edges)}
    g2 = {tuple(e) for e in np.asarray(mesh.gamma2_edges)}
    if not g1:
        raise MeshError("gamma1 is empty")
    if g1 & g2:
        raise MeshError("gamma1 and gamma2 overlap")
    if (g1 | g2) != boundary:
        raise MeshError("tagged edges do not partition the boundary")


def write_mesh(mesh: Mesh, path) -> None:
    """Dump a mesh in the plain-text exchange format.

    One header line ``nodes <N> triangles <T>``, node coordinate lines,
    triangle index lines, then the ``gamma1`` and ``gamma2`` edge lists.
    """
    blocks = [
        f"nodes {mesh.node_count} triangles {mesh.triangle_count}",
        format_rows("%.17g %.17g", mesh.nodes),
        format_rows("%d %d %d", mesh.triangles),
        "gamma1", format_rows("%d %d", mesh.gamma1_edges),
        "gamma2", format_rows("%d %d", mesh.gamma2_edges),
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(b for b in blocks if b) + "\n")  # an empty block adds no line


def format_rows(fmt: str, *columns: np.ndarray) -> str:
    """``fmt % row`` for each row of the columns side by side, one line per
    row joined by newlines ("" for no rows).  One ``%`` formats the whole
    block from one flat ``tolist``, so ``%.17g`` prints a float round-trip.
    In a float table, each column's piece of ``fmt`` (its conversion and the
    text up to the next) formats each distinct value once, told apart by bit
    pattern (0.0 and -0.0 print apart), and the pieces are joined: same bytes."""
    table = np.column_stack(columns)
    if table.dtype == np.float64:
        cuts = [m.start() for m in re.finditer("%%?", fmt) if m[0] == "%"][1:]
        pieces = np.empty(table.shape, dtype=object)
        for j, a, b in zip(range(table.shape[1]), [0] + cuts, cuts + [None], strict=True):
            bits, inv = np.unique(table[:, j].view(np.uint64), return_inverse=True)
            pieces[:, j] = np.array([fmt[a:b] % v for v in bits.view(np.float64).tolist()],
                                    dtype=object)[inv]
        fmt, table = "%s" * table.shape[1], pieces
    return "\n".join([fmt] * table.shape[0]) % tuple(table.ravel().tolist())
