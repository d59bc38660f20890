"""Exact P1 assembly of the bilinear forms and load functionals.

Builds the stiffness matrix for the Dirichlet form, the domain mass matrix
for the L2 inner product, the boundary mass matrix supported on gamma1, and
the boundary load vectors on gamma1/gamma2.  All element integrals are
closed-form (no quadrature error for P1 data and edge-constant fluxes).
Mass matrices are consistent, not lumped.  This module is the one home of
scipy's private compiled CSR kernels (``scipy.sparse._sparsetools``): the
symbolic pass of :func:`_scatter` and the solvers' products by :func:`_matvec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import (coo_tocsr, csr_has_sorted_indices, csr_matvec,
                                       csr_sort_indices)

from .errors import AssemblyError, InvalidParameterError
from .mesh import (_AREA_TOL, Mesh, ScalarField, _element_geometry, _nodal_field, _same_mesh,
                   constant_field, interpolate)
from .presets import Box

# control/flux specifications accepted by problem data
ControlSpec = Union[float, Callable[[float, float], float], ScalarField, None]
FluxSpec = Union[float, dict, Callable[[float, float], float]]

_MASS_TEMPLATE = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
_EDGE_TEMPLATE = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
DOT_RUN = 8192  # entries of one BLAS dot product in _dot; OpenBLAS threads it above 10 000


@dataclass(frozen=True)
class ProblemData:
    """One problem instance: Robin coefficient, boundary data, cost weight.

    Parameters
    ----------
    alpha : float or None
        Heat transfer coefficient on gamma1 (> 0).  None is allowed for
        data used only with the Dirichlet-limit system.
    b : float
        Constant environment temperature on gamma1 (> 0).
    q : float, dict, or callable
        Heat flux on gamma2.  A float is a global constant, a dict maps
        side names to constants, a callable is evaluated at edge midpoints
        (treated as constant per edge).
    M_cost : float
        Weight of the control term in the quadratic cost (> 0).
    g : float, callable, ScalarField, or None
        Distributed control; materialized as a P1 nodal field per mesh.
    """

    alpha: float | None = None
    b: float = 1.0
    q: FluxSpec = 0.0
    M_cost: float = 1.0
    g: ControlSpec = 0.0

    def __post_init__(self):
        if self.alpha is not None and not (np.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidParameterError(f"alpha must be > 0, got {self.alpha}")
        if not (np.isfinite(self.b) and self.b > 0):
            raise InvalidParameterError(f"b must be > 0, got {self.b}")
        if not (np.isfinite(self.M_cost) and self.M_cost > 0):
            raise InvalidParameterError(f"M_cost must be > 0, got {self.M_cost}")


@dataclass(frozen=True)
class AssembledSystem:
    """Sparse matrices and load vectors of one mesh.

    K is the stiffness matrix of the Dirichlet form, M_H the domain mass
    matrix, M_R the boundary mass matrix supported on gamma1 nodes.
    b_load holds the gamma1 environment-temperature functional (b, phi_i)_R
    for the data passed to :func:`assemble` (b = 1 when none was given).
    """

    mesh: Mesh
    K: sp.csr_matrix
    M_H: sp.csr_matrix
    M_R: sp.csr_matrix
    b_load: np.ndarray


def as_control_field(mesh: Mesh, g: ControlSpec) -> ScalarField:
    """Materialize a control specification as a nodal field on a mesh."""
    if g is None:
        return constant_field(mesh, 0.0)
    if isinstance(g, ScalarField):
        if not _same_mesh(g.mesh, mesh):
            raise InvalidParameterError("control field lives on a different mesh")
        return g
    if isinstance(g, Box):
        return _nodal_field(mesh, g.at(*mesh.nodes.T))
    if callable(g):
        return interpolate(mesh, g)
    return constant_field(mesh, float(g))


def _matvec(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """a @ x for a CSR matrix a and a vector x, without scipy's operator
    dispatch: the ``csr_matvec`` that ``@`` runs, into a fresh zero vector
    of the same dtype, so the same bytes.  The solvers' per-sweep and
    per-step products go through it.  Anything but a CSR matrix and a 1-D x
    of a.shape[1] entries raises: the kernel would misread a 2-D x."""
    m, n = a.shape
    if a.format != "csr" or x.shape != (n,):
        raise ValueError(f"_matvec takes a CSR matrix and a vector of {n} entries, "
                         f"got {a.format} and shape {x.shape}")
    out = np.zeros(m, np.promote_types(a.dtype, x.dtype))
    csr_matvec(m, n, a.indptr, a.indices, a.data, x, out)
    return out


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x @ y for two vectors, with the same bits on any number of BLAS
    threads.  OpenBLAS sums a long ddot in per-thread parts, so its bits
    depend on how many CPUs it sees; up to ``DOT_RUN`` entries this is one
    ``x @ y``, and longer vectors sum the ``@`` of their runs of ``DOT_RUN``
    entries in order, each run short enough for one thread."""
    if x.size <= DOT_RUN:
        return float(x @ y)
    return float(sum(x[i:i + DOT_RUN] @ y[i:i + DOT_RUN] for i in range(0, x.size, DOT_RUN)))


def _scatter(mesh: Mesh, cells: np.ndarray, *local: np.ndarray) -> list[sp.csr_matrix]:
    """Sum each array of local matrices of the cells (triangles or edges) into
    a global one, exactly symmetric as they are; sums of exactly 0.0 are not
    stored.  The (row, col) pattern is converted and sorted once, by the
    kernels ``coo_matrix(...).tocsr()`` runs, with the entries' positions as
    values: the sort compares column indices only, so its permutation does
    not depend on the values.  Each matrix gathers its values by that
    permutation (cast to intp after the pass, so ``take`` reads it fast and
    the pass holds no more memory than one ``tocsr``) and scipy sums them, in
    the order and with the bytes of ``tocsr``.  The pruned arrays are views
    of the unpruned sum; the copy frees it."""
    n, k = mesh.node_count, cells.shape[1]
    nnz = cells.size * k
    idx = sp.get_index_dtype(maxval=max(nnz, n))
    c = cells.astype(idx)
    indptr, indices, perm = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz, idx)
    coo_tocsr(n, n, nnz, np.repeat(c, k, axis=1).ravel(), np.tile(c, k).ravel(),
              np.arange(nnz, dtype=idx), indptr, indices, perm)
    if not csr_has_sorted_indices(n, indptr, indices):  # as tocsr: every row or none
        csr_sort_indices(n, indptr, indices, perm)
    perm = perm.astype(np.intp)
    out = []
    for vals in local:
        a = sp.csr_matrix((vals.ravel().take(perm), indices.copy(), indptr.copy()), shape=(n, n))
        a.sum_duplicates()
        a.eliminate_zeros()
        out.append(a.copy())
    return out


def _edge_lengths(mesh: Mesh, edges: np.ndarray) -> np.ndarray:
    d = mesh.nodes[edges[:, 0]] - mesh.nodes[edges[:, 1]]
    return np.linalg.norm(d, axis=1)


def _gamma1_mass(mesh: Mesh) -> sp.csr_matrix:
    ell = _edge_lengths(mesh, mesh.gamma1_edges)
    return _scatter(mesh, mesh.gamma1_edges, ell[:, None, None] * _EDGE_TEMPLATE)[0]


def _flux_value(q: FluxSpec, mid: np.ndarray) -> float:
    if callable(q):
        return float(q(float(mid[0]), float(mid[1])))
    if isinstance(q, dict):
        x, y = mid
        tol = 1e-12
        if abs(y) <= tol:
            side = "bottom"
        elif abs(x - 1.0) <= tol:
            side = "right"
        elif abs(y - 1.0) <= tol:
            side = "top"
        elif abs(x) <= tol:
            side = "left"
        else:
            raise InvalidParameterError(
                f"per-side flux given but edge midpoint {mid} is on no unit-square side"
            )
        return float(q.get(side, 0.0))
    return float(q)


def _edge_load(mesh: Mesh, edges: np.ndarray, per_edge: np.ndarray) -> np.ndarray:
    """Nodal load giving each end node of edge e half of per_edge[e].

    Contributions are summed in edge order, first node before second.
    """
    half = np.repeat(per_edge / 2.0, 2)
    return np.bincount(edges.ravel(), weights=half, minlength=mesh.node_count)


def _gamma2_flux_load(mesh: Mesh, q: FluxSpec) -> np.ndarray:
    """(q, phi_i) over gamma2, exact for edge-constant q."""
    edges = mesh.gamma2_edges
    mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    qe = np.array([_flux_value(q, mid) for mid in mids], dtype=float)
    return _edge_load(mesh, edges, qe * _edge_lengths(mesh, edges))


def _gamma1_unit_load(mesh: Mesh) -> np.ndarray:
    """(1, phi_i) over gamma1: each node gets half its adjacent edge length."""
    return _edge_load(mesh, mesh.gamma1_edges, _edge_lengths(mesh, mesh.gamma1_edges))


def assemble(mesh: Mesh, data: ProblemData | None = None) -> AssembledSystem:
    """Assemble all matrices and boundary loads of a mesh.

    Parameters
    ----------
    mesh : Mesh
    data : ProblemData, optional
        When given, b_load is assembled for data.b; otherwise for b = 1.

    Returns
    -------
    AssembledSystem
        With exact P1 matrices: K positive semidefinite (kernel = constants),
        M_H positive definite, M_R positive semidefinite with support on
        gamma1 nodes.
    """
    bvec, cvec, area = _element_geometry(mesh)
    if np.any(area <= _AREA_TOL):
        bad = int(np.argmax(area <= _AREA_TOL))
        raise AssemblyError(
            f"triangle {bad} with nodes {mesh.triangles[bad].tolist()} is degenerate "
            f"(area {area[bad]:.3e})"
        )
    k_local = (
        np.einsum("ti,tj->tij", bvec, bvec) + np.einsum("ti,tj->tij", cvec, cvec)
    ) / (4.0 * area)[:, None, None]
    m_local = area[:, None, None] * _MASS_TEMPLATE

    b = 1.0 if data is None else data.b
    K, M_H = _scatter(mesh, mesh.triangles, k_local, m_local)
    return AssembledSystem(
        mesh=mesh,
        K=K, M_H=M_H,
        M_R=_gamma1_mass(mesh),
        b_load=b * _gamma1_unit_load(mesh),
    )


def robin_matrix(sys: AssembledSystem, alpha: float) -> sp.csr_matrix:
    """K + alpha * M_R; positive definite for alpha > 0."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    return (sys.K + alpha * sys.M_R).tocsr()


def load_vector(sys: AssembledSystem, data: ProblemData) -> np.ndarray:
    """Load functional of the Robin-family state system.

    F_i = (g, phi_i)_H - (q, phi_i)_Q + alpha (b, phi_i)_R, assembled from
    the data directly (independent of the loads stored on the system).
    Exact for edge-constant q and P1 controls.
    """
    if data.alpha is None:
        raise InvalidParameterError("Robin load requires alpha > 0")
    g = as_control_field(sys.mesh, data.g)
    alpha_b = float(data.alpha * data.b)
    if not np.isfinite(alpha_b):
        raise InvalidParameterError(f"alpha * b must be finite, got {alpha_b}")
    return (
        sys.M_H @ g.values
        - _gamma2_flux_load(sys.mesh, data.q)
        + alpha_b * _gamma1_unit_load(sys.mesh)
    )


def _values(v) -> np.ndarray:
    return v.values if isinstance(v, ScalarField) else np.asarray(v, dtype=float)


def _form(a: sp.csr_matrix, x: np.ndarray) -> float:
    """(x, a x)_2; inf or nan, without a warning, where it overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _dot(x, _matvec(a, x))


def norm_H(sys: AssembledSystem, v) -> float:
    x = _values(v)
    return float(np.sqrt(max(_form(sys.M_H, x), 0.0)))


def norm_V(sys: AssembledSystem, v) -> float:
    x = _values(v)
    return float(np.sqrt(max(_form(sys.K, x) + _form(sys.M_H, x), 0.0)))


def norm_R(sys: AssembledSystem, v) -> float:
    x = _values(v)
    return float(np.sqrt(max(_form(sys.M_R, x), 0.0)))


def norms(sys: AssembledSystem, v) -> dict[str, float]:
    """H-, V-, and R-norms of a nodal field."""
    x = _values(v)
    if x.shape != (sys.mesh.node_count,):
        raise InvalidParameterError(
            f"field has shape {x.shape}, expected ({sys.mesh.node_count},)"
        )
    return {"H": norm_H(sys, x), "V": norm_V(sys, x), "R": norm_R(sys, x)}


def coercivity_constant(sys: AssembledSystem, alpha: float) -> float:
    """Sharp discrete coercivity constant of the Robin form.

    Smallest eigenvalue of the pencil (K + alpha M_R, K + M_H): the largest
    lambda with  v'(K + alpha M_R)v >= lambda ||v||_V^2  for all v.  Dense
    computation; intended for small meshes and test tolerances only.
    """
    a = robin_matrix(sys, alpha).toarray()
    g = (sys.K + sys.M_H).toarray()
    w = scipy.linalg.eigh(a, g, eigvals_only=True, subset_by_index=[0, 0])
    return float(w[0])


def dump_matrix(matrix, path) -> None:
    """Write a sparse matrix as coordinate triplets ``i j value``."""
    coo = sp.coo_matrix(matrix)
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{i} {j} {v:.17g}\n")
