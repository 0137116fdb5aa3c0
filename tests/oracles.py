"""Site-level oracles of the tests: the site-by-site and N x N forms that
bandlab's block code is checked against. ``tests/test_surface.py`` fails if
one of their names is defined in bandlab again."""

import base64
import json

import numpy as np

from bandlab import BlockLattice, VarianceProfile
from bandlab.montecarlo import LayerRows


def block_sites(lat: BlockLattice, a) -> np.ndarray:
    """The W^d sites of block a: the range [a W^d, (a+1) W^d)."""
    first = lat.block_index(a) * lat.block_volume
    return np.arange(first, first + lat.block_volume)


def dense_H(H) -> np.ndarray:
    """The N x N H of ``H``, a band's LayerRows: each layer's blocks with
    itself and its ring neighbours, zero elsewhere."""
    cuts = H.band.cuts
    out = np.zeros((cuts[-1], cuts[-1]), dtype=complex)
    for i, spans in enumerate(H.band.spans):
        for j in spans:
            out[cuts[i]:cuts[i + 1], cuts[j]:cuts[j + 1]] = H.block(i, j)
    return out


def rows_of(band, H: np.ndarray) -> LayerRows:
    """The band's LayerRows of an N x N H that vanishes off the blocks of
    each layer with itself and its ring neighbours: dense_H's inverse."""
    rows, cuts = LayerRows(band), band.cuts
    for i, spans in enumerate(band.spans):
        for j in spans:
            rows.block(i, j)[...] = H[cuts[i]:cuts[i + 1], cuts[j]:cuts[j + 1]]
    return rows


def dense_draw(band, rng) -> np.ndarray:
    """H as a fresh N x N array, from the normals that sample_H draws:
    real parts, imaginary parts and the diagonal, written on the band's
    support, its mirror image and the diagonal."""
    N, k = band.lattice.N, band.rows.size
    normals = rng.standard_normal(2 * k + N)
    vals = (normals[:k] + 1j * normals[k:2 * k]) * band.sd
    H = np.zeros((N, N), dtype=complex)
    H[band.rows, band.cols] = vals
    H[band.cols, band.rows] = vals.conj()
    H[np.diag_indices(N)] = normals[2 * k:] * band.diag_sd
    return H


def periodic_distance(lat: BlockLattice, x, y) -> int:
    """Periodic L^1 graph distance ||x - y||_L between sites."""
    return sum(min((u - v) % lat.L, (v - u) % lat.L)
               for u, v in zip(lat.site_coords(x), lat.site_coords(y)))


def site_distance_matrix(lat: BlockLattice) -> np.ndarray:
    """(N, N) periodic L^1 site distances, from the site coordinates."""
    coords = np.array([lat.site_coords(x) for x in range(lat.N)])
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    return np.minimum(diff, lat.L - diff).sum(axis=2)


def project_tensor(lat: BlockLattice, A: np.ndarray) -> np.ndarray:
    """Averaged tensor [A]_a = W^{-arity*d} sum over the block cells, the
    primitive-loop convention (project_matrix sums with W^-d instead)."""
    B = A.reshape((lat.block_count, lat.block_volume) * A.ndim)
    return B.mean(axis=tuple(range(1, 2 * A.ndim, 2)))


def flow_profile(s0: VarianceProfile, t0: float, t: float) -> VarianceProfile:
    """S_t = S_{t0} + (t - t0) S_E. Row sums grow by (t - t0)."""
    wd = s0.lattice.block_volume
    blocks = dict(s0.blocks)
    blocks[0] = blocks.get(0, np.zeros((wd, wd))) + (t - t0) / wd
    return VarianceProfile(s0.lattice, blocks)


def profile_from_text(text: str) -> VarianceProfile:
    """Inverse of bandlab.profile_to_text."""
    doc = json.loads(text)
    lat = BlockLattice(d=int(doc["d"]), W=int(doc["W"]), n=int(doc["n"]))
    wd = lat.block_volume
    blocks = {int(off): np.frombuffer(base64.b64decode(blob), dtype="<f8")
              .reshape(wd, wd).copy()
              for off, blob in doc["blocks"].items()}
    return VarianceProfile(lat, blocks, builder=doc.get("builder", "custom"),
                           builder_params=doc.get("builder_params", {}))
