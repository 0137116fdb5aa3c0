"""Oracles of the tests: the site-by-site and N x N forms that bandlab's
block code is checked against, and the random-walk representation that
acceptance criterion 8 checks ``theta`` against. ``tests/test_surface.py``
fails if one of their names is defined in bandlab again."""

import base64
import json
import math

import numpy as np

from bandlab import BlockLattice, VarianceProfile, interaction_strength, theta
from bandlab.montecarlo import LayerRows
from bandlab.profiles import P_SAMPLES, ProfileError, _affine_blocks


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


def translation_invariant_profile(lat: BlockLattice, kernel, cutoff: int,
                                  name: str = "custom") -> VarianceProfile:
    """build_translation_invariant from the full (W^d, N) table of the
    distances from block 0's sites to every site: no block is left out."""
    reach = cutoff * lat.W
    if reach >= lat.L / 2:
        raise ProfileError("cutoff*W overlaps its own periodic image")
    coords = np.array([lat.site_coords(x) for x in range(lat.N)])
    diff = np.abs(coords[:lat.block_volume, None, :] - coords[None, :, :])
    dist = np.minimum(diff, lat.L - diff).sum(axis=2)
    mask = dist <= reach
    radii, which = np.unique(dist[mask], return_inverse=True)
    weights = np.zeros(dist.shape)
    weights[mask] = np.array([float(kernel(r)) for r in radii])[which]
    weights /= math.fsum(weights[0])
    blocks = weights.reshape(lat.block_volume, lat.block_count, -1)
    return VarianceProfile(
        lat, {off: blk for off, blk in enumerate(blocks.transpose(1, 0, 2))
              if blk.any()},
        builder="translation_invariant",
        builder_params={"kernel": name, "cutoff": cutoff})


def walk_irreducibility(s: VarianceProfile):
    """validate's irreducibility ratio and isotropy range from the list of
    the walk's steps: 1 - phi(p) = sum_x P(x) (1 - cos p.x) at every grid
    momentum p != 0, with each step x in centered block coordinates."""
    lat = s.lattice
    lam2 = interaction_strength(s)
    if lam2 == 0:
        return 0.0, [0.0, 0.0]
    steps = np.array([[v - lat.n if v > lat.n // 2 else v
                       for v in lat.block_coords(off)] for off in s.blocks],
                     dtype=float)
    probs = np.array([blk.sum() / lat.block_volume
                      for blk in s.blocks.values()])
    grid = np.linspace(-np.pi, np.pi, P_SAMPLES, endpoint=False)
    ps = np.stack(np.meshgrid(*[grid] * lat.d), axis=-1).reshape(-1, lat.d)
    ps = ps[np.abs(ps).sum(axis=1) > 1e-9]
    one_minus_phi = ((1 - np.cos(ps @ steps.T)) * probs[None, :]).sum(axis=1)
    ratio = float(np.min(one_minus_phi / (lam2 * (ps**2).sum(axis=1))))
    sigma = np.einsum("k,ki,kj->ij", probs, steps, steps)
    evals = np.linalg.eigvalsh(sigma) / lam2
    return ratio, [float(evals.min()), float(evals.max())]


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


def core_split(s: VarianceProfile, t: float, c_ker: float):
    """Split t S = S_ker + c_ker S_E with S_ker entrywise nonnegative, for
    c_ker up to the admissible W^d t min S|_[0][0]; S_ker's diagonal block
    is clipped at 0 against rounding. Returns S_ker and the killing rate
    1 - t + c_ker of the random walk, as the rows of S sum to 1."""
    lat = s.lattice
    admissible = float(t * s.block_at(0).min() * lat.block_volume)
    if c_ker > admissible + 1e-15:
        raise ProfileError(f"c_ker={c_ker} too large; maximal admissible "
                           f"value is {admissible}")
    blocks = _affine_blocks(lat, s.blocks, t, -c_ker)
    np.clip(blocks[0], 0.0, None, out=blocks[0])
    return VarianceProfile(lat, blocks), 1.0 - t + c_ker


def random_walk_kernel(s: VarianceProfile, t: float, c_ker: float
                       ) -> np.ndarray:
    """The stochastic block kernel K = (1 - t + c_ker) P((1 - S_ker)^-1) of
    the random-walk representation of Theta = P((1 - t S)^-1), with S_ker
    from :func:`core_split`; ``random_walk_theta`` rebuilds Theta from it."""
    ker, deficit = core_split(s, t, c_ker)
    return deficit * theta(ker, 1.0, (1, 1), 1.0).real


def random_walk_theta(K: np.ndarray, t: float, c_ker: float) -> np.ndarray:
    """Theta = t_hat K (1 - t_hat K)^-1 / c_ker at the effective time
    t_hat = c_ker / (1 - t + c_ker): the random-walk form of Theta."""
    t_hat = c_ker / (1.0 - t + c_ker)
    eye = np.eye(len(K))
    return (t_hat / c_ker) * K @ np.linalg.solve(eye - t_hat * K, eye)


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
