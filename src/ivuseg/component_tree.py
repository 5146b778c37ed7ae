"""The seed's chain of nested components in the min-tree of an 8-bit frame.

The min-tree's node at level t is a 4-connected component of the sub-level
set {p : I(p) <= t}.  The pipeline reads only the components containing the
seed pixel, one per level at which that component gains pixels: the seed
chain.  Every pixel has a join level, the lowest t at which it lies in the
seed's component, so chain node k is exactly the set of pixels whose join
level is at most the node's level.

The join levels come from an incremental union-find sweep over the
levels from the seed's up to 255.  No pixel can join the seed's component
below the seed's own level, so the sweep starts there: the 4-connected
components of {p : I(p) < seed level} are labelled in one connected-
components pass over the graph of their horizontal runs (_pools), and each
enters the sweep as one component, as it stands.  From the seed's level
on, pixels activate in increasing intensity order and union with
already-active 4-neighbours, one batch per level (all unions of a level are
applied together with vectorised root-finding and hooking, so within-level
order cannot matter).  The union-find runs on component numbers, not
pixels: a pixel with no darker neighbour (a lone pixel) starts a new
component, any other pixel takes the number of one its darker neighbours
belong to, and hooking joins numbers.  What does not depend on the level is
done once per frame, not once per level: the lone pixels are numbered in
sweep order up front, so the union-find arrays start as identity over the
pools and lone pixels alone, and each neighbour direction's edges are
listed in sweep order, a block of levels at a time, with the position where
each level's edges start, so a level reads its edges as one slice per
direction.  Only the seed's component is tracked as such:

- It has one virtual root, number 0.  Hooks point the larger root at the
  smaller, so the virtual root never moves.
- A pixel whose component reaches the virtual root in the level the pixel
  activates joins at its own intensity.
- A component of older pixels that merges into the seed's component (an
  absorbed pool) becomes a root of its own again, flagged as part of the
  seed's component and stamped with the level it merged at, so every pixel
  under it joins at the stamp.  Later finds that end at a flagged root
  count as the virtual root.

The sweep stops once the seed's component outgrows the extraction's area
cap: the chain is exact for every component of area <= cap containing the
seed, plus the first larger one, which is all the extraction stage reads.
This is the seed-only form of the linear-time union-find trees of Najman &
Couprie (IEEE TIP 2006) and Nister & Stewenius (ECCV 2008).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .imaging import Frame


def _find(uf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorised root lookup with path compression on the queried entries."""
    if x.size == 0:
        return x
    r = uf[x]
    rr = uf[r]
    # only the unconverged entries keep jumping (and need compressing; the
    # rest already point straight at their roots)
    idx = (rr != r).nonzero()[0]
    if idx.size:
        sub = rr[idx]
        while True:
            nxt = uf[sub]
            if not np.count_nonzero(nxt != sub):
                break
            sub = nxt
        r[idx] = sub
        uf[x[idx]] = sub
    return r


def _distinct(x: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Mask marking one occurrence of each value of the index array x.
    stamp is scratch indexed by value; whichever duplicate wins the
    scattered store, exactly one occurrence per value reads its own
    position back."""
    pos = np.arange(x.size)
    stamp[x] = pos
    return stamp[x] == pos


def _neighbour_codes(img: np.ndarray) -> np.ndarray:
    """Per pixel, bits 0-3: the W, E, N, S neighbour is strictly darker;
    bits 4-5: the E, S neighbour is equal."""
    codes = np.zeros(img.shape, dtype=np.uint8)
    for bit, (here, there) in enumerate((
        (np.s_[:, 1:], np.s_[:, :-1]),
        (np.s_[:, :-1], np.s_[:, 1:]),
        (np.s_[1:], np.s_[:-1]),
        (np.s_[:-1], np.s_[1:]),
    )):
        codes[here] |= (img[there] < img[here]).view(np.uint8) << bit
    codes[:, :-1] |= (img[:, 1:] == img[:, :-1]).view(np.uint8) << 4
    codes[:-1] |= (img[1:] == img[:-1]).view(np.uint8) << 5
    return codes.ravel()


def _pools(mask: np.ndarray, outside: int) -> tuple[int, np.ndarray]:
    """Count and number the 4-connected components of a boolean image.

    Returns the count and a flat label per pixel: a masked pixel holds its
    component's number, from outside + 1 to outside + count, and any other
    pixel holds outside.

    The nodes of the labelled graph are the mask's horizontal runs: a run
    starts at every masked pixel whose west neighbour is unmasked or outside
    the frame.  Its edges join the runs of adjacent rows that overlap; an
    overlap begins where a run of either row starts, so those columns list
    each pair once, in raster order (He, Chao & Suzuki, IEEE TIP 2008).
    """
    # the labelling reads only the bounding box of the mask
    label = np.full(mask.shape, outside)
    ys = np.flatnonzero(mask.any(axis=1))
    if not ys.size:
        return 0, label.ravel()
    xs = np.flatnonzero(mask.any(axis=0))
    box = np.s_[ys[0] : ys[-1] + 1, xs[0] : xs[-1] + 1]
    mask = mask[box]
    h, w = mask.shape
    flat = mask.ravel()
    starts = np.empty_like(flat)
    starts[0] = flat[0]
    np.greater(flat[1:], flat[:-1], out=starts[1:])
    starts[::w] = flat[::w]
    # each pixel's run number from 1, which an unmasked pixel shares with
    # the last run before it (or 0)
    run = np.cumsum(starts, dtype=np.int32)
    n_runs = int(run[-1])
    grid = starts.reshape(h, w)
    overlap = grid[:-1] | grid[1:]
    overlap &= mask[:-1]
    overlap &= mask[1:]
    pair = np.flatnonzero(overlap)  # the upper pixel of each vertical pair
    graph = csr_matrix(
        (np.ones(pair.size), run[pair + w] - 1,
         np.r_[0, np.cumsum(np.bincount(run[pair] - 1, minlength=n_runs))]),
        shape=(n_runs, n_runs),
    )
    count, comp = connected_components(graph, directed=False)
    run *= flat  # unmasked pixels read entry 0, outside
    number = np.r_[outside, np.add(comp, outside + 1, dtype=np.intp)]
    np.take(number, run.reshape(h, w), out=label[box])
    return count, label.ravel()


def build_component_tree(
    pixels: np.ndarray,
    seed: tuple[int, int],
    stop_area: int,
) -> "ComponentTree":
    """Sweep the levels of an 8-bit image and keep the seed's chain.

    The sweep starts at the seed's level, with every component of the
    pixels darker than the seed labelled in one connected-components pass
    over their horizontal runs, and halts after the level at which the
    seed's (x, y) component first exceeds stop_area pixels, so the chain is
    exact for every component of area <= stop_area containing the seed and
    ends with the first larger one.  With stop_area = pixels.size the cap
    is never crossed, the sweep runs every level and the chain ends with the
    whole frame.
    """
    # Frame rejects anything but a non-empty 2-D image of integers in
    # [0, 255]; the chain keeps a private copy of the levels
    img = Frame(pixels=pixels).pixels.copy()
    h, w = img.shape
    flat = img.ravel()
    n = flat.size
    sx, sy = seed
    if not (0 <= sx < w and 0 <= sy < h):
        raise ValueError(f"seed {seed} outside {w}x{h} frame")
    seed_px = sy * w + sx
    seed_level = int(flat[seed_px])

    order = np.argsort(flat, kind="stable")
    px_starts = np.r_[0, np.cumsum(np.bincount(flat, minlength=256))]
    codes = _neighbour_codes(img)

    # The union-find runs on component numbers, of which there are far
    # fewer than pixels; each pixel keeps the number it joined under.
    # Below the seed's level the seed's component does not exist yet, so
    # what a pool went through there cannot change the level it joins at:
    # the components of the darker pixels are labelled in one pass and each
    # is numbered as one root.  From the seed's level on, a lone pixel (no
    # darker neighbour) starts a component of its own.  So the numbers are
    # the two below, one per pool and one per lone pixel, each its own root
    # and stamped never until hooked; a lone pixel the sweep does not reach
    # keeps its number and reads as never.
    root = 0   # the seed component's virtual root
    never = 1  # the pixels the sweep does not reach
    n_pools, label = _pools(img < seed_level, never)
    next_label = 2 + n_pools
    n_numbers = next_label + np.count_nonzero(((codes & 15) == 0) & (flat >= seed_level))
    uf = np.arange(n_numbers)
    alias = uf.copy()  # a flagged pool reads as the root
    stamp = np.full(n_numbers, 256, dtype=np.int16)  # the level a pool merged at
    stamp[root] = -1  # joined in the level it activated
    scratch = np.empty(n_numbers, dtype=np.intp)
    size = None  # component sizes, per root, once the cap is reachable

    # An edge carries the max of its endpoint levels, so every edge of a
    # level leaves a pixel that just activated: the darker-neighbour bits
    # list the level's edges to older pixels, and the equal bits those
    # between two new pixels, once, from the lower index's side.  Each
    # bit's edges are listed in sweep order for a block of levels at a
    # time, with the position where each level's edges start, so a level
    # reads its edges as one slice per bit.  A block spans at least n / 32
    # pixels, and the first one runs to the level at which the cap becomes
    # reachable, which the sweep always passes.  Listing every level at
    # once would be waste: on 768x768 phantoms the sweep stops near level
    # 180, with about 60% of the pixels active.
    bits = (1, 2, 4, 8, 16, 32)
    offsets = (-1, 1, -w, w, 1, w)
    block_px = max(n // 32, 1)
    block_end = seed_level  # the first level past the listed block

    # the level bounds as Python ints: the sweep reads two per level
    starts = px_starts.tolist()
    for t in range(seed_level, 256):
        a0, a1 = starts[t], starts[t + 1]
        if a0 == a1:
            continue
        if t >= block_end:
            block_start = t
            block_end = int(np.searchsorted(px_starts, min(max(a0 + block_px, stop_area), n)))
            block = order[a0 : starts[block_end]]
            code = codes[block]
            # lone pixels are numbered in sweep order; the positions of a
            # boolean mask's hits are several times faster than indexing by it
            lone = block[((code & 15) == 0).nonzero()[0]]
            label[lone] = np.arange(next_label, next_label + lone.size)
            next_label += lone.size
            level_starts = px_starts[t : block_end + 1] - a0
            edges, cuts = [], []
            for bit, offset in zip(bits, offsets):
                at = ((code & bit) != 0).nonzero()[0]
                u = block[at]
                edges.append(np.stack((u, u + offset)))
                cuts.append(np.searchsorted(at, level_starts))
            # per level of the block, its edges to older pixels
            older = np.diff(sum(cuts[:4])).tolist()
            cuts = [c.tolist() for c in cuts]
        k = t - block_start
        u, v = np.concatenate([e[:, c[k] : c[k + 1]] for e, c in zip(edges, cuts)], axis=1)
        n_older = older[k]

        if size is None and a1 >= stop_area:
            # the seed component can only exceed the cap once at least that
            # many pixels are active; count the sizes here, per number and
            # then per root (float sums of pixel counts are exact), and
            # maintain them incrementally
            per_number = np.bincount(label[order[:a0]], minlength=next_label)
            size = np.bincount(
                alias[_find(uf, np.arange(next_label))],
                weights=per_number, minlength=n_numbers,
            ).astype(np.int64)

        # A new pixel with darker neighbours joins one of their components
        # (whichever scattered store wins); only the component pairs it
        # bridges, the same-level edges and, at its level, the seed's edge
        # to the virtual root go through the hooking rounds.
        rv = alias[_find(uf, label[v[:n_older]])]
        label[u[:n_older]] = rv
        ra = label[u]
        rb = np.concatenate((rv, label[v[n_older:]]))
        if t == seed_level:
            ra = np.concatenate((ra, label[seed_px : seed_px + 1]))
            rb = np.concatenate((rb, [root]))
        # Batched unions: hook the larger root under the smaller until every
        # pair is internal to one component.  Plain scatter stores suffice:
        # every write points at a strictly smaller number, so no cycle can
        # form, the virtual root is never hooked, and a pair whose hook was
        # overwritten by a conflicting one stays open and re-hooks on the
        # next round.
        hooked = [np.empty(0, dtype=np.intp)]
        while True:
            open_ = (ra != rb).nonzero()[0]
            if not open_.size:
                break
            ra, rb = ra[open_], rb[open_]
            hi = np.maximum(ra, rb)
            uf[hi] = np.minimum(ra, rb)
            hooked.append(hi)
            both = _find(uf, np.concatenate([ra, rb]))
            ra, rb = both[: hi.size], both[hi.size :]
        hooked = np.concatenate(hooked)

        # Every root that stopped being one this level was hooked, so the
        # hooked roots that now end at the virtual root are the pools the
        # seed's component absorbed.  They become roots again, flagged and
        # stamped, so that their pixels keep this level.  Repeats in hooked
        # matter only to the size sums.
        if size is None:
            ends = _find(uf, hooked)
        else:
            hooked = hooked[_distinct(hooked, scratch)]
            ends = _find(uf, np.concatenate([hooked, label[order[a0:a1]]]))
        absorbed = hooked[ends[: hooked.size] == root]
        if absorbed.size:
            uf[absorbed] = absorbed
            alias[absorbed] = root
            stamp[absorbed] = t

        if size is not None:
            # every final root gains the sizes of the roots hooked under it
            # and one per new pixel; the virtual root's size is the seed's
            gained = np.concatenate([size[hooked], np.ones(a1 - a0, dtype=size.dtype)])
            np.add.at(size, ends, gained)
            if size[root] > stop_area:
                break

    # A pixel whose component ends at the virtual root joined in the level
    # it activated; any other pixel's join level is the stamp its
    # component's root carries (256 for never).  One maximum reads both:
    # the virtual root's stamp is below every level, and an absorbed pool's
    # stamp is at least the level of each of its pixels.
    joined = np.maximum(stamp[_find(uf, np.arange(n_numbers))].take(label), flat)
    counts = np.bincount(joined, minlength=257)
    # the sweep stopped right after the level whose cumulative count
    # crossed the cap, so every join level found is a chain node
    levels = np.flatnonzero(counts[:256])
    node_of = np.full(257, levels.size, dtype=np.int32)
    node_of[levels] = np.arange(levels.size, dtype=np.int32)
    return ComponentTree(SeedChain(
        pixels=img,
        join_index=node_of.take(joined),
        levels=levels,
        areas=np.cumsum(counts[levels]),
    ))


class ComponentTree:
    """The result of a seed sweep, which seed_chain() hands out."""

    def __init__(self, chain: "SeedChain"):
        self._chain = chain

    def seed_chain(self) -> "SeedChain":
        """The nested components containing the build seed."""
        return self._chain


@dataclass(frozen=True, eq=False)
class SeedChain:
    """The nested components containing a tree's seed, one per growth level.

    Node k is the seed's component at levels[k], of areas[k] pixels, in
    the uint8 image the tree was built on (pixels).  Every pixel carries
    the index of the smallest node containing it (its join index: the
    chain position of its join level); pixels outside the last node carry
    len(chain), one past the chain.  Node k is therefore the set of pixels
    whose join index is at most k.
    """

    pixels: np.ndarray
    join_index: np.ndarray
    levels: np.ndarray
    areas: np.ndarray

    def __len__(self) -> int:
        return len(self.levels)
