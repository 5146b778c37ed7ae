"""Min-tree construction over 8-bit frames.

The tree's node at level t is the 4-connected component of the sub-level
set {p : I(p) <= t}, ordered by inclusion.  Construction is an incremental
union-find sweep over levels 0..255: pixels activate in increasing
intensity order and union with already-active 4-neighbours.  The sweep is
batched per level (all unions of one level are applied together with
vectorised root-finding and hooking), which keeps the per-pixel cost at
numpy speed while preserving exactly the sequential sweep's result: the
sub-level set at one threshold is a single batch, so within-level ordering
cannot matter.

The result is the canonical parent image: every node is identified by its
canonical pixel (the first raster-order pixel at the node's level inside
the component); non-canonical pixels point at their node's canonical
pixel, canonical pixels point at the parent node's canonical pixel, and
the root points at itself.

The sweep stops once the seed's component outgrows the extraction's area
cap, and the only view of the result is the seed's chain of nested
components (SeedChain), which is all the pipeline reads.
"""

from __future__ import annotations

import numpy as np


def _find(uf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorised root lookup with path compression on the queried entries."""
    if x.size == 0:
        return x
    r = uf[x]
    rr = uf[r]
    lag = rr != r
    if lag.any():
        # only the unconverged entries keep jumping (and need compressing;
        # the rest already point straight at their roots)
        idx = np.flatnonzero(lag)
        sub = rr[idx]
        while True:
            nxt = uf[sub]
            if (nxt == sub).all():
                break
            sub = nxt
        r[idx] = sub
        uf[x[idx]] = sub
    return r


def _distinct(x: np.ndarray, stamp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(slot, first) of an index array x: first marks one occurrence of
    each value, so x[first] are the distinct values, and slot[i] is the
    position of the marked occurrence of x[i]'s value.  stamp is scratch
    indexed by value; whichever duplicate wins the scattered store, exactly
    one occurrence per value reads its own position back."""
    pos = np.arange(x.size, dtype=np.int32)
    stamp[x] = pos
    slot = stamp[x]
    return slot, slot == pos


def build_component_tree(
    pixels: np.ndarray,
    seed: tuple[int, int],
    stop_area: int,
) -> "ComponentTree":
    """Build the seed's part of the min-tree of an 8-bit image by the batched
    level sweep.

    The sweep halts after the level at which the seed's (x, y) component
    first exceeds stop_area pixels.  The result is a forest that is exact
    for every component of area <= stop_area containing the seed (it stops
    strictly after the cap is crossed), which is all the extraction stage
    ever reads.  With stop_area = pixels.size the cap is never crossed, the
    sweep runs every level and the forest is the complete tree.
    """
    img = np.asarray(pixels)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("component tree needs a non-empty 2-D image")
    if img.dtype != np.uint8:
        img = img.astype(np.uint8)
    h, w = img.shape
    flat = img.ravel()
    n = flat.size

    order = np.argsort(flat, kind="stable").astype(np.int32)
    px_starts = np.r_[0, np.cumsum(np.bincount(flat, minlength=256))]

    uf = np.arange(n, dtype=np.int32)
    parent = np.arange(n, dtype=np.int32)
    node_rep = np.full(n, -1, dtype=np.int32)  # current node canonical pixel, per UF root
    scratch = np.empty(n, dtype=np.int32)      # per-root minima, only touched slots used
    stamp = np.empty(n, dtype=np.int32)        # per-root scratch of _distinct
    canonical = np.zeros(n, dtype=bool)        # node canonical pixels, grown per level

    sx, sy = seed
    if not (0 <= sx < w and 0 <= sy < h):
        raise ValueError(f"seed {seed} outside {w}x{h} frame")
    seed_arr = np.array([sy * w + sx], dtype=np.int32)
    seed_level = int(flat[seed_arr[0]])
    comp_size = np.zeros(n, dtype=np.int32)
    tracking = False  # size bookkeeping starts once the cap is reachable

    for t in range(256):
        a0, a1 = px_starts[t], px_starts[t + 1]
        if a0 == a1:
            continue
        new_px = order[a0:a1]

        # An edge carries the max of its endpoint levels, so every edge of
        # this level leaves a pixel that just activated.  Enumerating the
        # active 4-neighbours of the new pixels therefore yields exactly the
        # level-t edges: those to older pixels from every direction, and
        # those between two new pixels once, from the lower one's side.
        nx = new_px % w
        u_old, v_old, u_new, v_new = [], [], [], []
        for off, valid in (
            (-1, nx > 0),
            (1, nx < w - 1),
            (-w, new_px >= w),
            (w, new_px < n - w),
        ):
            src = new_px[valid]
            dst = src + off
            lv = flat[dst]
            older = lv < t
            u_old.append(src[older])
            v_old.append(dst[older])
            if off > 0:
                same = lv == t
                u_new.append(src[same])
                v_new.append(dst[same])
        u = np.concatenate(u_old)
        v = np.concatenate(v_old)

        if not tracking and px_starts[t + 1] >= stop_area:
            # the seed component can only exceed the cap once at least that
            # many pixels are active; reconstruct sizes here, then maintain
            # them incrementally
            active = order[: px_starts[t]]
            if active.size:
                comp_size[:] = np.bincount(_find(uf, active), minlength=n)
            tracking = True

        # only older pixels carry pre-existing components; new pixels are
        # their own roots before any union of this level (node_rep -1,
        # component size 0).  Size bookkeeping must see each component
        # once; the reps pass tolerates duplicates (same parent written
        # repeatedly).
        rv = _find(uf, v)
        pre_roots = rv[_distinct(rv, stamp)[1]] if tracking else rv
        ru = np.concatenate([u, *u_new])
        rv = np.concatenate([rv, *v_new])
        # Batched unions: hook the larger root under the smaller until
        # every edge of this level is internal to one component.  Plain
        # scatter stores suffice: every write points at a strictly smaller
        # index, so no cycle can form, and an edge whose hook was
        # overwritten by a conflicting one stays open and re-hooks on the
        # next round.
        while True:
            open_ = ru != rv
            if not open_.any():
                break
            ru, rv = ru[open_], rv[open_]
            uf[np.maximum(ru, rv)] = np.minimum(ru, rv)
            ru = _find(uf, ru)
            rv = _find(uf, rv)

        if tracking:
            pre_sizes = comp_size[pre_roots]

        # Every component touched at this level gained at least one pixel of
        # intensity t, so it becomes a node at t whose canonical pixel is the
        # first such pixel in raster order.
        roots_new = _find(uf, new_px)
        scratch[roots_new] = n
        np.minimum.at(scratch, roots_new, new_px)
        c_new = scratch[roots_new]
        parent[new_px] = c_new
        canonical[c_new] = True
        if pre_roots.size:
            reps = node_rep[pre_roots]  # read before the update below
            reps = reps[reps >= 0]
            if reps.size:
                parent[reps] = scratch[_find(uf, reps)]
        node_rep[roots_new] = c_new

        if tracking:
            # a touched component's size is the sizes of the components it
            # swallowed plus its new pixels
            roots = np.concatenate([_find(uf, pre_roots), roots_new])
            slot, first = _distinct(roots, stamp)
            gained = np.concatenate([pre_sizes, np.ones(new_px.size, dtype=np.int32)])
            sizes = np.bincount(slot, weights=gained, minlength=roots.size)
            comp_size[roots[first]] = sizes[first]
            if t >= seed_level and comp_size[_find(uf, seed_arr)[0]] > stop_area:
                break

    return ComponentTree(
        levels=flat.copy(), parent=parent, shape=(h, w), canonical=canonical, seed=(sx, sy)
    )


class ComponentTree:
    """Canonical parent-image form of a min-tree; nodes are canonical pixels.

    A tree built with a stop cap is a forest whose chain from the build
    seed is exact up to the level where the cap was crossed, so the tree
    keeps that seed and only ever hands out its chain.
    """

    def __init__(
        self,
        levels: np.ndarray,
        parent: np.ndarray,
        shape: tuple[int, int],
        canonical: np.ndarray,
        seed: tuple[int, int],
    ):
        self._levels = levels
        self._parent = parent
        self._shape = shape
        self._canonical = canonical
        self.seed = seed

    def seed_chain(self) -> "SeedChain":
        """The nested components containing the build seed."""
        return SeedChain(self)


class SeedChain:
    """The nested components containing a tree's seed, one per growth level.

    Every pixel of the frame is assigned the index of the smallest chain
    node containing it (its join index), so any additive attribute of chain
    node k is a prefix sum over join-index buckets.  This keeps per-node
    attribute extraction O(1) after a single O(N) pass.
    """

    def __init__(self, tree: ComponentTree):
        levels = tree._levels
        parent = tree._parent
        canonical = tree._canonical
        self._levels = levels
        self._shape = tree._shape

        x, y = tree.seed
        seed = y * self._shape[1] + x
        chain = [seed if canonical[seed] else int(parent[seed])]
        while parent[chain[-1]] != chain[-1]:
            chain.append(int(parent[chain[-1]]))
        self.nodes = np.asarray(chain, dtype=np.int64)
        self.levels = levels[self.nodes].astype(np.int64)

        n = levels.size
        chain_pos = np.full(n, -1, dtype=np.int32)
        chain_pos[self.nodes] = np.arange(len(chain), dtype=np.int32)

        # Top-down over canonical pixels (parents have strictly higher
        # levels): a node inherits its parent's join index unless it is a
        # chain node itself.  Pixels with no chain ancestor (possible only
        # when the sweep stopped at its cap, leaving a forest) land in an
        # overflow bucket one past the chain so prefix sums ignore them.
        k = len(chain)
        join_node = np.full(n, -1, dtype=np.int32)
        cs = np.flatnonzero(canonical)
        cs = cs[np.argsort(levels[cs], kind="stable")][::-1]
        clv = levels[cs]
        starts = np.flatnonzero(np.r_[True, clv[1:] != clv[:-1]])
        stops = np.r_[starts[1:], clv.size]
        for s, e in zip(starts.tolist(), stops.tolist()):
            sel = cs[s:e]
            own = chain_pos[sel]
            inherited = join_node[parent[sel]]
            join_node[sel] = np.where(own >= 0, own, inherited)
        # a pixel's node is itself when canonical, else its parent pointer
        pixel_node = np.where(canonical, np.arange(n, dtype=np.int32), parent)
        ji = join_node[pixel_node]
        ji[ji < 0] = k
        self.join_index = ji

        self.areas = np.cumsum(np.bincount(ji, minlength=k + 1)[:k])

        self._kmax = len(chain) - 1
        self._crop: tuple | None = None
        self._prefix: dict[str, np.ndarray] | None = None
        self._hist: np.ndarray | None = None
        self._walk_grid: tuple | None = None
        self._first_pixel: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def mask(self, k: int) -> np.ndarray:
        """Pixel mask of chain node k."""
        return (self.join_index <= k).reshape(self._shape)

    # -- attribute tables -----------------------------------------------------
    #
    # Every attribute of chain node k is a sum over the pixels with join
    # index <= k, so all tables are bucket sums followed by a cumulative
    # sum.  The tables run on the bounding box of node kmax (the last chain
    # node, or the area band's last one after restrict()); every smaller
    # node lies inside it.

    def restrict(self, kmax: int) -> None:
        """Limit attribute queries to chain nodes <= kmax (before first use)."""
        if self._crop is not None:
            raise RuntimeError("restrict() must precede attribute queries")
        if not 0 <= kmax < len(self.nodes):
            raise ValueError(f"kmax {kmax} outside the chain")
        self._kmax = int(kmax)

    def _check(self, k: int) -> None:
        if k > self._kmax:
            raise ValueError(f"chain index {k} above the restricted maximum {self._kmax}")

    def _cropped(self):
        """(join values clipped to kmax+1, levels, x0, y0, crop width, crop height)
        over the tight bounding box of node kmax."""
        if self._crop is None:
            h, w = self._shape
            kk = self._kmax
            join2d = self.join_index.reshape(h, w)
            inside = join2d <= kk
            inside_rows = inside.any(axis=1)
            inside_cols = inside.any(axis=0)
            y0 = int(np.argmax(inside_rows))
            y1 = h - int(np.argmax(inside_rows[::-1]))
            x0 = int(np.argmax(inside_cols))
            x1 = w - int(np.argmax(inside_cols[::-1]))
            sub = np.minimum(join2d[y0:y1, x0:x1], kk + 1)
            lv = self._levels.reshape(h, w)[y0:y1, x0:x1]
            self._crop = (sub, lv, x0, y0, x1 - x0, y1 - y0)
        return self._crop

    def _prefix_sums(self) -> dict[str, np.ndarray]:
        if self._prefix is None:
            sub, lv, x0, y0, cw, ch = self._cropped()
            kk = self._kmax
            nb = kk + 2
            # Every table entry is a sum of integers below 2**53, so these
            # bucket sums are exact: pixel counts per (bucket, row) and per
            # (bucket, column), x summed per (bucket, row), and intensities
            # from the histogram table, which is cumulative already.
            xs = np.arange(x0, x0 + cw, dtype=np.int64)
            ys = np.arange(y0, y0 + ch, dtype=np.int64)
            by_row = (sub * ch + np.arange(ch, dtype=np.int32)[:, None]).ravel()
            by_col = (sub * cw + np.arange(cw, dtype=np.int32)).ravel()
            n_row = np.bincount(by_row, minlength=nb * ch).reshape(nb, ch)[: kk + 1]
            n_col = np.bincount(by_col, minlength=nb * cw).reshape(nb, cw)[: kk + 1]
            x_row = np.bincount(
                by_row, weights=np.broadcast_to(xs.astype(np.float64), sub.shape).ravel(),
                minlength=nb * ch,
            ).reshape(nb, ch)[: kk + 1]
            sums = {
                "x": n_col @ xs, "y": n_row @ ys, "xx": n_col @ (xs * xs),
                "xy": x_row @ ys.astype(np.float64), "yy": n_row @ (ys * ys),
            }
            tables = {name: np.cumsum(v.astype(np.float64)) for name, v in sums.items()}
            tables["i"] = (self._hist_table() @ np.arange(256)).astype(np.float64)
            self._prefix = tables
        return self._prefix

    def _hist_table(self) -> np.ndarray:
        if self._hist is None:
            sub, lv, *_ = self._cropped()
            nb = self._kmax + 2
            key = sub.ravel() * 256 + lv.ravel()
            hist = np.bincount(key, minlength=nb * 256)[: (self._kmax + 1) * 256]
            self._hist = np.cumsum(hist.reshape(self._kmax + 1, 256), axis=0)
        return self._hist

    def centroid(self, k: int) -> tuple[float, float]:
        self._check(k)
        t = self._prefix_sums()
        a = float(self.areas[k])
        return t["x"][k] / a, t["y"][k] / a

    def central_moments(self, k: int) -> tuple[float, float, float]:
        """(mu_xx, mu_xy, mu_yy), area-normalised second central moments."""
        self._check(k)
        t = self._prefix_sums()
        a = float(self.areas[k])
        xb, yb = t["x"][k] / a, t["y"][k] / a
        mu_xx = t["xx"][k] / a - xb * xb
        mu_xy = t["xy"][k] / a - xb * yb
        mu_yy = t["yy"][k] / a - yb * yb
        return mu_xx, mu_xy, mu_yy

    def mean_intensity(self, k: int) -> float:
        self._check(k)
        return float(self._prefix_sums()["i"][k] / self.areas[k])

    def entropy(self, k: int) -> float:
        """Shannon entropy (bits) of the region's 256-bin intensity histogram."""
        self._check(k)
        counts = self._hist_table()[k]
        p = counts[counts > 0] / self.areas[k]
        return float(-(p * np.log2(p)).sum())

    # -- boundary-walk support ---------------------------------------------------

    def walk_grid(self):
        """(values, padded width, x offset, y offset) for Moore walks.

        values is a flat indexable over the padded crop; a pixel belongs to
        chain node k exactly when its value is <= k.  Offsets map padded
        crop coordinates back to the frame.
        """
        if self._walk_grid is None:
            sub, lv, x0, y0, cw, ch = self._cropped()
            sentinel = self._kmax + 1
            padded = np.full((ch + 2, cw + 2), sentinel, dtype=np.int64)
            padded[1:-1, 1:-1] = sub
            if sentinel <= 255:
                vals = padded.astype(np.uint8).tobytes()
            else:
                vals = padded.ravel().tolist()
            self._walk_grid = (vals, cw + 2, x0, y0)
        return self._walk_grid

    def first_pixel(self, k: int) -> tuple[int, int]:
        """(x, y) of the first pixel of node k in the attribute grid's raster."""
        self._check(k)
        if self._first_pixel is None:
            sub, lv, x0, y0, cw, ch = self._cropped()
            j = sub.ravel()
            nb = self._kmax + 2
            first = np.full(nb, j.size, dtype=np.int64)
            np.minimum.at(first, j, np.arange(j.size))
            self._first_pixel = np.minimum.accumulate(first[: self._kmax + 1])
        sub, lv, x0, y0, cw, ch = self._cropped()
        flat = int(self._first_pixel[k])
        return flat % cw + x0, flat // cw + y0
