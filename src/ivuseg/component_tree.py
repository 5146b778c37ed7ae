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


def build_component_tree(
    pixels: np.ndarray,
    stop_seed: tuple[int, int] | None = None,
    stop_area: int | None = None,
) -> "ComponentTree":
    """Build the min-tree of an 8-bit image by the batched level sweep.

    When stop_seed and stop_area are given, the sweep halts after the level
    at which the seed's component first exceeds stop_area pixels.  The
    result is then a forest that is exact for every component of area
    <= stop_area containing the seed (it stops strictly after the cap is
    crossed), which is all the extraction stage ever reads; pass None to
    build the complete tree.
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
    px_starts = np.searchsorted(flat[order], np.arange(257))

    uf = np.arange(n, dtype=np.int32)
    parent = np.arange(n, dtype=np.int32)
    node_rep = np.full(n, -1, dtype=np.int32)  # current node canonical pixel, per UF root
    scratch = np.empty(n, dtype=np.int32)      # per-root minima, only touched slots used
    canonical = np.zeros(n, dtype=bool)        # node canonical pixels, grown per level

    capped = stop_seed is not None and stop_area is not None
    tracking = False  # size bookkeeping starts once the cap is reachable
    if capped:
        sx, sy = stop_seed
        if not (0 <= sx < w and 0 <= sy < h):
            raise ValueError(f"stop seed {stop_seed} outside {w}x{h} frame")
        seed_arr = np.array([sy * w + sx], dtype=np.int32)
        seed_level = int(flat[seed_arr[0]])
        comp_size = np.zeros(n, dtype=np.int32)

    for t in range(256):
        a0, a1 = px_starts[t], px_starts[t + 1]
        if a0 == a1:
            continue
        new_px = order[a0:a1]

        # An edge carries the max of its endpoint levels, so every edge of
        # this level leaves a pixel that just activated.  Enumerating the
        # active 4-neighbours of the new pixels therefore yields exactly the
        # level-t edges (t-t edges twice, which unions tolerate).
        nx = new_px % w
        us, vs = [], []
        for off, valid in (
            (-1, nx > 0),
            (1, nx < w - 1),
            (-w, new_px >= w),
            (w, new_px < n - w),
        ):
            src = new_px[valid]
            us.append(src)
            vs.append(src + off)
        u = np.concatenate(us)
        v = np.concatenate(vs)
        active = flat[v] <= t
        u, v = u[active], v[active]

        if capped and not tracking and px_starts[t + 1] >= stop_area:
            # the seed component can only exceed the cap once at least that
            # many pixels are active; reconstruct sizes here, then maintain
            # them incrementally
            active = order[: px_starts[t]]
            if active.size:
                np.add.at(comp_size, _find(uf, active), 1)
            tracking = True

        if u.size:
            # new pixels are their own roots before any union of this level
            rv = _find(uf, v)
            # only the v side can carry pre-existing components: the u side
            # is fresh (node_rep -1, component size 0).  Size bookkeeping
            # must see each component once; the reps pass tolerates
            # duplicates (same parent written repeatedly).
            pre_roots = np.unique(rv) if tracking else rv
            ru = u
            # Batched unions: hook the larger root under the smaller until
            # every edge of this level is internal to one component.  Plain
            # scatter stores suffice: every write points at a strictly
            # smaller index, so no cycle can form, and an edge whose hook
            # was overwritten by a conflicting one stays open and re-hooks
            # on the next round.
            while True:
                open_ = ru != rv
                if not open_.any():
                    break
                ru, rv = ru[open_], rv[open_]
                uf[np.maximum(ru, rv)] = np.minimum(ru, rv)
                ru = _find(uf, ru)
                rv = _find(uf, rv)
        else:
            pre_roots = np.empty(0, dtype=np.int32)

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
            if pre_roots.size:
                fr = _find(uf, pre_roots)
                comp_size[fr] = 0
                np.add.at(comp_size, fr, pre_sizes)
            np.add.at(comp_size, roots_new, 1)
            if t >= seed_level and comp_size[_find(uf, seed_arr)[0]] > stop_area:
                break

    return ComponentTree(levels=flat.copy(), parent=parent, shape=(h, w), canonical=canonical)


class ComponentTree:
    """Canonical parent-image form of a min-tree; nodes are canonical pixels.

    A tree built with a stop cap is a forest whose seed-rooted chain is
    exact up to the level where the cap was crossed.
    """

    def __init__(
        self,
        levels: np.ndarray,
        parent: np.ndarray,
        shape: tuple[int, int],
        canonical: np.ndarray,
    ):
        self._levels = levels
        self._parent = parent
        self._shape = shape
        self._canonical = canonical
        self._node_areas: np.ndarray | None = None
        self._node_index: np.ndarray | None = None

    def _nodes_of_all(self) -> np.ndarray:
        """Canonical pixel of every pixel's node, cached."""
        if self._node_index is None:
            self._node_index = np.where(
                self._canonical,
                np.arange(self._levels.size, dtype=np.int32),
                self._parent.astype(np.int32, copy=False),
            )
        return self._node_index

    # -- basic structure ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def levels(self) -> np.ndarray:
        return self._levels.reshape(self._shape)

    @property
    def parent(self) -> np.ndarray:
        return self._parent

    def node_of(self, flat_index: int) -> int:
        """Canonical pixel of the node containing a pixel."""
        return int(flat_index if self._canonical[flat_index] else self._parent[flat_index])

    def node_level(self, node: int) -> int:
        return int(self._levels[node])

    @property
    def root(self) -> int:
        r = int(np.flatnonzero(self._parent == np.arange(self._levels.size))[0])
        return r

    def canonical_pixels(self) -> np.ndarray:
        return np.flatnonzero(self._canonical)

    def children_of(self, node: int) -> list[int]:
        cs = self.canonical_pixels()
        kids = cs[(self._parent[cs] == node) & (cs != node)]
        return [int(c) for c in kids]

    def node_areas(self) -> np.ndarray:
        """Pixel count of every node's component, indexed by canonical pixel.

        Accumulated leaf-to-root; parent levels are strictly higher than
        child levels, so sweeping levels in increasing order respects the
        topological order of the tree.
        """
        if self._node_areas is not None:
            return self._node_areas
        n = self._levels.size
        area = np.zeros(n, dtype=np.int64)
        np.add.at(area, self._nodes_of_all(), 1)
        cs = self.canonical_pixels()
        cs = cs[np.argsort(self._levels[cs], kind="stable")]
        clv = self._levels[cs]
        bounds = np.searchsorted(clv, np.arange(257))
        for t in range(256):
            sel = cs[bounds[t] : bounds[t + 1]]
            if sel.size == 0:
                continue
            sel = sel[self._parent[sel] != sel]  # root has no parent to feed
            if sel.size:
                np.add.at(area, self._parent[sel], area[sel])
        self._node_areas = area
        return area

    def node_mask(self, node: int) -> np.ndarray:
        """Boolean mask of all pixels in the node's component.

        Membership propagates root-to-leaf: a node is inside the component
        exactly when its parent is (children sit at strictly lower levels,
        so a single descending level sweep suffices).
        """
        n = self._levels.size
        under = np.zeros(n, dtype=bool)
        under[node] = True
        cs = self.canonical_pixels()
        cs = cs[np.argsort(self._levels[cs], kind="stable")][::-1]  # root first
        clv = self._levels[cs]
        starts = np.flatnonzero(np.r_[True, clv[1:] != clv[:-1]])
        stops = np.r_[starts[1:], clv.size]
        for s, e in zip(starts.tolist(), stops.tolist()):
            sel = cs[s:e]
            under[sel] |= under[self._parent[sel]]
        return under[self._nodes_of_all()].reshape(self._shape)

    # -- seed-rooted view ----------------------------------------------------

    def seed_chain(self, seed_xy: tuple[int, int]) -> "SeedChain":
        x, y = seed_xy
        h, w = self._shape
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"seed {seed_xy} outside {w}x{h} frame")
        return SeedChain(self, y * w + x)

    def component_at(self, seed_xy: tuple[int, int], t: int) -> np.ndarray | None:
        """Component of {I <= t} containing the seed, or None if inactive."""
        return self.seed_chain(seed_xy).component_at(t)


class SeedChain:
    """The nested components containing one seed pixel, one per growth level.

    Every pixel of the frame is assigned the index of the smallest chain
    node containing it (its join index), so any additive attribute of chain
    node k is a prefix sum over join-index buckets.  This keeps per-node
    attribute extraction O(1) after a single O(N) pass.
    """

    def __init__(self, tree: ComponentTree, seed_flat: int):
        self._tree = tree
        self.seed = seed_flat
        levels = tree._levels
        parent = tree._parent

        chain = [tree.node_of(seed_flat)]
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
        # in a capped tree, which is a forest) land in an overflow bucket
        # one past the chain so prefix sums ignore them.
        k = len(chain)
        join_node = np.full(n, -1, dtype=np.int32)
        cs = tree.canonical_pixels()
        cs = cs[np.argsort(levels[cs], kind="stable")][::-1]
        clv = levels[cs]
        starts = np.flatnonzero(np.r_[True, clv[1:] != clv[:-1]])
        stops = np.r_[starts[1:], clv.size]
        for s, e in zip(starts.tolist(), stops.tolist()):
            sel = cs[s:e]
            own = chain_pos[sel]
            inherited = join_node[parent[sel]]
            join_node[sel] = np.where(own >= 0, own, inherited)
        ji = join_node[tree._nodes_of_all()]
        ji[ji < 0] = k
        self.join_index = ji

        self.areas = np.cumsum(np.bincount(ji, minlength=k + 1)[:k])

        self._shape = tree._shape
        self._kmax = len(chain) - 1
        self._crop: tuple | None = None
        self._prefix: dict[str, np.ndarray] | None = None
        self._hist: np.ndarray | None = None
        self._walk_grid: tuple | None = None
        self._first_pixel: np.ndarray | None = None
        self._bboxes: tuple | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def mask(self, k: int) -> np.ndarray:
        """Pixel mask of chain node k."""
        return (self.join_index <= k).reshape(self._shape)

    def component_at(self, t: int) -> np.ndarray | None:
        if t < self.levels[0]:
            return None
        k = int(np.searchsorted(self.levels, t, side="right")) - 1
        return self.mask(k)

    # -- attribute tables -----------------------------------------------------
    #
    # Every attribute of chain node k is a sum over the pixels with join
    # index <= k, so all tables are bucket sums followed by a cumulative
    # sum.  When the caller only ever asks about nodes up to kmax (the area
    # band), restrict() lets the tables run on node kmax's bounding box
    # instead of the full frame; every smaller node lies inside it.

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
        """(join values clipped to kmax+1, levels, x0, y0, crop width, crop height)."""
        if self._crop is None:
            h, w = self._shape
            kk = self._kmax
            join2d = self.join_index.reshape(h, w)
            if kk >= len(self.nodes) - 1:
                x0 = y0 = 0
                x1, y1 = w, h
            else:
                inside_rows = (join2d <= kk).any(axis=1)
                inside_cols = (join2d <= kk).any(axis=0)
                y0 = int(np.argmax(inside_rows))
                y1 = h - int(np.argmax(inside_rows[::-1]))
                x0 = int(np.argmax(inside_cols))
                x1 = w - int(np.argmax(inside_cols[::-1]))
            sub = np.minimum(join2d[y0:y1, x0:x1], kk + 1)
            lv = self._tree._levels.reshape(h, w)[y0:y1, x0:x1]
            self._crop = (sub, lv, x0, y0, x1 - x0, y1 - y0)
        return self._crop

    def _prefix_sums(self) -> dict[str, np.ndarray]:
        if self._prefix is None:
            sub, lv, x0, y0, cw, ch = self._cropped()
            nb = self._kmax + 2
            j = sub.ravel()
            ys, xs = np.divmod(np.arange(j.size, dtype=np.float64), cw)
            xs += x0
            ys += y0
            tables = {}
            for name, weights in (
                ("x", xs), ("y", ys), ("xx", xs * xs), ("xy", xs * ys),
                ("yy", ys * ys), ("i", lv.ravel().astype(np.float64)),
            ):
                tables[name] = np.cumsum(
                    np.bincount(j, weights=weights, minlength=nb)[: self._kmax + 1]
                )
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

    def bounding_box(self, k: int) -> tuple[int, int, int, int]:
        """(x0, y0, x1, y1) half-open bbox of chain node k."""
        self._check(k)
        if self._bboxes is None:
            sub, lv, x0, y0, cw, ch = self._cropped()
            j = sub.ravel()
            nb = self._kmax + 2
            ys, xs = np.divmod(np.arange(j.size), cw)
            x_min = np.full(nb, cw, dtype=np.int64)
            x_max = np.full(nb, -1, dtype=np.int64)
            y_min = np.full(nb, ch, dtype=np.int64)
            y_max = np.full(nb, -1, dtype=np.int64)
            np.minimum.at(x_min, j, xs)
            np.maximum.at(x_max, j, xs)
            np.minimum.at(y_min, j, ys)
            np.maximum.at(y_max, j, ys)
            m = self._kmax + 1
            self._bboxes = (
                np.minimum.accumulate(x_min[:m]) + x0,
                np.minimum.accumulate(y_min[:m]) + y0,
                np.maximum.accumulate(x_max[:m]) + x0,
                np.maximum.accumulate(y_max[:m]) + y0,
            )
        bx0, by0, bx1, by1 = (b[k] for b in self._bboxes)
        return int(bx0), int(by0), int(bx1) + 1, int(by1) + 1

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
