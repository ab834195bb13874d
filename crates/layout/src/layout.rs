//! The data transformation model: strip-mining and permutation primitives
//! composed into array layouts (Section 4.1 of the paper).
//!
//! An n-dimensional array is a polytope of index points; the layout is the
//! column-major (FORTRAN) linearization of the *transformed* index space.
//! Strip-mining splits one dimension in two (`i -> (i mod b, i div b)`) and
//! by itself does not move any data; permutation reorders dimensions and
//! does. Their composition expresses blocked, cyclic and block-cyclic
//! layouts.

/// A primitive data transformation step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DataTransform {
    /// Replace dimension `dim` (extent `d`) with two dimensions
    /// `(i mod strip, i div strip)` of extents `(strip, ceil(d/strip))`,
    /// inserted in place of `dim` in that order.
    StripMine { dim: usize, strip: i64 },
    /// Reorder dimensions: new dimension `k` is old dimension `perm[k]`.
    Permute { perm: Vec<usize> },
    /// Generalized unimodular step (paper Section 4.1.2): shear dimension
    /// `target` by `factor` times dimension `source`, embedding the result
    /// in the smallest enclosing rectilinear space (the paper's first
    /// layout option for rotated arrays). `offset` keeps indices
    /// non-negative when `factor < 0`.
    Skew { target: usize, source: usize, factor: i64, offset: i64 },
}

/// A concrete array layout: original extents plus a transform pipeline.
#[derive(Clone, Debug)]
pub struct DataLayout {
    orig_dims: Vec<i64>,
    transforms: Vec<DataTransform>,
    final_dims: Vec<i64>,
}

/// Answer of [`DataLayout::affine_probe`]: the address at the probed point,
/// its slope along each of the two directions, and the sides of the
/// rectangle of steps on which `addr + t1*s1 + t2*s2` is exact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AffineProbe {
    pub addr: i64,
    pub s1: i64,
    pub s2: i64,
    pub steps1: i64,
    pub steps2: i64,
}

/// `buf[k] = buf[perm[k]]` for every `k` at once, using the tail of `buf`
/// itself as the copy (no rank limit, no allocation once `buf` has grown).
fn permute_in_place<T: Copy>(buf: &mut Vec<T>, perm: &[usize]) {
    let n = buf.len();
    debug_assert_eq!(perm.len(), n);
    buf.extend_from_within(..);
    for (k, &p) in perm.iter().enumerate() {
        buf[k] = buf[n + p];
    }
    buf.truncate(n);
}

impl DataLayout {
    /// The identity (FORTRAN column-major) layout.
    pub fn identity(dims: &[i64]) -> DataLayout {
        assert!(dims.iter().all(|&d| d > 0), "non-positive extent");
        DataLayout { orig_dims: dims.to_vec(), transforms: Vec::new(), final_dims: dims.to_vec() }
    }

    pub fn orig_dims(&self) -> &[i64] {
        &self.orig_dims
    }

    pub fn final_dims(&self) -> &[i64] {
        &self.final_dims
    }

    pub fn transforms(&self) -> &[DataTransform] {
        &self.transforms
    }

    pub fn is_identity(&self) -> bool {
        self.transforms.is_empty()
    }

    /// Total number of elements in the transformed array (>= original
    /// element count when strips do not divide extents evenly).
    pub fn size(&self) -> i64 {
        self.final_dims.iter().product()
    }

    /// Append a strip-mine step. Panics on invalid dim or strip.
    pub fn strip_mine(&mut self, dim: usize, strip: i64) {
        assert!(dim < self.final_dims.len(), "strip-mine dim out of range");
        assert!(strip >= 1, "strip must be positive");
        let d = self.final_dims[dim];
        let outer = (d + strip - 1) / strip;
        self.final_dims.splice(dim..=dim, [strip, outer]);
        self.transforms.push(DataTransform::StripMine { dim, strip });
    }

    /// Append a permutation step.
    pub fn permute(&mut self, perm: &[usize]) {
        let n = self.final_dims.len();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        self.final_dims = perm.iter().map(|&p| self.final_dims[p]).collect();
        self.transforms.push(DataTransform::Permute { perm: perm.to_vec() });
    }

    /// Append a skew step (generalized unimodular transform, paper
    /// §4.1.2): dimension `target` becomes `target + factor*source`,
    /// embedded in the enclosing rectilinear space. Composed with a
    /// permutation this yields diagonal layouts ("rotating a
    /// two-dimensional array by 45 degrees makes data along a diagonal
    /// contiguous").
    pub fn skew(&mut self, target: usize, source: usize, factor: i64) {
        let n = self.final_dims.len();
        assert!(target < n && source < n && target != source, "bad skew dims");
        assert!(factor != 0, "zero skew is the identity");
        let src_extent = self.final_dims[source];
        let offset = if factor < 0 { -factor * (src_extent - 1) } else { 0 };
        self.final_dims[target] += factor.abs() * (src_extent - 1);
        self.transforms.push(DataTransform::Skew { target, source, factor, offset });
    }

    /// Convenience: move dimension `from` to the last position, keeping the
    /// relative order of all other dimensions.
    pub fn move_to_last(&mut self, from: usize) {
        let n = self.final_dims.len();
        if from == n - 1 {
            return;
        }
        let mut perm: Vec<usize> = (0..n).filter(|&k| k != from).collect();
        perm.push(from);
        self.permute(&perm);
    }

    /// Map an original index vector to the transformed index vector.
    pub fn apply_index(&self, idx: &[i64]) -> Vec<i64> {
        assert_eq!(idx.len(), self.orig_dims.len(), "index rank mismatch");
        let mut v = idx.to_vec();
        for t in &self.transforms {
            match t {
                DataTransform::StripMine { dim, strip } => {
                    let i = v[*dim];
                    v.splice(*dim..=*dim, [i.rem_euclid(*strip), i.div_euclid(*strip)]);
                }
                DataTransform::Permute { perm } => {
                    v = perm.iter().map(|&p| v[p]).collect();
                }
                DataTransform::Skew { target, source, factor, offset } => {
                    v[*target] += factor * v[*source] + offset;
                }
            }
        }
        v
    }

    /// Column-major linear address of a transformed index vector.
    pub fn linearize(&self, tidx: &[i64]) -> i64 {
        assert_eq!(tidx.len(), self.final_dims.len());
        let mut addr = 0i64;
        for k in (0..tidx.len()).rev() {
            debug_assert!(
                tidx[k] >= 0 && tidx[k] < self.final_dims[k],
                "index {tidx:?} out of extents {:?}",
                self.final_dims
            );
            addr = addr * self.final_dims[k] + tidx[k];
        }
        addr
    }

    /// Linear address (in elements) of an original index vector.
    pub fn address_of(&self, idx: &[i64]) -> i64 {
        self.linearize(&self.apply_index(idx))
    }

    /// Allocation-free address computation: `buf` is scratch space reused
    /// across calls.
    pub fn address_of_buf(&self, idx: &[i64], buf: &mut Vec<i64>) -> i64 {
        debug_assert_eq!(idx.len(), self.orig_dims.len());
        buf.clear();
        buf.extend_from_slice(idx);
        for t in &self.transforms {
            match t {
                DataTransform::StripMine { dim, strip } => {
                    let i = buf[*dim];
                    buf[*dim] = i.rem_euclid(*strip);
                    buf.insert(*dim + 1, i.div_euclid(*strip));
                }
                DataTransform::Permute { perm } => permute_in_place(buf, perm),
                DataTransform::Skew { target, source, factor, offset } => {
                    buf[*target] += factor * buf[*source] + offset;
                }
            }
        }
        let mut addr = 0i64;
        for k in (0..buf.len()).rev() {
            debug_assert!(buf[k] >= 0 && buf[k] < self.final_dims[k]);
            addr = addr * self.final_dims[k] + buf[k];
        }
        addr
    }

    /// Affine address probe for segment-strided execution, in two
    /// directions at once. Given an original index vector `idx` and two
    /// per-dimension slopes `d1` and `d2` (how each original index changes
    /// per step of two loops, the inner and the one around it), return an
    /// [`AffineProbe`] such that
    ///
    /// ```text
    /// address_of(idx + t1*d1 + t2*d2) == addr + t1*s1 + t2*s2
    ///     for all 0 <= t1 < steps1, 0 <= t2 < steps2
    /// ```
    ///
    /// Both counts are at least 1 (`t1 = t2 = 0` is exact by
    /// construction); `i64::MAX` means the direction is never the one that
    /// ends the affine form and callers clamp to their trip count. The
    /// one-direction probe is this with `d2 = 0` (`steps2 == i64::MAX`).
    ///
    /// The only non-affine primitive is strip-mining, and one stage sees a
    /// value `v + t1*a + t2*b`. A slope that is a multiple of the strip
    /// moves only the quotient, by `slope/strip` per step, for ever (this
    /// covers a zero slope and CYCLIC layouts, where the stride equals the
    /// strip); any other slope moves only the remainder, until it leaves
    /// `[0, strip)`. With one slope of each kind the two never meet — the
    /// remainder follows one direction and the quotient the other — so the
    /// stage bounds one side of a rectangle. With neither a multiple the
    /// remainder would follow both and the valid region is a sloped band,
    /// not a rectangle: `steps2` is then 1 and the stage is probed along
    /// `d1` alone. Permutation reorders the `(value, a, b)` triples and
    /// skewing is itself affine, so neither bounds anything. On the
    /// rectangle every stage's input is exactly its triple, so the stages
    /// compose. `buf` is scratch reused across calls.
    pub fn affine_probe(&self, idx: &[i64], d1: &[i64], d2: &[i64], buf: &mut Vec<[i64; 3]>) -> AffineProbe {
        debug_assert_eq!(idx.len(), self.orig_dims.len());
        debug_assert_eq!(d1.len(), self.orig_dims.len());
        debug_assert_eq!(d2.len(), self.orig_dims.len());
        buf.clear();
        buf.extend(idx.iter().zip(d1).zip(d2).map(|((&v, &a), &b)| [v, a, b]));
        let (mut steps1, mut steps2) = (i64::MAX, i64::MAX);
        for t in &self.transforms {
            match t {
                DataTransform::StripMine { dim, strip } => {
                    let [v, a, b] = buf[*dim];
                    let rem = v.rem_euclid(*strip);
                    let div = v.div_euclid(*strip);
                    // Steps of slope `s` until the remainder leaves the strip.
                    let within = |s: i64| if s > 0 { (*strip - rem + s - 1) / s } else { rem / (-s) + 1 };
                    let (ra, qa) = if a % *strip == 0 { (0, a / *strip) } else { (a, 0) };
                    let (rb, qb) = if b % *strip == 0 { (0, b / *strip) } else { (b, 0) };
                    if ra != 0 {
                        steps1 = steps1.min(within(ra));
                    }
                    if rb != 0 {
                        steps2 = if ra != 0 { 1 } else { steps2.min(within(rb)) };
                    }
                    buf[*dim] = [rem, ra, rb];
                    buf.insert(*dim + 1, [div, qa, qb]);
                }
                DataTransform::Permute { perm } => permute_in_place(buf, perm),
                DataTransform::Skew { target, source, factor, offset } => {
                    let [vs, as_, bs] = buf[*source];
                    let [vt, at, bt] = buf[*target];
                    buf[*target] = [vt + factor * vs + offset, at + factor * as_, bt + factor * bs];
                }
            }
        }
        let mut p = AffineProbe { addr: 0, s1: 0, s2: 0, steps1, steps2 };
        for k in (0..buf.len()).rev() {
            p.addr = p.addr * self.final_dims[k] + buf[k][0];
            p.s1 = p.s1 * self.final_dims[k] + buf[k][1];
            p.s2 = p.s2 * self.final_dims[k] + buf[k][2];
        }
        p
    }

    /// Static allocation bound for a layout whose strip sizes are only
    /// known to be at most `bmax` (paper Section 4.3): strip-mining a
    /// `d`-element dimension with strip `b` needs `b * ceil(d/b) <= d +
    /// b - 1` slots, so replacing every strip by `bmax` bounds the size a
    /// compiler can allocate before the processor count is known.
    pub fn static_alloc_bound(orig_dims: &[i64], strips: usize, bmax: i64) -> i64 {
        assert!(bmax >= 1);
        let base: i64 = orig_dims.iter().product();
        // Each strip-mine can add at most (bmax - 1) elements per slice of
        // the remaining dimensions; a safe coarse bound multiplies per
        // strip.
        let mut bound = base;
        for _ in 0..strips {
            bound += bmax - 1;
            bound = (bound + bmax - 1) / bmax * bmax;
        }
        bound
    }

    /// All strip-mine steps expressed against *original* dimensions:
    /// `(original_dim, strip)`. Used by the address-cost model.
    pub fn strip_mines_by_orig_dim(&self) -> Vec<(usize, i64)> {
        // Track, for each current dimension, which original dimension it
        // came from.
        let mut from: Vec<usize> = (0..self.orig_dims.len()).collect();
        let mut out = Vec::new();
        for t in &self.transforms {
            match t {
                DataTransform::StripMine { dim, strip } => {
                    let o = from[*dim];
                    out.push((o, *strip));
                    from.splice(*dim..=*dim, [o, o]);
                }
                DataTransform::Permute { perm } => {
                    from = perm.iter().map(|&p| from[p]).collect();
                }
                DataTransform::Skew { .. } => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_column_major() {
        // FORTRAN column-major: A(i,j) at address i + d0*j.
        let l = DataLayout::identity(&[4, 3]);
        assert_eq!(l.address_of(&[0, 0]), 0);
        assert_eq!(l.address_of(&[1, 0]), 1);
        assert_eq!(l.address_of(&[0, 1]), 4);
        assert_eq!(l.address_of(&[3, 2]), 11);
        assert!(l.is_identity());
    }

    #[test]
    fn strip_mine_alone_is_noop_on_addresses() {
        // Paper 4.1.1: strip-mining on its own does not change the layout
        // (when the strip divides the extent).
        let mut l = DataLayout::identity(&[12]);
        l.strip_mine(0, 4);
        assert_eq!(l.final_dims(), &[4, 3]);
        for i in 0..12 {
            assert_eq!(l.address_of(&[i]), i);
        }
    }

    #[test]
    fn figure2_strip_and_transpose() {
        // Figure 2: 32-element array, strip 8, then transpose: every 4th
        // element becomes contiguous... (strip b=8 gives (i mod 8, i/8);
        // transposing makes address = i/8 + 4*(i mod 8), so elements
        // 0,8,16,24 occupy addresses 0..3.
        let mut l = DataLayout::identity(&[32]);
        l.strip_mine(0, 8);
        l.permute(&[1, 0]);
        assert_eq!(l.final_dims(), &[4, 8]);
        assert_eq!(l.address_of(&[0]), 0);
        assert_eq!(l.address_of(&[8]), 1);
        assert_eq!(l.address_of(&[16]), 2);
        assert_eq!(l.address_of(&[24]), 3);
        assert_eq!(l.address_of(&[1]), 4);
    }

    #[test]
    fn move_to_last() {
        let mut l = DataLayout::identity(&[2, 3, 4]);
        l.move_to_last(0);
        assert_eq!(l.final_dims(), &[3, 4, 2]);
        // (i,j,k) -> (j,k,i): address = j + 3*(k + 4*i).
        assert_eq!(l.address_of(&[1, 2, 3]), 2 + 3 * (3 + 4));
        // Moving the last dim is a no-op.
        let mut l2 = DataLayout::identity(&[2, 3]);
        l2.move_to_last(1);
        assert!(l2.is_identity());
    }

    #[test]
    fn layout_is_bijective() {
        let mut l = DataLayout::identity(&[6, 5]);
        l.strip_mine(0, 2);
        l.move_to_last(1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..6 {
            for j in 0..5 {
                let a = l.address_of(&[i, j]);
                assert!(a >= 0 && a < l.size());
                assert!(seen.insert(a), "address collision at ({i},{j})");
            }
        }
        assert_eq!(seen.len(), 30);
    }

    #[test]
    fn non_dividing_strip_pads() {
        let mut l = DataLayout::identity(&[10]);
        l.strip_mine(0, 4);
        // ceil(10/4) = 3 -> total 12 slots >= 10, < 10 + 4 - 1 (paper 4.3).
        assert_eq!(l.size(), 12);
        assert!(l.size() < 10 + 4);
    }

    #[test]
    fn static_alloc_bound_covers_every_strip_choice() {
        // For every strip b <= bmax, the actual size after one strip-mine
        // must fit inside the static bound.
        let d = 23i64;
        let bmax = 7i64;
        let bound = DataLayout::static_alloc_bound(&[d], 1, bmax);
        for b in 1..=bmax {
            let mut l = DataLayout::identity(&[d]);
            l.strip_mine(0, b);
            assert!(l.size() <= bound, "b={b}: {} > {bound}", l.size());
        }
    }

    #[test]
    fn strip_mines_by_orig_dim_tracking() {
        let mut l = DataLayout::identity(&[8, 8]);
        l.strip_mine(1, 4); // dims: [8, 4, 2]
        l.move_to_last(2); // dims: [8, 4, 2]
        l.strip_mine(0, 2); // splits original dim 0
        assert_eq!(l.strip_mines_by_orig_dim(), vec![(1, 4), (0, 2)]);
    }

    #[test]
    #[should_panic]
    fn bad_permutation_rejected() {
        let mut l = DataLayout::identity(&[2, 2]);
        l.permute(&[0, 0]);
    }

    /// The one-direction probe, `(addr, slope, steps)`: the two-direction
    /// one with `d2 = 0`, which never bounds the second direction.
    fn probe1(l: &DataLayout, idx: &[i64], didx: &[i64]) -> (i64, i64, i64) {
        let p = l.affine_probe(idx, didx, &vec![0; idx.len()], &mut Vec::new());
        assert_eq!((p.s2, p.steps2), (0, i64::MAX), "a zero direction has no slope and no bound");
        (p.addr, p.s1, p.steps1)
    }

    /// Exhaustively check `affine_probe`'s contract against the reference
    /// walk: within the reported segment the address is exactly
    /// `addr + t*slope`, and at least one step is always valid.
    fn check_probe(l: &DataLayout, idx: &[i64], didx: &[i64], trip: i64) {
        let (addr, slope, steps) = probe1(l, idx, didx);
        assert!(steps >= 1, "probe must cover the current iteration");
        let n = steps.min(trip);
        let mut cur: Vec<i64> = idx.to_vec();
        for t in 0..n {
            assert_eq!(
                l.address_of(&cur),
                addr + t * slope,
                "idx={idx:?} didx={didx:?} t={t} (steps={steps})"
            );
            for (c, d) in cur.iter_mut().zip(didx) {
                *c += d;
            }
        }
    }

    #[test]
    fn probe_identity_and_permuted() {
        let l = DataLayout::identity(&[8, 6]);
        check_probe(&l, &[0, 0], &[1, 0], 8);
        check_probe(&l, &[3, 2], &[0, 1], 4);
        let mut t = DataLayout::identity(&[8, 6]);
        t.permute(&[1, 0]);
        check_probe(&t, &[0, 0], &[1, 0], 8);
        check_probe(&t, &[5, 1], &[0, 1], 5);
    }

    #[test]
    fn probe_strip_boundaries() {
        // Blocked layout: strip 4, walk with unit stride; segments must end
        // exactly at strip boundaries.
        let mut l = DataLayout::identity(&[16]);
        l.strip_mine(0, 4);
        l.permute(&[1, 0]);
        let (_, _, steps) = probe1(&l, &[1], &[1]);
        assert_eq!(steps, 3, "from i=1, three steps reach the strip edge");
        for start in 0..16 {
            check_probe(&l, &[start], &[1], 16 - start);
        }
        // Negative stride walks down to the strip floor.
        let (_, _, steps) = probe1(&l, &[6], &[-1]);
        assert_eq!(steps, 3);
        check_probe(&l, &[6], &[-1], 7);
    }

    #[test]
    fn probe_cyclic_stride_is_unbounded() {
        // CYCLIC(p): stride == strip, the remainder never moves, so the
        // whole walk is one affine segment.
        let mut l = DataLayout::identity(&[32]);
        l.strip_mine(0, 4);
        l.permute(&[1, 0]);
        let (_, slope, steps) = probe1(&l, &[2], &[4]);
        assert_eq!(steps, i64::MAX);
        assert_eq!(slope, 1, "consecutive cyclic-owned elements are adjacent");
        check_probe(&l, &[2], &[4], 8);
    }

    #[test]
    fn probe_skewed_diagonal() {
        // 45-degree rotation: skew then walk the diagonal; affine with no
        // boundary because skew preserves linearity.
        let mut l = DataLayout::identity(&[6, 6]);
        l.skew(0, 1, 1);
        check_probe(&l, &[0, 0], &[1, 1], 6);
        let (_, _, steps) = probe1(&l, &[0, 0], &[1, 1]);
        assert_eq!(steps, i64::MAX);
    }

    #[test]
    fn probe_block_cyclic_composition() {
        // Block-cyclic: two strip-mines stacked; the probe must take the
        // tighter of the two boundary distances.
        let mut l = DataLayout::identity(&[24]);
        l.strip_mine(0, 2); // (i mod 2, i div 2)
        l.move_to_last(0);
        l.strip_mine(0, 3); // quotient stripped again
        for start in 0..24 {
            check_probe(&l, &[start], &[1], 24 - start);
        }
    }

    #[test]
    fn probe_zero_slope_matches_address() {
        let mut l = DataLayout::identity(&[9, 9]);
        l.strip_mine(1, 3);
        l.move_to_last(0);
        let (addr, slope, steps) = probe1(&l, &[4, 7], &[0, 0]);
        assert_eq!(addr, l.address_of(&[4, 7]));
        assert_eq!(slope, 0);
        assert_eq!(steps, i64::MAX);
    }

    #[test]
    fn probe_two_directions_bound_a_rectangle() {
        // A(i, j) with j BLOCK(4) and the block number last: walking i
        // inside and j outside, the outer direction ends at the block edge
        // and the inner one never does.
        let mut l = DataLayout::identity(&[6, 8]);
        l.strip_mine(1, 4);
        let p = l.affine_probe(&[1, 5], &[1, 0], &[0, 1], &mut Vec::new());
        assert_eq!((p.steps1, p.steps2), (i64::MAX, 3));
        for t1 in 0..5 {
            for t2 in 0..3 {
                assert_eq!(l.address_of(&[1 + t1, 5 + t2]), p.addr + t1 * p.s1 + t2 * p.s2);
            }
        }
        // A skewed subscript moves one strip-mined value in both
        // directions: no rectangle, so the outer side collapses to 1 and
        // the inner one is what the one-direction probe reports.
        let mut l = DataLayout::identity(&[16]);
        l.strip_mine(0, 4);
        l.permute(&[1, 0]);
        let p = l.affine_probe(&[5], &[1], &[1], &mut Vec::new());
        assert_eq!((p.steps1, p.steps2), (3, 1));
        assert_eq!((p.addr, p.s1, p.steps1), probe1(&l, &[5], &[1]));
    }

    #[test]
    fn rank_beyond_sixteen_permutes() {
        // Strip-mining adds a dimension per distributed one, so nothing
        // bounds the rank a permutation sees.
        let dims = [2i64; 18];
        let mut l = DataLayout::identity(&dims);
        l.move_to_last(0);
        let idx: Vec<i64> = (0..18).map(|k| k % 2).collect();
        let want = l.address_of(&idx);
        assert_eq!(l.address_of_buf(&idx, &mut Vec::new()), want);
        let mut d1 = vec![0; 18];
        d1[3] = 1;
        assert_eq!(probe1(&l, &idx, &d1).0, want);
    }
}
