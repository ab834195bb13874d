//! Property tests for the data-transformation framework: any pipeline of
//! strip-mines and permutations must remain a bijection with the documented
//! structural properties, synthesized layouts must keep every processor's
//! share contiguous, and the two-direction affine probe must be exact on
//! the whole rectangle it reports.

#![allow(clippy::needless_range_loop)]

use dct_decomp::{ArrayDist, DataDecomp, Folding};
use dct_layout::{synthesize_array_layout, DataLayout, DataTransform};
use proptest::prelude::*;

/// A random transform pipeline applied to a random-rank array.
fn arb_layout() -> impl Strategy<Value = DataLayout> {
    let dims = proptest::collection::vec(1i64..=7, 1..=3);
    (dims, proptest::collection::vec((any::<u8>(), 2i64..=4, any::<u8>()), 0..4)).prop_map(
        |(dims, steps)| {
            let mut l = DataLayout::identity(&dims);
            for (which, strip, perm_seed) in steps {
                let n = l.final_dims().len();
                if which % 2 == 0 && n < 6 {
                    l.strip_mine((which as usize / 2) % n, strip);
                } else {
                    // Rotate by perm_seed as a valid permutation.
                    let r = (perm_seed as usize) % n;
                    let perm: Vec<usize> = (0..n).map(|k| (k + r) % n).collect();
                    l.permute(&perm);
                }
            }
            l
        },
    )
}

/// A random chain of strip-mines, rotations and skews over an array of
/// rank 2 or 3, with the index space large enough to walk in.
fn arb_skewed_layout() -> impl Strategy<Value = DataLayout> {
    let dims = proptest::collection::vec(6i64..=14, 2..=3);
    let step = (0u8..3, any::<u8>(), any::<u8>(), 2i64..=4, -2i64..=1);
    (dims, proptest::collection::vec(step, 0..5)).prop_map(|(dims, steps)| {
        let mut l = DataLayout::identity(&dims);
        for (which, a, b, strip, factor) in steps {
            let n = l.final_dims().len();
            match which {
                0 if n < 6 => l.strip_mine(a as usize % n, strip),
                1 => {
                    let target = a as usize % n;
                    let source = (target + 1 + b as usize % (n - 1)) % n;
                    // -2, -1, 1 or 2.
                    l.skew(target, source, if factor >= 0 { factor + 1 } else { factor });
                }
                _ => {
                    let r = a as usize % n;
                    let perm: Vec<usize> = (0..n).map(|k| (k + r) % n).collect();
                    l.permute(&perm);
                }
            }
        }
        l
    })
}

/// The one-direction probe as it was before it learnt a second direction,
/// kept as the oracle for `d2 = 0`: `(addr, slope, steps)`.
fn one_direction_probe(l: &DataLayout, idx: &[i64], didx: &[i64]) -> (i64, i64, i64) {
    let mut buf: Vec<(i64, i64)> = idx.iter().zip(didx).map(|(&v, &s)| (v, s)).collect();
    let mut steps = i64::MAX;
    for t in l.transforms() {
        match t {
            DataTransform::StripMine { dim, strip } => {
                let (v, s) = buf[*dim];
                let (rem, div) = (v.rem_euclid(*strip), v.div_euclid(*strip));
                if s % *strip == 0 {
                    buf[*dim] = (rem, 0);
                    buf.insert(*dim + 1, (div, s / *strip));
                } else {
                    let run = if s > 0 { (*strip - rem + s - 1) / s } else { rem / (-s) + 1 };
                    steps = steps.min(run);
                    buf[*dim] = (rem, s);
                    buf.insert(*dim + 1, (div, 0));
                }
            }
            DataTransform::Permute { perm } => buf = perm.iter().map(|&p| buf[p]).collect(),
            DataTransform::Skew { target, source, factor, offset } => {
                let ((vs, ss), (vt, st)) = (buf[*source], buf[*target]);
                buf[*target] = (vt + factor * vs + offset, st + factor * ss);
            }
        }
    }
    let (mut addr, mut slope) = (0i64, 0i64);
    for k in (0..buf.len()).rev() {
        addr = addr * l.final_dims()[k] + buf[k].0;
        slope = slope * l.final_dims()[k] + buf[k].1;
    }
    (addr, slope, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Address map is a bijection into [0, size).
    #[test]
    fn layout_bijective(l in arb_layout()) {
        let dims = l.orig_dims().to_vec();
        let mut seen = std::collections::HashSet::new();
        let total: i64 = dims.iter().product();
        let mut idx = vec![0i64; dims.len()];
        for _ in 0..total {
            let a = l.address_of(&idx);
            prop_assert!(a >= 0 && a < l.size());
            prop_assert!(seen.insert(a));
            // Buffered variant agrees with the allocating one.
            let mut buf = Vec::new();
            prop_assert_eq!(l.address_of_buf(&idx, &mut buf), a);
            // Odometer.
            for d in 0..dims.len() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// Strip-mining with a dividing strip, alone, never moves data.
    #[test]
    fn dividing_strip_is_identity(k in 1i64..=5, b in 1i64..=5) {
        let d = k * b;
        let mut l = DataLayout::identity(&[d]);
        l.strip_mine(0, b);
        for i in 0..d {
            prop_assert_eq!(l.address_of(&[i]), i);
        }
    }

    /// Synthesized single-dim layouts keep each processor's share in a
    /// contiguous address range (the core claim of Section 4).
    #[test]
    fn synthesized_share_contiguous(
        d0 in 4i64..=24,
        d1 in 1i64..=6,
        p in 1usize..=5,
        which in 0usize..2,
        folding_sel in 0usize..3,
    ) {
        let folding = match folding_sel {
            0 => Folding::Block,
            1 => Folding::Cyclic,
            _ => Folding::BlockCyclic { block: 2 },
        };
        let dims = [d0, d1];
        let dd = DataDecomp { dists: vec![ArrayDist { dim: which, proc_dim: 0 }], replicated: false };
        let al = synthesize_array_layout(&dims, &dd, &[folding], &[p], true);
        let mut per_proc: Vec<Vec<i64>> = vec![Vec::new(); p];
        for i in 0..d0 {
            for j in 0..d1 {
                let owner = al.owner(&[i, j])[0].1 as usize;
                prop_assert!(owner < p);
                per_proc[owner].push(al.layout.address_of(&[i, j]));
            }
        }
        // Each processor's share must fit inside one per-processor region
        // of the transformed array: the region size is the total size
        // divided by the processor-identifying (last) dimension. Within a
        // region the only holes are strip-padding slots.
        let region = if al.transformed {
            let last = *al.layout.final_dims().last().unwrap();
            al.layout.size() / last
        } else {
            al.layout.size()
        };
        for addrs in per_proc.iter_mut().filter(|a| !a.is_empty()) {
            addrs.sort();
            let span = addrs.last().unwrap() - addrs.first().unwrap() + 1;
            prop_assert!(
                span <= region,
                "share spans {span} > region {region} (folding {folding:?}, p={p}, dims {:?})",
                al.layout.final_dims()
            );
        }
    }

    /// Owners computed through the layout partition the index space.
    #[test]
    fn owner_partition(
        d0 in 4i64..=24,
        p in 1usize..=6,
        folding_sel in 0usize..3,
    ) {
        let folding = match folding_sel {
            0 => Folding::Block,
            1 => Folding::Cyclic,
            _ => Folding::BlockCyclic { block: 3 },
        };
        let dd = DataDecomp { dists: vec![ArrayDist { dim: 0, proc_dim: 0 }], replicated: false };
        let al = synthesize_array_layout(&[d0], &dd, &[folding], &[p], true);
        let mut counts = vec![0usize; p];
        for i in 0..d0 {
            counts[al.owner(&[i])[0].1 as usize] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), d0 as usize);
        // Block folding is balanced to within one strip.
        if matches!(folding, Folding::Block) {
            let b = (d0 + p as i64 - 1) / p as i64;
            for &c in &counts {
                prop_assert!(c as i64 <= b);
            }
        }
    }
}

proptest! {
    // Cheap cases, and the rare one matters: a point deep in the rectangle
    // that is still inside the array.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The two-direction probe is exact on every point of the rectangle it
    /// reports (as far as the array reaches), both sides are at least 1,
    /// and with a zero second direction it is the one-direction probe.
    #[test]
    fn affine_probe_exact_on_its_rectangle(
        l in arb_skewed_layout(),
        seeds in proptest::collection::vec((any::<u16>(), -2i64..=2, -2i64..=2), 3),
    ) {
        let dims = l.orig_dims().to_vec();
        let n = dims.len();
        let idx: Vec<i64> = (0..n).map(|d| seeds[d].0 as i64 % dims[d]).collect();
        let d1: Vec<i64> = (0..n).map(|d| seeds[d].1).collect();
        let d2: Vec<i64> = (0..n).map(|d| seeds[d].2).collect();
        let inside = |p: &[i64]| p.iter().zip(&dims).all(|(&v, &d)| v >= 0 && v < d);
        let at = |t1: i64, t2: i64| -> Vec<i64> { (0..n).map(|d| idx[d] + t1 * d1[d] + t2 * d2[d]).collect() };

        let mut buf = Vec::new();
        let p = l.affine_probe(&idx, &d1, &d2, &mut buf);
        prop_assert!(p.steps1 >= 1 && p.steps2 >= 1, "{p:?}");
        prop_assert_eq!(p.addr, l.address_of(&idx));
        for t2 in 0..p.steps2.min(12) {
            for t1 in 0..p.steps1.min(12) {
                let point = at(t1, t2);
                if inside(&point) {
                    prop_assert_eq!(
                        l.address_of(&point), p.addr + t1 * p.s1 + t2 * p.s2,
                        "idx {:?} d1 {:?} d2 {:?} t1 {} t2 {} {:?}", idx, d1, d2, t1, t2, p
                    );
                }
            }
        }

        let zero = vec![0; n];
        for d in [&d1, &d2] {
            let q = l.affine_probe(&idx, d, &zero, &mut buf);
            prop_assert_eq!((q.addr, q.s1, q.steps1), one_direction_probe(&l, &idx, d));
            prop_assert_eq!((q.s2, q.steps2), (0, i64::MAX));
        }
        // The first direction alone never sees further than it does beside
        // a second one: a second direction can only take the rectangle's
        // other side away.
        prop_assert_eq!(p.steps1, one_direction_probe(&l, &idx, &d1).2);
    }
}
