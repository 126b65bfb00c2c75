//! Spatiotemporally-non-overlapping Spiking Activity Packing (StSAP) —
//! the greedy complement-packing algorithm of Section IV-D and Fig. 8.
//!
//! Given the *tile tags* (the TB-tag bits of the windows one array
//! iteration processes) of the neurons about to stream, StSAP pairs
//! neurons whose tags do not overlap: in every column (time window) at
//! most one member of the pair has activity, so the pair shares a single
//! streaming slot and PE idling drops. Per the paper, packing is greedy
//! — exact 1's complements first, then the nearest (densest) disjoint
//! tag — and at most two neurons combine.

use serde::{Deserialize, Serialize};

/// One scheduled streaming slot: a single neuron entry or an StSAP pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// Index (into the caller's entry list) of the first neuron.
    pub first: usize,
    /// Index of the packed partner, if any.
    pub second: Option<usize>,
}

impl Slot {
    /// Number of neurons in the slot (1 or 2).
    pub fn len(&self) -> usize {
        1 + usize::from(self.second.is_some())
    }

    /// A slot is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Result of packing one column tile's entries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackResult {
    /// Streaming slots after packing (order deterministic).
    pub slots: Vec<Slot>,
    /// Number of input entries before packing.
    pub entries_before: usize,
    /// Number of exact-complement pairs found.
    pub exact_pairs: usize,
    /// Number of merely-disjoint (nearest-complement) pairs found.
    pub near_pairs: usize,
}

impl PackResult {
    /// Streaming slots after packing.
    pub fn entries_after(&self) -> usize {
        self.slots.len()
    }

    /// Total pairs formed.
    pub fn pairs(&self) -> usize {
        self.exact_pairs + self.near_pairs
    }
}

/// Reusable working memory for [`pack_tile_with`].
///
/// One pack over `k` entries needs a sorted entry list, the derived
/// mask-class ranges, and a popcount-bucketed candidate index. The
/// simulator packs one tile per (output position × column tile) — tens
/// of thousands of calls per layer — so allocating those structures
/// fresh each call dominates the pack itself. A scratch is plain
/// buffers, cleared (not freed) between calls; each worker thread owns
/// one.
#[derive(Debug, Default)]
pub struct PackScratch {
    /// `(tag, entry index)` for packable entries, sorted ascending.
    entries: Vec<(u128, u32)>,
    /// Distinct-mask groups as `(mask, lo, hi)` ranges into `entries`.
    /// Consumption pops from `hi` (largest entry index first).
    groups: Vec<(u128, u32, u32)>,
    /// Pass-2 classes: pass-1 leftovers re-sorted densest-first.
    classes: Vec<(u128, u32, u32)>,
    /// `index[p]` = pass-2 class ids whose mask has `p` bits, ascending.
    index: Vec<Vec<u32>>,
}

/// Packs one column tile.
///
/// `tags[i]` is entry `i`'s tile tag: bit `w` set iff the neuron is
/// active in the tile's `w`-th window. `full_mask` has one bit per
/// window of the tile. Entries whose tag equals `full_mask` behave as
/// bursting for this tile and stay unpacked; zero tags are not
/// schedulable and must be filtered by the caller.
///
/// Allocates fresh working memory per call; hot loops should hold a
/// [`PackScratch`] and call [`pack_tile_with`] instead (same result).
///
/// # Panics
///
/// Panics if `full_mask` is zero, or any tag is zero or has bits outside
/// `full_mask`.
pub fn pack_tile(tags: &[u128], full_mask: u128) -> PackResult {
    pack_tile_with(&mut PackScratch::default(), tags, full_mask)
}

/// [`pack_tile`] with caller-owned working memory: bit-identical
/// result, no per-call allocation beyond the returned slots.
///
/// The algorithm is the greedy two-pass pairing of Section IV-D,
/// restructured from the original hash-bucketed form into ranges over
/// one sorted `(tag, index)` list — entries of a mask class are
/// contiguous and ascending, and "pop the largest index" becomes a
/// range shrink. Pass order is preserved exactly: pass 1 visits masks
/// ascending and pairs complement classes back-to-front; pass 2 visits
/// leftover classes densest-first and scans partners through a
/// popcount-bucketed index (a disjoint partner of a `p`-bit mask has at
/// most `width - p` bits, so whole buckets are skipped; exhausted
/// classes are dropped from a bucket the next time it is scanned). The
/// pairing order is identical to the naive popcount-sorted linear scan
/// (`reference::pack_tile_linear` pins this property-test-exactly);
/// only the search cost changes.
///
/// # Panics
///
/// As [`pack_tile`].
pub fn pack_tile_with(scratch: &mut PackScratch, tags: &[u128], full_mask: u128) -> PackResult {
    assert!(full_mask != 0, "tile must contain at least one window");
    let PackScratch {
        entries,
        groups,
        classes,
        index,
    } = scratch;
    let mut slots = Vec::with_capacity(tags.len());
    entries.clear();
    for (i, &t) in tags.iter().enumerate() {
        assert!(t != 0, "silent-in-tile entries must be filtered out");
        assert!(t & !full_mask == 0, "tag has bits outside the tile");
        if t == full_mask {
            slots.push(Slot {
                first: i,
                second: None,
            });
        } else {
            entries.push((t, i as u32));
        }
    }
    entries.sort_unstable();
    groups.clear();
    let mut s = 0;
    while s < entries.len() {
        let m = entries[s].0;
        let mut e = s + 1;
        while e < entries.len() && entries[e].0 == m {
            e += 1;
        }
        groups.push((m, s as u32, e as u32));
        s = e;
    }

    // Pass 1: exact 1's complements, masks ascending, each unordered
    // pair handled once; both classes consume their largest entry
    // indices first.
    let mut exact_pairs = 0usize;
    for gi in 0..groups.len() {
        let (m, lo, hi) = groups[gi];
        let comp = full_mask & !m;
        if m >= comp {
            continue;
        }
        if let Ok(gj) = groups.binary_search_by_key(&comp, |&(g, _, _)| g) {
            let (_, clo, chi) = groups[gj];
            let k = (hi - lo).min(chi - clo);
            for step in 0..k {
                let x = entries[(hi - 1 - step) as usize].1 as usize;
                let y = entries[(chi - 1 - step) as usize].1 as usize;
                slots.push(Slot {
                    first: x.min(y),
                    second: Some(x.max(y)),
                });
                exact_pairs += 1;
            }
            groups[gi].2 -= k;
            groups[gj].2 -= k;
        }
    }

    // Pass 2: nearest non-overlapping tags among the leftovers, greedily
    // from the densest tag down (Fig. 8c).
    classes.clear();
    classes.extend(groups.iter().copied().filter(|&(_, lo, hi)| hi > lo));
    classes.sort_unstable_by_key(|&(m, _, _)| (std::cmp::Reverse(m.count_ones()), m));
    let width = full_mask.count_ones() as usize;
    if index.len() < width + 1 {
        index.resize_with(width + 1, Vec::new);
    }
    for bucket in index.iter_mut().take(width + 1) {
        bucket.clear();
    }
    for (c, &(m, _, _)) in classes.iter().enumerate() {
        index[m.count_ones() as usize].push(c as u32);
    }
    let mut near_pairs = 0usize;
    for i in 0..classes.len() {
        let mi = classes[i].0;
        // A disjoint partner fits in the free bits; it also has no more
        // bits than `mi` (denser classes were handled as earlier `i`s).
        let partner_pc_cap = (mi.count_ones() as usize).min(width - mi.count_ones() as usize);
        while classes[i].2 > classes[i].1 {
            // Densest-first traversal: popcount buckets descending,
            // ascending class order within a bucket — the exact visit
            // order of the linear scan over the sorted classes.
            let mut best: Option<usize> = None;
            'search: for pc in (1..=partner_pc_cap).rev() {
                let bucket = &mut index[pc];
                bucket.retain(|&c| classes[c as usize].2 > classes[c as usize].1);
                for &c in bucket.iter() {
                    let c = c as usize;
                    if c > i && mi & classes[c].0 == 0 {
                        best = Some(c);
                        break 'search;
                    }
                }
            }
            match best {
                Some(j) => {
                    classes[i].2 -= 1;
                    let x = entries[classes[i].2 as usize].1 as usize;
                    classes[j].2 -= 1;
                    let y = entries[classes[j].2 as usize].1 as usize;
                    slots.push(Slot {
                        first: x.min(y),
                        second: Some(x.max(y)),
                    });
                    near_pairs += 1;
                }
                None => break,
            }
        }
    }
    // Whatever remains streams unpacked.
    for &(_, lo, hi) in classes.iter() {
        for e in lo..hi {
            slots.push(Slot {
                first: entries[e as usize].1 as usize,
                second: None,
            });
        }
    }

    PackResult {
        slots,
        entries_before: tags.len(),
        exact_pairs,
        near_pairs,
    }
}

/// Aggregate streaming cost of a packed tile, produced without
/// materializing the slot list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCost {
    /// Streaming slots after packing (`entries - pairs`).
    pub slots: u64,
    /// Exact-complement pairs formed.
    pub exact_pairs: u64,
    /// Merely-disjoint pairs formed.
    pub near_pairs: u64,
    /// Total stream beats: per slot, the busiest-column accumulate
    /// count floored at `min_beats`.
    pub beats: u64,
}

/// Reusable working memory for [`pack_stream_cost`] and
/// [`pack_count_cost`].
#[derive(Debug, Default)]
pub struct CostScratch {
    /// `buckets[m]` = busiest-window values of the entries whose tag is
    /// `m`, in entry order; pairing pops from the back (largest entry
    /// index first, like [`pack_tile_with`]'s range shrink).
    buckets: Vec<Vec<u16>>,
    /// `counts[m]` = live entry count of mask `m` ([`pack_count_cost`]
    /// only — pairing there never looks at individual entries).
    counts: Vec<u32>,
    /// Masks with a nonempty bucket this call (for sparse clearing).
    present: Vec<u32>,
    /// Pass-2 leftover masks, sorted densest-first.
    classes: Vec<u32>,
}

/// [`pack_tile_with`] + slot costing fused, for narrow tiles.
///
/// The packed slot list is only ever consumed to (a) count slots and
/// pairs and (b) sum per-slot stream beats, and a slot's beats depend
/// only on its busiest column: StSAP pairs have *disjoint* tags, so in
/// every column at most one member accumulates and the pair's busiest
/// column is simply `max` of the members' busiest windows. `busiest[i]`
/// is entry `i`'s largest per-window spike count; a slot then costs
/// `busiest.max(min_beats)` beats (`min_beats` = the spike-link
/// delivery floor).
///
/// Pairing is bit-identical to [`pack_tile_with`]: entries bucket by
/// mask in index order, and [`stream_cost_buckets`] pairs them,
/// consuming bucket backs — largest-index-first, the same order the
/// sorted-range form pops. Requires `full_mask` to fit `u16` (the
/// streaming array's column count bounds the tile width; the paper's
/// array has 8 columns).
///
/// # Panics
///
/// As [`pack_tile`], plus `tags.len() == busiest.len()`.
pub fn pack_stream_cost(
    scratch: &mut CostScratch,
    tags: &[u16],
    busiest: &[u16],
    full_mask: u16,
    min_beats: u64,
) -> StreamCost {
    assert!(full_mask != 0, "tile must contain at least one window");
    assert_eq!(tags.len(), busiest.len());
    let CostScratch {
        buckets,
        present,
        classes,
        ..
    } = scratch;
    if buckets.len() <= usize::from(full_mask) {
        buckets.resize_with(usize::from(full_mask) + 1, Vec::new);
    }
    present.clear();
    for (&t, &b) in tags.iter().zip(busiest) {
        assert!(t != 0, "silent-in-tile entries must be filtered out");
        assert!(t & !full_mask == 0, "tag has bits outside the tile");
        if buckets[usize::from(t)].is_empty() {
            present.push(u32::from(t));
        }
        buckets[usize::from(t)].push(b);
    }
    stream_cost_buckets(classes, buckets, present, full_mask, min_beats, false)
}

/// [`pack_stream_cost`] when every entry's busiest window is at or
/// under the `min_beats` floor (e.g. `TWS = 1`, where a window holds at
/// most one spike): every slot then costs exactly `min_beats`, so the
/// packing collapses to counting — which entries pair depends only on
/// how many entries carry each mask, never on which. Pairing runs on
/// per-mask counts with no per-entry work at all, and
/// `beats = slots * min_beats`.
///
/// Pair counts are identical to [`pack_tile_with`]'s: pass 1 pairs
/// `min(count, count)` across exact-complement classes, and pass 2's
/// one-at-a-time greedy always re-finds the same partner class until it
/// exhausts, so it batches to `min(count, count)` too.
///
/// # Panics
///
/// As [`pack_tile`].
pub fn pack_count_cost(
    scratch: &mut CostScratch,
    tags: &[u16],
    full_mask: u16,
    min_beats: u64,
) -> StreamCost {
    assert!(full_mask != 0, "tile must contain at least one window");
    let CostScratch {
        counts,
        present,
        classes,
        ..
    } = scratch;
    if counts.len() <= usize::from(full_mask) {
        counts.resize(usize::from(full_mask) + 1, 0);
    }
    present.clear();
    for &t in tags {
        assert!(t != 0, "silent-in-tile entries must be filtered out");
        assert!(t & !full_mask == 0, "tag has bits outside the tile");
        if counts[usize::from(t)] == 0 {
            present.push(u32::from(t));
        }
        counts[usize::from(t)] += 1;
    }
    count_cost_core(classes, counts, present, full_mask, min_beats)
}

/// Pairing core of [`pack_count_cost`], run on a pre-filled count
/// table: `counts[m]` entries carry mask `m` (the full-tile mask
/// included) and `present` lists each mask with a nonzero count exactly
/// once, in any order. The table is consumed — all-zero on return — so
/// a caller-owned scatter arena can be refilled tile after tile without
/// ever re-materializing the entry list.
///
/// # Panics
///
/// Panics if `full_mask == 0`; `counts` must be indexable by every
/// present mask and by `full_mask`.
pub fn count_cost_core(
    classes: &mut Vec<u32>,
    counts: &mut [u32],
    present: &[u32],
    full_mask: u16,
    min_beats: u64,
) -> StreamCost {
    assert!(full_mask != 0, "tile must contain at least one window");
    // Full-tile tags never pair: peel them off as one slot each. (In
    // pass 1 below the full mask's complement is 0, so it is skipped.)
    let mut slots = u64::from(counts[usize::from(full_mask)]);
    counts[usize::from(full_mask)] = 0;

    let mut exact_pairs = 0u64;
    for &m in present.iter() {
        debug_assert!(m != 0, "silent-in-tile entries must be filtered out");
        let comp = u32::from(full_mask) & !m;
        if m >= comp {
            continue;
        }
        let k = counts[m as usize].min(counts[comp as usize]);
        counts[m as usize] -= k;
        counts[comp as usize] -= k;
        exact_pairs += u64::from(k);
        slots += u64::from(k);
    }

    classes.clear();
    classes.extend(present.iter().copied().filter(|&m| counts[m as usize] > 0));
    classes.sort_unstable_by_key(|&m| (std::cmp::Reverse(m.count_ones()), m));
    // One forward scan per class, as in [`stream_cost_buckets`], batching
    // each partner to `min(count, count)` pairs (the one-at-a-time
    // greedy re-finds the same partner until one side exhausts).
    let mut near_pairs = 0u64;
    for i in 0..classes.len() {
        let mi = classes[i];
        let mut j = i + 1;
        while counts[mi as usize] > 0 && j < classes.len() {
            let mj = classes[j];
            if mi & mj == 0 {
                let k = counts[mi as usize].min(counts[mj as usize]);
                counts[mi as usize] -= k;
                counts[mj as usize] -= k;
                near_pairs += u64::from(k);
                slots += u64::from(k);
            }
            j += 1;
        }
    }

    // Leftover singles, then restore the table to all-zero.
    for &m in present.iter() {
        slots += u64::from(counts[m as usize]);
        counts[m as usize] = 0;
    }

    StreamCost {
        slots,
        exact_pairs,
        near_pairs,
        beats: slots * min_beats,
    }
}

/// Pairing core of [`pack_stream_cost`] and of the word kernel's
/// bucket scatter, run on pre-filled per-mask buckets: `buckets[m]`
/// holds the busiest-window values of the entries whose tag is `m`, in
/// entry order (the full-tile mask included), and
/// `present` lists each mask with a nonempty bucket exactly once, in
/// any order. The buckets are consumed — all empty on return — so a
/// caller-owned scatter arena can be refilled tile after tile without
/// ever re-materializing the entry list.
///
/// With `uniform = true`, every entry's busiest window is promised to
/// be at or under `min_beats`: the bucket *values* are never read, only
/// their lengths (the per-mask counts), and `beats = slots × min_beats`
/// — the [`pack_count_cost`] collapse on the same storage.
///
/// # Panics
///
/// Panics if `full_mask == 0`; `buckets` must be indexable by every
/// present mask and by `full_mask`.
pub fn stream_cost_buckets(
    classes: &mut Vec<u32>,
    buckets: &mut [Vec<u16>],
    present: &[u32],
    full_mask: u16,
    min_beats: u64,
    uniform: bool,
) -> StreamCost {
    assert!(full_mask != 0, "tile must contain at least one window");
    // Full-tile tags never pair: one slot each. (In pass 1 below the
    // full mask's complement is 0, so it is skipped.)
    let full = &mut buckets[usize::from(full_mask)];
    let mut slots = full.len() as u64;
    let mut beats = if uniform {
        0
    } else {
        full.iter().map(|&b| u64::from(b).max(min_beats)).sum()
    };
    full.clear();

    let mut exact_pairs = 0u64;
    for &m in present.iter() {
        debug_assert!(m != 0, "silent-in-tile entries must be filtered out");
        let comp = u32::from(full_mask) & !m;
        if m >= comp {
            continue;
        }
        let k = buckets[m as usize].len().min(buckets[comp as usize].len());
        if uniform {
            let la = buckets[m as usize].len();
            let lb = buckets[comp as usize].len();
            buckets[m as usize].truncate(la - k);
            buckets[comp as usize].truncate(lb - k);
        } else {
            // Pop bucket backs — largest entry index first, the order
            // [`pack_tile_with`]'s range shrink consumes.
            for _ in 0..k {
                let a = buckets[m as usize].pop().expect("sized by k");
                let b = buckets[comp as usize].pop().expect("sized by k");
                beats += u64::from(a.max(b)).max(min_beats);
            }
        }
        exact_pairs += k as u64;
        slots += k as u64;
    }

    classes.clear();
    classes.extend(
        present
            .iter()
            .copied()
            .filter(|&m| !buckets[m as usize].is_empty()),
    );
    classes.sort_unstable_by_key(|&m| (std::cmp::Reverse(m.count_ones()), m));
    // The class order *is* the greedy preference order (densest first,
    // then smallest mask), and a class `j > i` that is skipped — for
    // overlap or exhaustion — never becomes viable again, so each
    // class's partner search is one forward scan with resume. (The cap
    // on partner density is implied: a class denser than `mi`'s
    // complement can't be disjoint from `mi`.)
    let mut near_pairs = 0u64;
    for i in 0..classes.len() {
        let mi = classes[i];
        let mut j = i + 1;
        while !buckets[mi as usize].is_empty() && j < classes.len() {
            let mj = classes[j];
            if mi & mj == 0 {
                if uniform {
                    let k = buckets[mi as usize].len().min(buckets[mj as usize].len());
                    let (la, lb) = (buckets[mi as usize].len(), buckets[mj as usize].len());
                    buckets[mi as usize].truncate(la - k);
                    buckets[mj as usize].truncate(lb - k);
                    near_pairs += k as u64;
                    slots += k as u64;
                } else {
                    while let (Some(&a), Some(&b)) =
                        (buckets[mi as usize].last(), buckets[mj as usize].last())
                    {
                        buckets[mi as usize].pop();
                        buckets[mj as usize].pop();
                        beats += u64::from(a.max(b)).max(min_beats);
                        near_pairs += 1;
                        slots += 1;
                    }
                }
            }
            j += 1;
        }
    }

    // Leftover singles, then restore the buckets to all-empty.
    for &m in present.iter() {
        slots += buckets[m as usize].len() as u64;
        if !uniform {
            for &b in buckets[m as usize].iter() {
                beats += u64::from(b).max(min_beats);
            }
        }
        buckets[m as usize].clear();
    }

    if uniform {
        beats = slots * min_beats;
    }
    StreamCost {
        slots,
        exact_pairs,
        near_pairs,
        beats,
    }
}

/// Result of the generalized (group-size > 2) packing ablation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupPackResult {
    /// Streaming groups after packing; each group's tags are pairwise
    /// disjoint and the group has at most the configured size.
    pub groups: Vec<Vec<usize>>,
    /// Number of input entries before packing.
    pub entries_before: usize,
}

impl GroupPackResult {
    /// Streaming slots after packing.
    pub fn entries_after(&self) -> usize {
        self.groups.len()
    }
}

/// Generalized StSAP: packs up to `max_group` mutually-disjoint entries
/// per streaming slot, by greedy first-fit-decreasing on tag density.
///
/// The paper limits groups to two "to simplify the packing process";
/// this generalization quantifies what that simplification costs (see
/// the `ablation_stsap_limit` experiment). With `max_group == 2` the
/// slot count matches [`pack_tile`]'s greedy pairing closely but not
/// necessarily exactly (different greedy order).
///
/// # Panics
///
/// Panics if `max_group == 0`, `full_mask == 0`, or any tag is zero or
/// out of the tile.
pub fn pack_tile_grouped(tags: &[u128], full_mask: u128, max_group: usize) -> GroupPackResult {
    assert!(max_group >= 1, "groups must hold at least one entry");
    assert!(full_mask != 0, "tile must contain at least one window");
    for &t in tags {
        assert!(t != 0, "silent-in-tile entries must be filtered out");
        assert!(t & !full_mask == 0, "tag has bits outside the tile");
    }
    // First-fit decreasing: densest tags first, each entry goes into the
    // first open group it fits (disjoint, not full, not already dense).
    let mut order: Vec<usize> = (0..tags.len()).collect();
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(tags[i].count_ones()), tags[i], i));
    let mut groups: Vec<(u128, Vec<usize>)> = Vec::new();
    for i in order {
        let t = tags[i];
        let mut placed = false;
        if max_group > 1 && t != full_mask {
            for (mask, members) in groups.iter_mut() {
                if members.len() < max_group && *mask & t == 0 && *mask != full_mask {
                    *mask |= t;
                    members.push(i);
                    placed = true;
                    break;
                }
            }
        }
        if !placed {
            groups.push((t, vec![i]));
        }
    }
    GroupPackResult {
        groups: groups.into_iter().map(|(_, m)| m).collect(),
        entries_before: tags.len(),
    }
}

/// Input-density improvement of a packing: the mean fraction of
/// (slot × window) cells carrying activity, before vs. after (Fig. 6c).
pub fn density_gain(tags: &[u128], full_mask: u128, result: &PackResult) -> (f64, f64) {
    let width = full_mask.count_ones() as f64;
    let active: u32 = tags.iter().map(|t| t.count_ones()).sum();
    let before = if tags.is_empty() {
        0.0
    } else {
        f64::from(active) / (tags.len() as f64 * width)
    };
    let after = if result.slots.is_empty() {
        0.0
    } else {
        f64::from(active) / (result.slots.len() as f64 * width)
    };
    (before, after)
}

/// The pre-index packer, kept verbatim as the behavioral reference for
/// the bucket-by-popcount rewrite: `pack_tile` must produce identical
/// output (same slots, same order, same pair counts) on every input.
/// Test-only — the shipping path is [`pack_tile`].
#[cfg(test)]
mod reference {
    use super::{PackResult, Slot};
    use std::collections::HashMap;

    /// The original `pack_tile`: identical pass 1, and a pass 2 that
    /// rescans every class linearly for each pair formed (O(n²) per
    /// tile in the worst case — the ROADMAP item the index fixed).
    pub fn pack_tile_linear(tags: &[u128], full_mask: u128) -> PackResult {
        assert!(full_mask != 0, "tile must contain at least one window");
        let mut slots = Vec::with_capacity(tags.len());
        let mut buckets: HashMap<u128, Vec<usize>> = HashMap::new();
        for (i, &t) in tags.iter().enumerate() {
            assert!(t != 0, "silent-in-tile entries must be filtered out");
            assert!(t & !full_mask == 0, "tag has bits outside the tile");
            if t == full_mask {
                slots.push(Slot {
                    first: i,
                    second: None,
                });
            } else {
                buckets.entry(t).or_default().push(i);
            }
        }

        let mut exact_pairs = 0usize;
        let mut masks: Vec<u128> = buckets.keys().copied().collect();
        masks.sort_unstable();
        for &m in &masks {
            let comp = full_mask & !m;
            if m >= comp {
                continue;
            }
            let (mut a, mut b) = match (buckets.remove(&m), buckets.remove(&comp)) {
                (Some(a), Some(b)) => (a, b),
                (Some(a), None) => {
                    buckets.insert(m, a);
                    continue;
                }
                (None, _) => continue,
            };
            while !a.is_empty() && !b.is_empty() {
                let (x, y) = (
                    a.pop().expect("nonempty by loop guard"),
                    b.pop().expect("nonempty by loop guard"),
                );
                slots.push(Slot {
                    first: x.min(y),
                    second: Some(x.max(y)),
                });
                exact_pairs += 1;
            }
            if !a.is_empty() {
                buckets.insert(m, a);
            }
            if !b.is_empty() {
                buckets.insert(comp, b);
            }
        }

        let mut classes: Vec<(u128, Vec<usize>)> = buckets.into_iter().collect();
        classes.sort_unstable_by_key(|(m, _)| (std::cmp::Reverse(m.count_ones()), *m));
        let mut near_pairs = 0usize;
        for i in 0..classes.len() {
            'outer: while !classes[i].1.is_empty() {
                let mi = classes[i].0;
                let mut best: Option<usize> = None;
                for (j, (mj, ids)) in classes.iter().enumerate().skip(i + 1) {
                    if !ids.is_empty() && mi & mj == 0 {
                        best = Some(j);
                        break;
                    }
                }
                match best {
                    Some(j) => {
                        let x = classes[i].1.pop().expect("nonempty by loop guard");
                        let y = classes[j].1.pop().expect("nonempty by selection");
                        slots.push(Slot {
                            first: x.min(y),
                            second: Some(x.max(y)),
                        });
                        near_pairs += 1;
                    }
                    None => break 'outer,
                }
            }
        }
        for (_, ids) in classes {
            for i in ids {
                slots.push(Slot {
                    first: i,
                    second: None,
                });
            }
        }

        PackResult {
            slots,
            entries_before: tags.len(),
            exact_pairs,
            near_pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(r: &PackResult) -> Vec<usize> {
        let mut v: Vec<usize> = r
            .slots
            .iter()
            .flat_map(|s| [Some(s.first), s.second].into_iter().flatten())
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn exact_complements_pair_up() {
        // full = 0b1111; 0b0101 and 0b1010 are exact complements.
        let tags = vec![0b0101, 0b1010, 0b0011, 0b1100];
        let r = pack_tile(&tags, 0b1111);
        assert_eq!(r.entries_after(), 2);
        assert_eq!(r.exact_pairs, 2);
        assert_eq!(r.near_pairs, 0);
        assert_eq!(ids(&r), vec![0, 1, 2, 3]);
        for s in &r.slots {
            let a = tags[s.first];
            let b = tags[s.second.unwrap()];
            assert_eq!(a & b, 0);
            assert_eq!(a | b, 0b1111);
        }
    }

    #[test]
    fn near_pairs_when_no_exact_complement() {
        // 0b0001 and 0b0110 are disjoint but not complements (bit 3 unused).
        let tags = vec![0b0001, 0b0110];
        let r = pack_tile(&tags, 0b1111);
        assert_eq!(r.entries_after(), 1);
        assert_eq!(r.exact_pairs, 0);
        assert_eq!(r.near_pairs, 1);
    }

    #[test]
    fn overlapping_tags_stay_single() {
        let tags = vec![0b0011, 0b0110, 0b1100];
        // 0b0011 & 0b1100 == 0 -> one near pair; 0b0110 overlaps both.
        let r = pack_tile(&tags, 0b1111);
        assert_eq!(r.entries_after(), 2);
        assert_eq!(r.pairs(), 1);
        assert_eq!(ids(&r), vec![0, 1, 2]);
    }

    #[test]
    fn bursting_in_tile_is_never_packed() {
        let tags = vec![0b1111, 0b1111, 0b0101, 0b1010];
        let r = pack_tile(&tags, 0b1111);
        assert_eq!(r.entries_after(), 3); // two bursting singles + one pair
        let burst_slots = r
            .slots
            .iter()
            .filter(|s| tags[s.first] == 0b1111)
            .collect::<Vec<_>>();
        assert!(burst_slots.iter().all(|s| s.second.is_none()));
    }

    #[test]
    fn greedy_prefers_densest_partner() {
        // Entry 0 (0b0001) could pair with 0b0110 (2 bits) or 0b0010 (1 bit).
        // The paper's greedy picks the nearest complement = densest fit.
        let tags = vec![0b0001, 0b0110, 0b0010];
        let r = pack_tile(&tags, 0b0111);
        // Densest tag processed first is 0b0110; it pairs with 0b0001.
        let pair = r.slots.iter().find(|s| s.second.is_some()).unwrap();
        let pair_masks = (tags[pair.first], tags[pair.second.unwrap()]);
        assert!(pair_masks == (0b0001, 0b0110) || pair_masks == (0b0110, 0b0001));
        assert_eq!(r.entries_after(), 2);
    }

    #[test]
    fn every_entry_appears_exactly_once() {
        let full = (1u128 << 8) - 1;
        let tags: Vec<u128> = (1..=200u128)
            .map(|i| (i * 37) % 255 + 1)
            .map(|m| m & full)
            .map(|m| if m == 0 { 1 } else { m })
            .collect();
        let r = pack_tile(&tags, full);
        assert_eq!(ids(&r), (0..200).collect::<Vec<_>>());
        // All pairs are genuinely disjoint.
        for s in &r.slots {
            if let Some(second) = s.second {
                assert_eq!(tags[s.first] & tags[second], 0);
            }
        }
        assert!(r.entries_after() <= 200);
        assert_eq!(
            r.entries_after() + r.pairs(),
            r.entries_before,
            "each pair saves exactly one slot"
        );
    }

    #[test]
    fn packing_is_deterministic() {
        let full = (1u128 << 6) - 1;
        let tags: Vec<u128> = (1..=60u128)
            .map(|i| ((i * 13) % 63) + 1)
            .map(|m| m.min(full))
            .collect();
        assert_eq!(pack_tile(&tags, full), pack_tile(&tags, full));
    }

    #[test]
    #[should_panic]
    fn zero_tag_panics() {
        pack_tile(&[0], 0b1111);
    }

    #[test]
    #[should_panic]
    fn out_of_tile_bits_panic() {
        pack_tile(&[0b10000], 0b1111);
    }

    /// Pinned from `tests/model_invariants.proptest-regressions`: the
    /// shrunk failure of `pack_tile_partitions_entries` at
    /// `seed = 0, n = 47, width = 2`, re-generated exactly as the
    /// property test builds its tags. Every entry must appear exactly
    /// once, pairs must be disjoint and non-bursting, and slot
    /// accounting must balance.
    #[test]
    fn regression_seed0_n47_width2() {
        let (seed, n, width) = (0u64, 47usize, 2u32);
        let full: u128 = (1u128 << width) - 1;
        let tags: Vec<u128> = (0..n)
            .map(|i| {
                let v = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) as u128;
                let m = v & full;
                if m == 0 {
                    1
                } else {
                    m
                }
            })
            .collect();
        let r = pack_tile(&tags, full);
        let mut seen = vec![false; n];
        for s in &r.slots {
            assert!(
                !std::mem::replace(&mut seen[s.first], true),
                "dup {}",
                s.first
            );
            if let Some(sec) = s.second {
                assert!(!std::mem::replace(&mut seen[sec], true), "dup {sec}");
                assert_eq!(tags[s.first] & tags[sec], 0, "pair overlaps");
                assert!(
                    tags[s.first] != full && tags[sec] != full,
                    "bursting packed"
                );
            }
        }
        assert!(seen.into_iter().all(|s| s), "entry lost");
        assert_eq!(r.entries_after() + r.pairs(), r.entries_before);
    }

    #[test]
    fn density_gain_reports_improvement() {
        let tags = vec![0b0101, 0b1010, 0b0011, 0b1100];
        let r = pack_tile(&tags, 0b1111);
        let (before, after) = density_gain(&tags, 0b1111, &r);
        assert!((before - 0.5).abs() < 1e-12);
        assert!((after - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grouped_packing_respects_limit_and_disjointness() {
        let full = (1u128 << 8) - 1;
        let tags: Vec<u128> = (0..100u128)
            .map(|i| ((i * 37) % 255) + 1)
            .map(|m| m & full)
            .map(|m| if m == 0 { 1 } else { m })
            .collect();
        for k in [1usize, 2, 3, 4, 8] {
            let r = pack_tile_grouped(&tags, full, k);
            let mut seen = vec![false; tags.len()];
            for g in &r.groups {
                assert!(
                    !g.is_empty() && g.len() <= k,
                    "group size {} > {k}",
                    g.len()
                );
                let mut acc = 0u128;
                for &i in g {
                    assert!(!std::mem::replace(&mut seen[i], true));
                    assert_eq!(acc & tags[i], 0, "group members must be disjoint");
                    acc |= tags[i];
                }
            }
            assert!(
                seen.into_iter().all(|s| s),
                "every entry packed exactly once"
            );
        }
    }

    #[test]
    fn larger_groups_never_need_more_slots() {
        let full = (1u128 << 8) - 1;
        let tags: Vec<u128> = (0..200u128).map(|i| ((i * 53) % 254) + 1).collect();
        let mut prev = usize::MAX;
        for k in [1usize, 2, 4, 8] {
            let slots = pack_tile_grouped(&tags, full, k).entries_after();
            assert!(slots <= prev, "k={k}: {slots} > {prev}");
            prev = slots;
        }
        // k = 1 is the unpacked case.
        assert_eq!(
            pack_tile_grouped(&tags, full, 1).entries_after(),
            tags.len()
        );
    }

    #[test]
    fn grouped_pairs_match_pairwise_packer_closely() {
        let full = (1u128 << 8) - 1;
        let tags: Vec<u128> = (0..150u128).map(|i| ((i * 91) % 254) + 1).collect();
        let pairwise = pack_tile(&tags, full).entries_after();
        let grouped = pack_tile_grouped(&tags, full, 2).entries_after();
        let diff = pairwise.abs_diff(grouped);
        assert!(
            diff * 10 <= tags.len(),
            "greedy variants differ too much: {pairwise} vs {grouped}"
        );
    }

    #[test]
    fn wide_tile_masks_supported() {
        // 100-window tile (u128 path).
        let full = (1u128 << 100) - 1;
        let a = (1u128 << 50) - 1; // low half
        let b = full & !a; // high half
        let r = pack_tile(&[a, b], full);
        assert_eq!(r.entries_after(), 1);
        assert_eq!(r.exact_pairs, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bucket-by-popcount candidate index is a pure search
        /// acceleration: for arbitrary tag populations and tile widths,
        /// the packing output (slot list *in order*, pair counts) is
        /// identical to the original linear-rescan packer, so every
        /// policy's reports are unchanged (the simulator consumes the
        /// slot list verbatim).
        #[test]
        fn indexed_packer_matches_linear_reference(
            seed in proptest::any::<u64>(),
            n in 0usize..400,
            width in 1u32..=24,
        ) {
            let full: u128 = (1u128 << width) - 1;
            let mut state = seed;
            let tags: Vec<u128> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add(0x1405_7B7E_F767_814F);
                    let m = u128::from(state) & full;
                    if m == 0 { 1 } else { m }
                })
                .collect();
            prop_assert_eq!(
                pack_tile(&tags, full),
                reference::pack_tile_linear(&tags, full)
            );
        }

        /// The count-only coster matches the materialized packer when
        /// slot costs are uniform (busiest ≤ min_beats everywhere):
        /// identical pair counts, slots, and beats.
        #[test]
        fn count_cost_matches_materialized_slots(
            seed in proptest::any::<u64>(),
            n in 0usize..300,
            width in 1u32..=16,
            min_beats in 1u64..=4,
        ) {
            let full: u16 = ((1u32 << width) - 1) as u16;
            let mut state = seed ^ 0x0DD_B1A5;
            let tags16: Vec<u16> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add(0x1405_7B7E_F767_814F);
                    let m = (state as u16) & full;
                    if m == 0 { 1 } else { m }
                })
                .collect();
            let tags: Vec<u128> = tags16.iter().map(|&t| u128::from(t)).collect();
            let packed = pack_tile(&tags, u128::from(full));
            let mut scratch = CostScratch::default();
            let got = pack_count_cost(&mut scratch, &tags16, full, min_beats);
            prop_assert_eq!(got.slots, packed.entries_after() as u64);
            prop_assert_eq!(got.exact_pairs, packed.exact_pairs as u64);
            prop_assert_eq!(got.near_pairs, packed.near_pairs as u64);
            prop_assert_eq!(got.beats, packed.entries_after() as u64 * min_beats);
            let again = pack_count_cost(&mut scratch, &tags16, full, min_beats);
            prop_assert_eq!(again, got);
        }

        /// The bucket-arena core, on buckets filled externally (in
        /// entry order) or by [`pack_stream_cost`], is the packer in
        /// both modes — valued (against costing [`pack_tile`]'s
        /// materialized slots from the members' busiest windows: pairs
        /// are disjoint, so a pair's busiest column is the max of the
        /// members' busiest windows) and uniform (against the count
        /// coster, when every busiest window is at or under
        /// `min_beats`).
        #[test]
        fn bucket_core_matches_entry_costers(
            seed in proptest::any::<u64>(),
            n in 0usize..300,
            width in 1u32..=16,
            min_beats in 1u64..=4,
        ) {
            let full: u16 = ((1u32 << width) - 1) as u16;
            let mut state = seed ^ 0x0B0C_4E75;
            let mut tags16 = Vec::with_capacity(n);
            let mut busiest = Vec::with_capacity(n);
            for _ in 0..n {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                let m = (state as u16) & full;
                tags16.push(if m == 0 { 1 } else { m });
                busiest.push(((state >> 32) % 7 + 1) as u16);
            }
            let fill = |values: &[u16]| {
                let mut buckets = vec![Vec::new(); usize::from(full) + 1];
                let mut present = Vec::new();
                for (&t, &b) in tags16.iter().zip(values) {
                    if buckets[usize::from(t)].is_empty() {
                        present.push(u32::from(t));
                    }
                    buckets[usize::from(t)].push(b);
                }
                (buckets, present)
            };
            let mut classes = Vec::new();
            let mut scratch = CostScratch::default();

            // Valued mode ≡ the materialized slots of the packer.
            let tags: Vec<u128> = tags16.iter().map(|&t| u128::from(t)).collect();
            let packed = pack_tile(&tags, u128::from(full));
            let want_beats: u64 = packed
                .slots
                .iter()
                .map(|s| {
                    let b = s.second.map_or(busiest[s.first], |j| busiest[s.first].max(busiest[j]));
                    u64::from(b).max(min_beats)
                })
                .sum();
            let (mut buckets, present) = fill(&busiest);
            let got = stream_cost_buckets(
                &mut classes, &mut buckets, &present, full, min_beats, false,
            );
            prop_assert_eq!(got.slots, packed.entries_after() as u64);
            prop_assert_eq!(got.exact_pairs, packed.exact_pairs as u64);
            prop_assert_eq!(got.near_pairs, packed.near_pairs as u64);
            prop_assert_eq!(got.beats, want_beats);
            prop_assert!(buckets.iter().all(Vec::is_empty));
            // The entry coster fills its own buckets, and restores its
            // scratch to all-empty: a second call must agree.
            for _ in 0..2 {
                let entry = pack_stream_cost(&mut scratch, &tags16, &busiest, full, min_beats);
                prop_assert_eq!(entry, got);
            }

            // Uniform mode ≡ the count coster (busiest ≤ min_beats
            // everywhere, so values are immaterial).
            let capped: Vec<u16> =
                busiest.iter().map(|&b| b.min(min_beats as u16)).collect();
            let (mut buckets, present) = fill(&capped);
            let got = stream_cost_buckets(
                &mut classes, &mut buckets, &present, full, min_beats, true,
            );
            let want = pack_count_cost(&mut scratch, &tags16, full, min_beats);
            prop_assert_eq!(got, want);
            prop_assert!(buckets.iter().all(Vec::is_empty));
        }

        /// Same equivalence on wide (u128) tiles, where the popcount
        /// index is sparse.
        #[test]
        fn indexed_packer_matches_linear_reference_wide(
            seed in proptest::any::<u64>(),
            n in 0usize..120,
            width in 65u32..=127,
        ) {
            let full: u128 = (1u128 << width) - 1;
            let mut state = seed ^ 0xDEAD_BEEF;
            let tags: Vec<u128> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add(0x1405_7B7E_F767_814F);
                    // Two multiplies give 128 bits of material.
                    let hi = u128::from(state);
                    state = state
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add(0x1405_7B7E_F767_814F);
                    let m = ((hi << 64) | u128::from(state)) & full;
                    if m == 0 { 1 } else { m }
                })
                .collect();
            prop_assert_eq!(
                pack_tile(&tags, full),
                reference::pack_tile_linear(&tags, full)
            );
        }
    }
}
