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
//!
//! The greedy is written once, as a count-only *pair plan*: entries are
//! grouped into classes by tag, pass 1 pairs each class with its exact
//! complement, and pass 2 visits the leftover classes densest-first and
//! pairs each with the first disjoint class after it. Both passes pair
//! `min(count, count)` entries at a time (pass 2's one-at-a-time greedy
//! re-finds the same partner until one side runs out), so which classes
//! pair, and how often, depends only on the per-class counts. Entries
//! only decide *which* members of a class pair, and every consumer takes
//! them from the class tails, largest entry first:
//!
//! * [`pack_tile`] pops entry indices along the plan into the slot list;
//! * the simulator's coster adds up slots and pairs from the plan, and
//!   prices beats by popping busiest-window values along it — a pass it
//!   skips when every value sits at the delivery floor. It keeps one
//!   store per output position of a band of rows, and a scatter over
//!   the tile's pairable entries in ascending neuron order
//!   ([`crate::geom::BoxScan::scatter`]) pushes each entry into every
//!   store whose field covers it, so each store holds its field's
//!   entries in receptive-field order, the order the oracle lists.
//!
//! Tiles of at most 8 windows count their classes by tag (a complement
//! is a direct lookup), plan along a fixed pass-2 order over all 8-bit
//! tags instead of sorting, and counting-sort values by class; wider
//! tiles sort their entries by tag once and find complements by binary
//! search.

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

/// The full mask of a column tile of `nw` windows: one bit per window.
///
/// # Panics
///
/// Panics unless `1 <= nw <= 128`.
pub fn tile_full_mask(nw: usize) -> u128 {
    assert!(
        (1..=128).contains(&nw),
        "a column tile spans 1..=128 windows"
    );
    u128::MAX >> (128 - nw)
}

/// The greedy's decisions for one tile, in class ids of the storage it
/// was planned on.
#[derive(Debug, Default)]
pub(crate) struct PairPlan {
    /// `(class a, class b, k, exact)`: `k` pairs of one entry from each
    /// class, in pairing order — pass 1's exact complements, then pass
    /// 2's disjoint partners.
    steps: Vec<(u32, u32, u32, bool)>,
    /// Pass 2's class order, which leftovers stream in: the classes left
    /// after pass 1 (the full tag aside), densest first, then by tag.
    /// Each key holds `128 - popcount` above the class id.
    order: Vec<u64>,
}

impl PairPlan {
    /// Runs both passes over `classes` (`(tag, ..)` sorted by tag; pass
    /// 1 visits them in this order), consuming `counts[class]`.
    fn build(&mut self, classes: &[(u128, u32, u32)], counts: &mut [u32], full_mask: u128) {
        self.steps.clear();
        self.order.clear();
        let mask = |c: u32| classes[c as usize].0;
        // Pass 1: exact 1's complements, each unordered pair once. The
        // full tag's complement is 0, so it never pairs.
        for a in 0..classes.len() as u32 {
            let comp = full_mask & !mask(a);
            if mask(a) < comp {
                if let Ok(b) = classes.binary_search_by_key(&comp, |c| c.0) {
                    self.pair(counts, a, b as u32, true);
                }
            }
        }
        // Pass 2: nearest non-overlapping tags among the leftovers,
        // greedily from the densest tag down (Fig. 8c). Ids ascend with
        // tags, so sorting on `(128 - popcount, id)` puts the densest
        // class first, ties by tag. A class `j > i` skipped for overlap
        // or exhaustion never becomes viable again, so each class's
        // partner search is one forward scan.
        self.order.extend(
            (0..classes.len() as u32)
                .filter(|&c| counts[c as usize] > 0 && mask(c) != full_mask)
                .map(|c| u64::from(128 - mask(c).count_ones()) << 32 | u64::from(c)),
        );
        self.order.sort_unstable();
        for i in 0..self.order.len() {
            let a = self.order[i] as u32;
            for j in i + 1..self.order.len() {
                if counts[a as usize] == 0 {
                    break;
                }
                let b = self.order[j] as u32;
                if mask(a) & mask(b) == 0 {
                    self.pair(counts, a, b, false);
                }
            }
        }
    }

    /// [`PairPlan::build`] for tags of at most 8 bits, class id = tag:
    /// the same per-class steps, without a sort. `present` has bit `m`
    /// set iff `counts[m] > 0`. Pass 2 walks the fixed order, and each
    /// class scans only its precomputed disjoint partners that are
    /// still present.
    fn build_narrow(&mut self, counts: &mut [u32; 256], present: [u64; 4], full_mask: u128) {
        self.steps.clear();
        self.order.clear();
        let full = full_mask as usize;
        // Pass 1, ascending: a class's count is final once its visit
        // is over (its complement below it has paired with it already),
        // so the same walk collects pass 2's classes by place.
        let mut ranked = [0u64; 4];
        for (w, &word) in present.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let a = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let comp = full & !a;
                if a < comp {
                    self.pair(counts, a as u32, comp as u32, true);
                }
                if counts[a] > 0 && a != full {
                    let r = NARROW_ORDER.0[a] as usize;
                    ranked[r / 64] |= 1 << (r % 64);
                }
            }
        }
        // Pass 2: each class, in place order, pairs with its disjoint
        // partners after it while both last; exhausted partners leave
        // the live set.
        for w in 0..4 {
            while ranked[w] != 0 {
                let r = w * 64 + ranked[w].trailing_zeros() as usize;
                ranked[w] &= ranked[w] - 1;
                let a = NARROW_ORDER.1[r] as u32;
                let partners = &NARROW_PARTNERS[a as usize];
                'scan: for v in w..4 {
                    while partners[v] & ranked[v] != 0 {
                        let rb = v * 64 + (partners[v] & ranked[v]).trailing_zeros() as usize;
                        let b = u32::from(NARROW_ORDER.1[rb]);
                        self.pair(counts, a, b, false);
                        if counts[b as usize] == 0 {
                            ranked[v] &= !(1 << (rb % 64));
                        }
                        if counts[a as usize] == 0 {
                            break 'scan;
                        }
                    }
                }
            }
        }
    }

    /// Pairs `min(count, count)` entries of classes `a` and `b`.
    fn pair(&mut self, counts: &mut [u32], a: u32, b: u32, exact: bool) {
        let k = counts[a as usize].min(counts[b as usize]);
        if k > 0 {
            counts[a as usize] -= k;
            counts[b as usize] -= k;
            self.steps.push((a, b, k, exact));
        }
    }

    /// Pass 2's class order, as ids.
    fn order(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().map(|&key| key as u32)
    }

    /// `(exact, near)` pair totals.
    fn pairs(&self) -> (u64, u64) {
        self.steps.iter().fold((0, 0), |(e, n), &(_, _, k, exact)| {
            if exact {
                (e + u64::from(k), n)
            } else {
                (e, n + u64::from(k))
            }
        })
    }
}

/// A tile's entries grouped into tag classes: the storage the pair plan
/// runs on and [`stream_cost`] prices.
pub(crate) trait TagClasses {
    /// One entry's tile tag, a bit per window of the widest tile the
    /// storage takes.
    type Tag: Copy + Default + TryFrom<u128>;
    /// Empty storage for tiles of up to `width` windows, with room for
    /// `capacity` entries: it takes no more memory while it never holds
    /// more.
    fn new(width: usize, capacity: usize) -> Self;
    /// Words (8 bytes each) the storage takes, inline and on the heap.
    fn words(&self) -> usize;
    /// Adds one entry: its tile tag and, when slots are valued, its
    /// busiest window (at least 1: the entry is active in the tile).
    /// Either every entry of a tile carries a value or none does.
    fn push(&mut self, tag: Self::Tag, value: Option<u16>);
    /// Entries pushed since the last reset.
    fn len(&self) -> usize;
    /// Largest value pushed since the last reset (0 if none).
    fn max_value(&self) -> u16;
    /// Plans the pairing, consuming the class counts.
    fn plan(&mut self, full_mask: u128, plan: &mut PairPlan);
    /// Total beats of the planned slots: pairs pop value tails along the
    /// plan, and each remaining entry streams alone.
    fn beats(&mut self, plan: &PairPlan, min_beats: u64) -> u64;
    /// Empties the storage for the next tile.
    fn reset(&mut self);
}

/// Pass 2's class order over every 8-bit tag — densest first, then by
/// tag, the order [`PairPlan::build`] sorts 8-bit classes into —
/// as `(RANK, BY_RANK)`: tag `m` sits at place `RANK[m]`, place `r`
/// holds tag `BY_RANK[r]`. Restricted to a tile's tags it is that
/// tile's order, so narrow tiles never sort.
const NARROW_ORDER: ([u8; 256], [u8; 256]) = {
    let (mut rank, mut by_rank) = ([0u8; 256], [0u8; 256]);
    let mut m = 0;
    while m < 256 {
        let (mut r, mut o) = (0, 0);
        while o < 256 {
            let (po, pm) = ((o as u8).count_ones(), (m as u8).count_ones());
            r += (po > pm || (po == pm && o < m)) as usize;
            o += 1;
        }
        (rank[m], by_rank[r]) = (r as u8, m as u8);
        m += 1;
    }
    (rank, by_rank)
};

/// `NARROW_PARTNERS[m]`: the places (bit `r` of the 256-bit set) of the
/// nonzero tags disjoint from `m` that come after it in pass 2's order —
/// the only classes its forward partner scan can pair with.
const NARROW_PARTNERS: [[u64; 4]; 256] = {
    let mut partners = [[0u64; 4]; 256];
    let mut m = 0;
    while m < 256 {
        let mut o = 1;
        while o < 256 {
            let r = NARROW_ORDER.0[o] as usize;
            if m & o == 0 && r > NARROW_ORDER.0[m] as usize {
                partners[m][r / 64] |= 1 << (r % 64);
            }
            o += 1;
        }
        m += 1;
    }
    partners
};

/// Class storage for tiles of at most 8 windows: counts indexed by tag
/// (a class id *is* its tag, so a complement is a direct lookup) and,
/// when slots are valued, the entries in push order, which the beats
/// pass counting-sorts into one flat value array, each class contiguous.
#[derive(Debug)]
pub(crate) struct NarrowClasses {
    counts: [u32; 256],
    /// Bit `m` set iff tag `m` was pushed since the last reset.
    present: [u64; 4],
    len: usize,
    /// Valued entries' `(tag, busiest window)`, in push order.
    valued: Vec<(u8, u16)>,
    sorted: Vec<u16>,
    max: u16,
}

impl TagClasses for NarrowClasses {
    type Tag = u8;

    fn new(width: usize, capacity: usize) -> Self {
        assert!(width <= 8, "narrow class tiles span at most 8 windows");
        NarrowClasses {
            counts: [0; 256],
            present: [0; 4],
            len: 0,
            valued: Vec::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
            max: 0,
        }
    }

    fn words(&self) -> usize {
        let heap = self.valued.capacity() * size_of::<(u8, u16)>()
            + self.sorted.capacity() * size_of::<u16>();
        (size_of::<Self>() + heap).div_ceil(8)
    }

    fn push(&mut self, tag: u8, value: Option<u16>) {
        debug_assert!(tag != 0, "silent-in-tile entries must be filtered out");
        let m = usize::from(tag);
        self.counts[m] += 1;
        self.present[m / 64] |= 1 << (m % 64);
        self.len += 1;
        if let Some(v) = value {
            debug_assert!(v > 0, "an active entry's busiest window holds a spike");
            self.valued.push((tag, v));
            self.max = self.max.max(v);
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn max_value(&self) -> u16 {
        self.max
    }

    fn plan(&mut self, full_mask: u128, plan: &mut PairPlan) {
        plan.build_narrow(&mut self.counts, self.present, full_mask);
    }

    fn beats(&mut self, plan: &PairPlan, min_beats: u64) -> u64 {
        // Counting sort: class `m` takes the places before `ends[m]`,
        // filled back to front from the last pushed entry, so popping
        // at `ends[m]` takes the largest entry first.
        let mut ends = [0u32; 256];
        for &(m, _) in &self.valued {
            ends[m as usize] += 1;
        }
        let mut end = 0;
        for e in &mut ends {
            end += *e;
            *e = end;
        }
        self.sorted.resize(self.valued.len(), 0);
        let mut fill = ends;
        let floor = |v: u16| u64::from(v).max(min_beats);
        let mut beats = 0;
        for &(m, v) in self.valued.iter().rev() {
            fill[m as usize] -= 1;
            self.sorted[fill[m as usize] as usize] = v;
            beats += floor(v);
        }
        // A pair's busiest column is its larger member's, so it saves
        // the smaller member's beats.
        for &(a, b, k, _) in &plan.steps {
            for _ in 0..k {
                ends[a as usize] -= 1;
                ends[b as usize] -= 1;
                let x = self.sorted[ends[a as usize] as usize];
                let y = self.sorted[ends[b as usize] as usize];
                beats -= floor(x).min(floor(y));
            }
        }
        beats
    }

    fn reset(&mut self) {
        self.counts = [0; 256];
        self.present = [0; 4];
        self.len = 0;
        self.valued.clear();
        self.max = 0;
    }
}

/// Class storage for any tile width: entries sorted by `(tag, entry)`,
/// so a class is a contiguous ascending range and complements are found
/// by binary search.
#[derive(Debug, Default)]
pub(crate) struct SortedClasses {
    /// `(tag, entry index)`, sorted by [`TagClasses::plan`].
    entries: Vec<(u128, u32)>,
    /// Busiest window per entry index.
    values: Vec<u16>,
    /// `(tag, lo, hi)` ranges into `entries`; popping shrinks `hi`.
    classes: Vec<(u128, u32, u32)>,
    counts: Vec<u32>,
    max: u16,
}

/// Pops the plan's pairs off the class tails, largest entry first,
/// handing `pair` the two entry indices of each slot.
fn pop_pairs(
    entries: &[(u128, u32)],
    classes: &mut [(u128, u32, u32)],
    plan: &PairPlan,
    mut pair: impl FnMut(u32, u32),
) {
    for &(a, b, k, _) in &plan.steps {
        for _ in 0..k {
            classes[a as usize].2 -= 1;
            classes[b as usize].2 -= 1;
            pair(
                entries[classes[a as usize].2 as usize].1,
                entries[classes[b as usize].2 as usize].1,
            );
        }
    }
}

impl TagClasses for SortedClasses {
    type Tag = u128;

    fn new(_width: usize, capacity: usize) -> Self {
        SortedClasses {
            entries: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
            classes: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            max: 0,
        }
    }

    fn words(&self) -> usize {
        let heap = self.entries.capacity() * size_of::<(u128, u32)>()
            + self.values.capacity() * size_of::<u16>()
            + self.classes.capacity() * size_of::<(u128, u32, u32)>()
            + self.counts.capacity() * size_of::<u32>();
        (size_of::<Self>() + heap).div_ceil(8)
    }

    fn push(&mut self, tag: u128, value: Option<u16>) {
        debug_assert!(tag != 0, "silent-in-tile entries must be filtered out");
        self.entries.push((tag, self.entries.len() as u32));
        if let Some(v) = value {
            self.values.push(v);
            self.max = self.max.max(v);
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn max_value(&self) -> u16 {
        self.max
    }

    fn plan(&mut self, full_mask: u128, plan: &mut PairPlan) {
        self.entries.sort_unstable();
        self.classes.clear();
        for (e, &(tag, _)) in self.entries.iter().enumerate() {
            match self.classes.last_mut() {
                Some(class) if class.0 == tag => class.2 += 1,
                _ => self.classes.push((tag, e as u32, e as u32 + 1)),
            }
        }
        self.counts.clear();
        self.counts
            .extend(self.classes.iter().map(|&(_, lo, hi)| hi - lo));
        plan.build(&self.classes, &mut self.counts, full_mask);
    }

    fn beats(&mut self, plan: &PairPlan, min_beats: u64) -> u64 {
        let floor = |v: u16| u64::from(v).max(min_beats);
        let mut beats = 0;
        pop_pairs(&self.entries, &mut self.classes, plan, |x, y| {
            beats += floor(self.values[x as usize].max(self.values[y as usize]));
        });
        for &(_, lo, hi) in &self.classes {
            for &(_, e) in &self.entries[lo as usize..hi as usize] {
                beats += floor(self.values[e as usize]);
            }
        }
        beats
    }

    fn reset(&mut self) {
        self.entries.clear();
        self.values.clear();
        self.max = 0;
    }
}

/// Packs one column tile.
///
/// `tags[i]` is entry `i`'s tile tag: bit `w` set iff the neuron is
/// active in the tile's `w`-th window. `full_mask` has one bit per
/// window of the tile. Entries whose tag equals `full_mask` behave as
/// bursting for this tile and stay unpacked; zero tags are not
/// schedulable and must be filtered by the caller.
///
/// Slots come out in a fixed order: bursting entries, pass 1's pairs by
/// ascending tag, pass 2's pairs, then the unpaired entries class by
/// class in pass 2's order (`reference::pack_tile_linear`, the original
/// hash-bucketed packer, pins this property-test-exactly).
///
/// # Panics
///
/// Panics if `full_mask` is zero, or any tag is zero or has bits outside
/// `full_mask`.
pub fn pack_tile(tags: &[u128], full_mask: u128) -> PackResult {
    assert!(full_mask != 0, "tile must contain at least one window");
    let mut slots = Vec::with_capacity(tags.len());
    let mut store = SortedClasses::default();
    for (i, &t) in tags.iter().enumerate() {
        assert!(t != 0, "silent-in-tile entries must be filtered out");
        assert!(t & !full_mask == 0, "tag has bits outside the tile");
        if t == full_mask {
            slots.push(Slot {
                first: i,
                second: None,
            });
        } else {
            store.entries.push((t, i as u32));
        }
    }
    let mut plan = PairPlan::default();
    store.plan(full_mask, &mut plan);
    let SortedClasses {
        entries, classes, ..
    } = &mut store;
    pop_pairs(entries, classes, &plan, |x, y| {
        slots.push(Slot {
            first: x.min(y) as usize,
            second: Some(x.max(y) as usize),
        });
    });
    // Whatever remains streams unpacked.
    for c in plan.order() {
        let (_, lo, hi) = classes[c as usize];
        for &(_, e) in &entries[lo as usize..hi as usize] {
            slots.push(Slot {
                first: e as usize,
                second: None,
            });
        }
    }
    let (exact_pairs, near_pairs) = plan.pairs();
    PackResult {
        slots,
        entries_before: tags.len(),
        exact_pairs: exact_pairs as usize,
        near_pairs: near_pairs as usize,
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

/// Packs and prices one tile's stored entries, then empties the storage.
///
/// A slot's beats depend only on its busiest column, and StSAP pairs
/// have *disjoint* tags — in every column at most one member
/// accumulates — so a pair's busiest column is the larger of its
/// members' busiest windows, and a slot costs that floored at
/// `min_beats` (the spike-link delivery time). When no value exceeds the
/// floor (always at `TWS = 1`, where entries carry no value), every slot
/// costs exactly `min_beats` and the plan's counts are the whole answer.
/// Slots, pairs and beats equal those of [`pack_tile`]'s slot list.
pub(crate) fn stream_cost<S: TagClasses>(
    store: &mut S,
    plan: &mut PairPlan,
    full_mask: u128,
    min_beats: u64,
) -> StreamCost {
    store.plan(full_mask, plan);
    let (exact_pairs, near_pairs) = plan.pairs();
    let slots = store.len() as u64 - exact_pairs - near_pairs;
    let beats = if u64::from(store.max_value()) <= min_beats {
        slots * min_beats
    } else {
        store.beats(plan, min_beats)
    };
    store.reset();
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

/// The original hash-bucketed packer, kept verbatim as the behavioral
/// reference for the plan-based one: `pack_tile` must produce identical
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

        /// The pair plan is a pure restructuring of the greedy: for
        /// arbitrary tag populations and tile widths, the packing
        /// output (slot list *in order*, pair counts) is
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

        /// The coster, on both class storages (tag counts for tiles of
        /// at most 8 windows, sorted classes for any width), prices
        /// exactly the slots [`pack_tile`] materializes: same slots and
        /// pairs, and beats summed per slot from the members' busiest
        /// windows (pairs are disjoint, so a pair's busiest column is
        /// the larger member's). Values either range past the floor or
        /// all sit at or under it, where the beats pass is skipped. A
        /// second tile priced on the same storage must agree, so each
        /// call leaves its storage empty.
        #[test]
        fn coster_matches_materialized_slots(
            seed in proptest::any::<u64>(),
            n in 0usize..300,
            w in 0u32..=78,
            min_beats in 1u64..=4,
            valued in 0u8..2,
        ) {
            // Widths 1..=16 and 65..=127.
            let width = if w < 16 { w + 1 } else { w + 49 };
            let full = tile_full_mask(width as usize);
            let mut state = seed ^ 0x0B0C_4E75;
            let mut step = || {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                state
            };
            let mut tags = Vec::with_capacity(n);
            let mut busiest = Vec::with_capacity(n);
            for _ in 0..n {
                let m = ((u128::from(step()) << 64) | u128::from(step())) & full;
                tags.push(if m == 0 { 1 } else { m });
                let cap = if valued == 1 { 7 } else { min_beats };
                busiest.push((step() % cap + 1) as u16);
            }
            let packed = pack_tile(&tags, full);
            let want = StreamCost {
                slots: packed.entries_after() as u64,
                exact_pairs: packed.exact_pairs as u64,
                near_pairs: packed.near_pairs as u64,
                beats: packed
                    .slots
                    .iter()
                    .map(|s| {
                        let b = s.second.map_or(busiest[s.first], |j| busiest[s.first].max(busiest[j]));
                        u64::from(b).max(min_beats)
                    })
                    .sum(),
            };
            // At the floor the second tile pushes no values at all, as
            // the scan does at `TWS = 1`.
            let second = |b: u16| if valued == 1 { Some(b) } else { None };
            fn cost_twice<S: TagClasses>(
                width: u32,
                tags: &[u128],
                busiest: &[u16],
                second: impl Fn(u16) -> Option<u16>,
                (full, min_beats): (u128, u64),
            ) -> [StreamCost; 2] {
                let mut store = S::new(width as usize, 0);
                let mut plan = PairPlan::default();
                [0, 1].map(|call| {
                    for (&t, &b) in tags.iter().zip(busiest) {
                        let tag = S::Tag::try_from(t).ok().unwrap();
                        store.push(tag, if call == 0 { Some(b) } else { second(b) });
                    }
                    stream_cost(&mut store, &mut plan, full, min_beats)
                })
            }
            let tile = (full, min_beats);
            prop_assert_eq!(
                cost_twice::<SortedClasses>(width, &tags, &busiest, second, tile),
                [want; 2]
            );
            if width <= 8 {
                prop_assert_eq!(
                    cost_twice::<NarrowClasses>(width, &tags, &busiest, second, tile),
                    [want; 2]
                );
            }
        }

        /// The fixed-order narrow plan is [`PairPlan::build`] without
        /// the sort: on random class counts at every narrow width (the
        /// full tag present or not), both plans take the same steps in
        /// the same order — so every class pops the same sequence — and
        /// report the same exact and near totals.
        #[test]
        fn narrow_plan_matches_the_sorting_plan(
            seed in proptest::any::<u64>(),
            width in 1usize..=8,
            sparsity in 1u64..=4,
        ) {
            let full = tile_full_mask(width);
            let mut state = seed ^ 0x9A11_0C8E;
            let mut counts = [0u32; 256];
            let mut present = [0u64; 4];
            for m in 1..=full as usize {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                if (state >> 40) % sparsity == 0 {
                    counts[m] = (state >> 20) as u32 % 6 + 1;
                    present[m / 64] |= 1 << (m % 64);
                }
            }
            let classes: Vec<(u128, u32, u32)> = (1..=full as usize)
                .filter(|&m| counts[m] > 0)
                .map(|m| (m as u128, 0, counts[m]))
                .collect();
            let mut sorted_counts: Vec<u32> = classes.iter().map(|c| c.2).collect();
            let mut sorting = PairPlan::default();
            sorting.build(&classes, &mut sorted_counts, full);
            let mut narrow = PairPlan::default();
            narrow.build_narrow(&mut counts, present, full);
            let as_tags: Vec<_> = sorting
                .steps
                .iter()
                .map(|&(a, b, k, exact)| {
                    (classes[a as usize].0 as u32, classes[b as usize].0 as u32, k, exact)
                })
                .collect();
            prop_assert_eq!(&narrow.steps, &as_tags);
            prop_assert_eq!(narrow.pairs(), sorting.pairs());
            for (c, &(tag, _, _)) in classes.iter().enumerate() {
                prop_assert_eq!(counts[tag as usize], sorted_counts[c], "tag {:#b} left", tag);
            }
        }

        /// The counting-sort coster prices every narrow tile exactly as
        /// [`stream_cost`] over [`SortedClasses`] does, on random entry
        /// lists with values (past the floor) and without.
        #[test]
        fn counting_sort_coster_matches_sorted_classes(
            seed in proptest::any::<u64>(),
            n in 0usize..400,
            width in 1usize..=8,
            min_beats in 1u64..=4,
            valued in proptest::any::<bool>(),
        ) {
            let full = tile_full_mask(width);
            let mut state = seed ^ 0xC057_50F7;
            let mut step = || {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                state >> 16
            };
            let entries: Vec<(u128, Option<u16>)> = (0..n)
                .map(|_| {
                    let m = u128::from(step()) & full;
                    let v = (step() % 9 + 1) as u16;
                    (if m == 0 { 1 } else { m }, valued.then_some(v))
                })
                .collect();
            fn cost<S: TagClasses>(entries: &[(u128, Option<u16>)], full: u128, floor: u64) -> StreamCost {
                let mut store = S::new(8, 0);
                for &(tag, value) in entries {
                    store.push(S::Tag::try_from(tag).ok().unwrap(), value);
                }
                stream_cost(&mut store, &mut PairPlan::default(), full, floor)
            }
            prop_assert_eq!(
                cost::<NarrowClasses>(&entries, full, min_beats),
                cost::<SortedClasses>(&entries, full, min_beats)
            );
        }

        /// Same equivalence on wide (u128) tiles, where classes are
        /// sparse.
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
