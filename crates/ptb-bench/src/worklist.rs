//! One level of parallelism: a claim-until-dry list of
//! (TW point, layer) items.
//!
//! A sweep's work is every layer of every TW point. Layers of one
//! point are independent simulations, and so are points, so the list
//! hands out single (point, layer) items from one atomic counter.
//! Any number of threads can drain it, and the caller's own thread
//! counts as one: a list drained by one thread is the plain serial
//! loop, points in order and layers in spec order. Items are claimed
//! point-major, so early points finish first.
//!
//! Each point gathers its layers' outputs in a slot. Whichever thread
//! completes a point's last layer gets the outputs back in layer order
//! ([`WorkList::complete`]) and assembles the point, so what a point
//! produces never depends on which thread ran which layer.
//!
//! The offline harness drains a list on a scoped pool
//! ([`crate::harness::sweep_reports`]); the `ptb-serve` daemon drains
//! it on its own worker pool, one item at a time per claimer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::sync::lock_recover;

/// One claimed item: layer `layer` of the sweep point `point` (an index
/// into the sweep's TW list).
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Index of the item's TW point in the sweep.
    pub point: usize,
    /// Index of the item's layer in the network spec.
    pub layer: usize,
    /// Position of the point in the list's claim order.
    slot: usize,
}

/// A point's gathered layer outputs and how many are still missing.
#[derive(Debug)]
struct Slot<T> {
    left: AtomicUsize,
    outs: Mutex<Vec<Option<T>>>,
}

/// The claim-until-dry list of (point, layer) items; `T` is what one
/// item produces.
#[derive(Debug)]
pub struct WorkList<T> {
    layers: usize,
    /// Point indices in claim order.
    points: Vec<usize>,
    /// Next unclaimed item; item `k` is layer `k % layers` of
    /// `points[k / layers]`.
    next: AtomicUsize,
    slots: Vec<Slot<T>>,
}

impl<T> WorkList<T> {
    /// A list over `layers` layers of each point in `points`, claimed in
    /// that order.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero: a point with no layers could never
    /// complete.
    pub fn new(layers: usize, points: Vec<usize>) -> Self {
        assert!(layers > 0, "a sweep point needs at least one layer");
        let slots = points
            .iter()
            .map(|_| Slot {
                left: AtomicUsize::new(layers),
                outs: Mutex::new((0..layers).map(|_| None).collect()),
            })
            .collect();
        WorkList {
            layers,
            points,
            next: AtomicUsize::new(0),
            slots,
        }
    }

    fn items(&self) -> usize {
        self.points.len() * self.layers
    }

    /// Claims the next item, or `None` once the list is dry. Each item
    /// is handed out exactly once.
    pub fn claim(&self) -> Option<Item> {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        (k < self.items()).then(|| Item {
            point: self.points[k / self.layers],
            layer: k % self.layers,
            slot: k / self.layers,
        })
    }

    /// Items not yet claimed.
    pub fn unclaimed(&self) -> usize {
        self.items()
            .saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Records `out` as `item`'s output. When it was the last missing
    /// layer of its point, returns the point's outputs in layer order;
    /// exactly one completion per point does.
    pub fn complete(&self, item: Item, out: T) -> Option<Vec<T>> {
        let slot = &self.slots[item.slot];
        let mut outs = lock_recover(&slot.outs);
        outs[item.layer] = Some(out);
        if slot.left.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        Some(
            outs.iter_mut()
                .map(|o| {
                    o.take()
                        .expect("every layer of a finished point has an output")
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `list` on `threads` threads, recording each finished
    /// point's outputs.
    fn drain(list: &WorkList<(usize, usize)>, threads: usize) -> Vec<(usize, Vec<(usize, usize)>)> {
        let done = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    while let Some(item) = list.claim() {
                        if let Some(outs) = list.complete(item, (item.point, item.layer)) {
                            lock_recover(&done).push((item.point, outs));
                        }
                    }
                });
            }
        });
        let mut done = done.into_inner().unwrap();
        done.sort();
        done
    }

    #[test]
    fn every_point_finishes_once_with_layers_in_order_for_any_drainer_count() {
        for threads in [1, 2, 3, 8] {
            let list = WorkList::new(4, vec![2, 0, 5]);
            assert_eq!(list.unclaimed(), 12);
            let done = drain(&list, threads);
            assert_eq!(list.unclaimed(), 0);
            assert_eq!(done.len(), 3, "{threads} threads");
            for (point, outs) in done {
                let expected: Vec<_> = (0..4).map(|layer| (point, layer)).collect();
                assert_eq!(outs, expected, "{threads} threads");
            }
        }
    }

    #[test]
    fn claims_run_point_major_in_the_given_order() {
        let list = WorkList::<()>::new(2, vec![3, 1]);
        let order: Vec<_> = std::iter::from_fn(|| list.claim())
            .map(|i| (i.point, i.layer))
            .collect();
        assert_eq!(order, [(3, 0), (3, 1), (1, 0), (1, 1)]);
        assert!(list.claim().is_none(), "a dry list stays dry");
        assert_eq!(list.unclaimed(), 0);
    }
}
