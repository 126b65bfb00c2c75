//! Beat-accurate pipeline timing: an explicit simulation of the skewed
//! systolic wavefront that [`ArrayDims::cycles`] summarizes.
//!
//! The layer simulator in `ptb-accel` books every array iteration as
//! `Σ slot beats + rows + cols − 2` cycles, where a slot's beats are
//! its busiest column's accumulate count (floored at the spike-link
//! beats). This module *plays that schedule out*: entries advance
//! through the array one hop per beat, each PE processes its slot for
//! that slot's local work, and neighbours stall in lockstep when a slot
//! needs more than one beat. It is the reference the formula is checked
//! against: the tests prove the played-out total equals it on random
//! geometries and slot lists.

use crate::array::ArrayDims;

/// Work description of one streaming slot: how many accumulate beats
/// each column's PE must spend on it (already `max`-ed with the
/// spike-link minimum by the caller).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotWork {
    /// Per-column busy beats for this slot (length = array columns).
    pub col_beats: Vec<u64>,
}

impl SlotWork {
    /// The lockstep stall this slot imposes on the wavefront: its
    /// busiest column, and at least one beat.
    pub fn stall(&self) -> u64 {
        self.col_beats.iter().copied().max().unwrap_or(0).max(1)
    }
}

/// Plays an iteration's slot stream through a `dims` array, beat by
/// beat, with lockstep stalls, and returns the beat at which the last
/// PE finishes its last slot: the wavefront advances only when every
/// PE on it has finished its current slot.
///
/// Timing model: slot `k` reaches PE `(r, c)` after `r + c` hops plus
/// the cumulative stalls of slots `0..k`; the PE then works on it for
/// the slot's own column-`c` beats, but cannot hand it on before the
/// *global* stall of the slot elapses (lockstep — the systolic fabric
/// has no elastic buffering).
///
/// # Panics
///
/// Panics if a slot does not cover every column.
pub fn play_iteration(dims: ArrayDims, slots: &[SlotWork]) -> u64 {
    let (rows, cols) = (u64::from(dims.rows()), u64::from(dims.cols()));
    // Injection beat of slot k at the array edge: the sum of the global
    // stalls of everything before it.
    let mut injection = 0u64;
    let mut finish = 0u64;
    for slot in slots {
        assert_eq!(
            slot.col_beats.len() as u64,
            cols,
            "slot work must cover every column"
        );
        let stall = slot.stall();
        // Last PE to see this slot is (rows-1, cols-1): it receives it
        // `rows-1 + cols-1` hops after injection and holds it `stall`
        // beats (its own work may be shorter; the fabric is lockstep).
        finish = finish.max(injection + (rows - 1) + (cols - 1) + stall);
        injection += stall;
    }
    finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{StreamEntry, SystolicEngine};
    use proptest::prelude::*;

    #[test]
    fn empty_stream_takes_no_time() {
        assert_eq!(play_iteration(ArrayDims::new(4, 4), &[]), 0);
    }

    #[test]
    fn single_unit_slot_is_pure_fill() {
        let dims = ArrayDims::new(4, 6);
        let slot = SlotWork {
            col_beats: vec![1; 6],
        };
        // 1 stall + (4-1) + (6-1) hops = 9 = fill + 1.
        assert_eq!(play_iteration(dims, &[slot]), dims.fill_cycles() + 1);
    }

    #[test]
    #[should_panic]
    fn wrong_column_count_panics() {
        play_iteration(
            ArrayDims::new(2, 3),
            &[SlotWork {
                col_beats: vec![1, 1],
            }],
        );
    }

    #[test]
    fn stall_is_at_least_one_beat() {
        let s = SlotWork {
            col_beats: vec![0, 0],
        };
        assert_eq!(s.stall(), 1, "a slot always occupies the wavefront");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The formula the simulator books, `ArrayDims::cycles` of the
        /// slots' stalls in one iteration, is the played-out schedule
        /// on any geometry and any slot list (empty, all-zero columns,
        /// uneven columns), and the functional engine's cycles are
        /// that formula of `k · tw` beats: `k` uniform `tw`-beat slots
        /// played out.
        #[test]
        fn played_iteration_matches_the_formula(
            rows in 1u32..=16,
            cols in 1u32..=16,
            seed in any::<u64>(),
            k in 0usize..40,
            tw in 1u32..=8,
        ) {
            let dims = ArrayDims::new(rows, cols);
            let mut state = seed;
            let mut step = || {
                state = state
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                state >> 33
            };
            // A quarter of the slots leave every column idle; the rest
            // draw each column's beats from 0..=12.
            let slots: Vec<SlotWork> = (0..k)
                .map(|_| {
                    let idle = step() % 4 == 0;
                    let col_beats = (0..cols)
                        .map(|_| if idle { 0 } else { step() % 13 })
                        .collect();
                    SlotWork { col_beats }
                })
                .collect();
            let beats: u64 = slots.iter().map(SlotWork::stall).sum();
            prop_assert_eq!(
                play_iteration(dims, &slots),
                dims.cycles(beats, u64::from(k > 0))
            );

            let engine = SystolicEngine::new(dims, tw);
            let entry = StreamEntry::single(vec![1.0; rows as usize], vec![1; cols as usize]);
            let run = engine.run(&vec![entry; k]);
            let uniform = SlotWork {
                col_beats: vec![u64::from(tw); cols as usize],
            };
            let (k, tw) = (k as u64, u64::from(tw));
            prop_assert_eq!(run.cycles, dims.cycles(k * tw, u64::from(k > 0)));
            prop_assert_eq!(run.cycles, play_iteration(dims, &vec![uniform; k as usize]));
        }
    }
}
