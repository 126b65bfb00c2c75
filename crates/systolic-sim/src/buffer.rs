//! Double-buffer timeline: when is "stall-free" actually stall-free?
//!
//! The paper assumes double-buffered memories hide data movement behind
//! compute ("the latency per array iteration is estimated with the
//! worst delay between data access and array computation", §V-B). This
//! module makes that statement executable: given each iteration's
//! compute cycles and its fill volume, it plays the classic two-buffer
//! pipeline out — iteration `k` computes from the working buffer while
//! iteration `k+1`'s data streams into the loading buffer — and reports
//! the realized makespan and stall cycles. The analytic simulator's
//! `max(compute, traffic/bandwidth)` layer bound is validated against
//! this timeline in the tests.

use serde::{Deserialize, Serialize};

/// One iteration's demands on the buffer pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationDemand {
    /// Array compute cycles for this iteration.
    pub compute_cycles: u64,
    /// Bytes that must be staged before the *next* use of the loading
    /// buffer can swap in.
    pub fill_bytes: u64,
}

/// Result of playing an iteration stream through the double buffer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferTimeline {
    /// Total cycles from first fill to last compute.
    pub makespan: u64,
    /// Cycles the array sat idle waiting for data.
    pub stall_cycles: u64,
    /// Cycles the memory system sat idle (compute-bound phases).
    pub idle_fill_cycles: u64,
}

impl BufferTimeline {
    /// True when the run met the paper's stall-free assumption.
    pub fn is_stall_free(&self) -> bool {
        self.stall_cycles == 0
    }
}

/// Plays the stream: the first iteration's fill is exposed (cold
/// start); afterwards iteration `k+1` fills while `k` computes, and the
/// array stalls only when a fill outlasts the preceding compute.
///
/// `bytes_per_cycle` is the staging bandwidth (DRAM or the level above).
///
/// # Panics
///
/// Panics if `bytes_per_cycle` is not positive and finite.
pub fn play(demands: &[IterationDemand], bytes_per_cycle: f64) -> BufferTimeline {
    assert!(
        bytes_per_cycle > 0.0 && bytes_per_cycle.is_finite(),
        "bandwidth must be positive"
    );
    let fill_cycles = |bytes: u64| -> u64 { (bytes as f64 / bytes_per_cycle).ceil() as u64 };
    let mut makespan = 0u64;
    let mut stall = 0u64;
    let mut idle_fill = 0u64;
    let mut pending_fill = match demands.first() {
        Some(d) => fill_cycles(d.fill_bytes),
        None => {
            return BufferTimeline {
                makespan: 0,
                stall_cycles: 0,
                idle_fill_cycles: 0,
            }
        }
    };
    // Cold start: the first fill is fully exposed.
    makespan += pending_fill;
    for (k, d) in demands.iter().enumerate() {
        let _ = pending_fill;
        // Compute iteration k while filling k+1.
        let next_fill = demands.get(k + 1).map_or(0, |n| fill_cycles(n.fill_bytes));
        let phase = d.compute_cycles.max(next_fill);
        if next_fill > d.compute_cycles {
            stall += next_fill - d.compute_cycles;
        } else {
            idle_fill += d.compute_cycles - next_fill;
        }
        makespan += phase;
        pending_fill = next_fill;
    }
    BufferTimeline {
        makespan,
        stall_cycles: stall,
        idle_fill_cycles: idle_fill,
    }
}

/// The aggregate bound `max(Σ compute, Σ fill)` over `demands`, each
/// fill rounded up to whole cycles at `bytes_per_cycle`: a lower bound
/// on [`play`]'s makespan, which a two-buffer pipeline cannot beat
/// because it cannot borrow slack across iterations
/// (`analytic_bound_brackets_the_played_timeline`). It adds no
/// cold-start fill.
pub fn analytic_bound(demands: &[IterationDemand], bytes_per_cycle: f64) -> u64 {
    let compute: u64 = demands.iter().map(|d| d.compute_cycles).sum();
    let fill: u64 = demands
        .iter()
        .map(|d| (d.fill_bytes as f64 / bytes_per_cycle).ceil() as u64)
        .sum();
    compute.max(fill)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(compute: u64, bytes: u64) -> IterationDemand {
        IterationDemand {
            compute_cycles: compute,
            fill_bytes: bytes,
        }
    }

    #[test]
    fn empty_stream_is_free() {
        let t = play(&[], 8.0);
        assert_eq!(t.makespan, 0);
        assert!(t.is_stall_free());
    }

    #[test]
    fn compute_bound_stream_is_stall_free() {
        // Fills of 80 bytes at 8 B/cycle = 10 cycles, hidden under 100
        // cycles of compute.
        let demands = vec![demand(100, 80); 10];
        let t = play(&demands, 8.0);
        assert!(t.is_stall_free());
        // Cold-start fill + 10 compute phases.
        assert_eq!(t.makespan, 10 + 10 * 100);
        assert!(t.idle_fill_cycles > 0, "memory idles when compute-bound");
    }

    #[test]
    fn memory_bound_stream_stalls() {
        // 800-byte fills (100 cycles) over 10-cycle computes.
        let demands = vec![demand(10, 800); 10];
        let t = play(&demands, 8.0);
        assert!(!t.is_stall_free());
        // Every steady-state phase is fill-limited.
        assert_eq!(t.makespan, 100 + 9 * 100 + 10);
        assert_eq!(t.stall_cycles, 9 * 90);
    }

    #[test]
    fn analytic_bound_brackets_the_played_timeline() {
        // The analytic `max(Σ compute, Σ fill)` bound assumes slack can
        // be borrowed across iterations (deep buffering). A two-buffer
        // pipeline cannot, so for alternating imbalance the played
        // makespan sits BETWEEN the aggregate bound and the fully
        // serialized `Σ compute + Σ fill`. Both inequalities must hold.
        let demands: Vec<IterationDemand> = (0..50)
            .map(|k| demand(20 + (k % 7) * 5, 64 + (k % 11) * 40))
            .collect();
        let bw = 8.0;
        let played = play(&demands, bw);
        let bound = analytic_bound(&demands, bw);
        let serial: u64 = demands
            .iter()
            .map(|d| d.compute_cycles + (d.fill_bytes as f64 / bw).ceil() as u64)
            .sum();
        assert!(played.makespan >= bound, "{} < {bound}", played.makespan);
        assert!(played.makespan <= serial, "{} > {serial}", played.makespan);
    }

    #[test]
    fn uniform_stream_meets_the_analytic_bound_exactly() {
        // With uniform iterations there is no cross-phase slack to lose:
        // the played makespan equals the bound plus the exposed cold
        // start and drain.
        let demands = vec![demand(100, 80); 20]; // fill = 10 cycles each
        let bw = 8.0;
        let played = play(&demands, bw);
        let bound = analytic_bound(&demands, bw);
        assert_eq!(played.makespan, bound + 10); // + cold-start fill
    }

    #[test]
    fn balanced_stream_has_minimal_slack() {
        // compute == fill exactly: perfectly overlapped.
        let demands = vec![demand(50, 400); 8];
        let t = play(&demands, 8.0);
        assert!(t.is_stall_free());
        assert_eq!(t.idle_fill_cycles, 50, "only the drain phase idles");
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        play(&[demand(1, 1)], 0.0);
    }
}
