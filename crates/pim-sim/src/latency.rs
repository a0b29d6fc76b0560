//! The DPU timing model.
//!
//! The constants here were chosen so that the *relative* costs that drive the
//! paper's conclusions hold:
//!
//! * a WRAM access is an ordinary pipeline instruction;
//! * a single-word MRAM access costs ≈ 231 ns (the paper's measured local
//!   MRAM read latency) — with a 350 MHz clock that is ~81 cycles;
//! * the pipeline has an effective depth of 11, so per-tasklet instruction
//!   throughput is constant for 1–11 tasklets (linear DPU scaling) and the
//!   issue rate is shared beyond 11;
//! * the MRAM DMA port is a single shared resource, so memory-bound
//!   workloads (Labyrinth) stop scaling well before 11 tasklets.

use crate::mem::Tier;

/// Virtual time unit of the simulator: DPU clock cycles.
pub type Cycles = u64;

/// Latency/bandwidth parameters of one DPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// DPU clock frequency in Hz (UPMEM DPUs run at 350–450 MHz).
    pub clock_hz: u64,
    /// Effective pipeline depth: a tasklet can have one instruction in
    /// flight, so each instruction occupies the tasklet for this many cycles.
    /// DPU throughput therefore scales linearly up to this many tasklets.
    pub pipeline_depth: u64,
    /// Fixed cost of issuing an MRAM DMA transfer (row activation, command
    /// latency), in cycles.
    pub mram_setup_cycles: u64,
    /// Additional streaming cost per 64-bit word transferred to/from MRAM.
    pub mram_word_cycles: u64,
    /// Cost of an acquire/release on the hardware atomic bit register. The
    /// register is on-core (no WRAM/MRAM access), so this is a single
    /// instruction slot.
    pub atomic_op_instructions: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            clock_hz: 350_000_000,
            pipeline_depth: 11,
            mram_setup_cycles: 64,
            mram_word_cycles: 16,
            atomic_op_instructions: 1,
        }
    }
}

impl LatencyModel {
    /// Cycles a single instruction occupies its tasklet, given the number of
    /// tasklets currently competing for the issue stage.
    ///
    /// For `active_tasklets <= pipeline_depth` the revolver scheduler hides
    /// the other tasklets entirely, so the cost is `pipeline_depth`. Beyond
    /// that, issue slots are shared round-robin and each tasklet only gets a
    /// slot every `active_tasklets` cycles.
    #[inline]
    pub fn instruction_cycles(&self, active_tasklets: usize) -> Cycles {
        self.pipeline_depth.max(active_tasklets as u64)
    }

    /// Pure DMA latency (excluding the issuing instruction and excluding port
    /// queueing) of transferring `words` 64-bit words between MRAM and WRAM.
    #[inline]
    pub fn mram_transfer_cycles(&self, words: u32) -> Cycles {
        self.mram_setup_cycles + self.mram_word_cycles * u64::from(words.max(1))
    }

    /// Cost of a single-word access to `tier`, excluding port queueing.
    /// Returns `(instruction_cycles, dma_cycles)`.
    pub fn word_access_cycles(&self, tier: Tier, active_tasklets: usize) -> (Cycles, Cycles) {
        match tier {
            Tier::Wram => (self.instruction_cycles(active_tasklets), 0),
            Tier::Mram => (self.instruction_cycles(active_tasklets), self.mram_transfer_cycles(1)),
        }
    }

    /// Converts a cycle count into seconds using the DPU clock.
    pub fn cycles_to_seconds(&self, cycles: Cycles) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }

    /// Converts seconds into cycles (rounding up), useful for modelling fixed
    /// host-side latencies inside DPU timelines.
    pub fn seconds_to_cycles(&self, seconds: f64) -> Cycles {
        (seconds * self.clock_hz as f64).ceil() as Cycles
    }

    /// The latency, in seconds, of a single-word MRAM read issued by one
    /// tasklet on an otherwise idle DPU. The paper reports 231 ns.
    pub fn local_mram_read_seconds(&self) -> f64 {
        let cycles = self.instruction_cycles(1) + self.mram_transfer_cycles(1);
        self.cycles_to_seconds(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_local_read_latency() {
        let m = LatencyModel::default();
        let ns = m.local_mram_read_seconds() * 1e9;
        // Paper: 231 ns. Accept a modest modelling tolerance.
        assert!((200.0..280.0).contains(&ns), "local MRAM read latency {ns} ns out of range");
    }

    #[test]
    fn instruction_cost_is_flat_up_to_pipeline_depth() {
        let m = LatencyModel::default();
        assert_eq!(m.instruction_cycles(1), 11);
        assert_eq!(m.instruction_cycles(11), 11);
        assert_eq!(m.instruction_cycles(16), 16);
        assert_eq!(m.instruction_cycles(24), 24);
    }

    #[test]
    fn wram_access_has_no_dma_component() {
        let m = LatencyModel::default();
        let (instr, dma) = m.word_access_cycles(Tier::Wram, 4);
        assert_eq!(dma, 0);
        assert_eq!(instr, 11);
        let (_, dma_mram) = m.word_access_cycles(Tier::Mram, 4);
        assert!(dma_mram > 0);
    }

    #[test]
    fn cycle_second_roundtrip() {
        let m = LatencyModel::default();
        let s = m.cycles_to_seconds(350_000_000);
        assert!((s - 1.0).abs() < 1e-9);
        assert_eq!(m.seconds_to_cycles(1.0), 350_000_000);
    }

    #[test]
    fn bulk_transfer_scales_with_words() {
        let m = LatencyModel::default();
        assert!(m.mram_transfer_cycles(64) > m.mram_transfer_cycles(1));
        // Zero-word transfers still pay the setup cost for at least one word.
        assert_eq!(m.mram_transfer_cycles(0), m.mram_transfer_cycles(1));
    }
}
