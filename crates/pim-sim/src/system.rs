//! Multi-DPU system model: CPU-mediated transfers and round-structured
//! orchestration across up to 2560 DPUs.
//!
//! Two facts about the UPMEM system shape this module (§2.1/§3.1 of the
//! paper):
//!
//! * DPUs cannot talk to each other; all inter-DPU communication is staged
//!   through the host CPU, and a CPU-mediated read of a single 64-bit word
//!   costs ≈ 331 µs versus ≈ 231 ns for a local MRAM read.
//! * The CPU can only move data while the target DPU is idle, so computation
//!   and communication never overlap; a multi-DPU application alternates
//!   *rounds* of DPU compute with host-side transfer + merge work.
//!
//! The multi-DPU benchmarks of §4.3 follow exactly that round structure
//! (KMeans: scatter points / compute / gather centroids / merge; Labyrinth:
//! scatter independent problem instances / compute / gather grids), which is
//! what [`MultiDpuPlan`] models.

/// Cost model of host↔DPU data movement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTransferModel {
    /// Latency of a CPU-mediated single-word (64-bit) read from a DPU's MRAM,
    /// in seconds. The paper measures 331 µs.
    pub mediated_word_latency_s: f64,
    /// Aggregate host↔PIM DIMM copy bandwidth in bytes/second for bulk,
    /// rank-parallel transfers.
    pub bulk_bandwidth_bytes_per_s: f64,
    /// Fixed software overhead per bulk transfer call (librarary + driver), in
    /// seconds.
    pub bulk_overhead_s: f64,
    /// Latency of a local (same-DPU) MRAM 64-bit read, in seconds, used for
    /// the local-vs-mediated comparison (paper: 231 ns).
    pub local_word_latency_s: f64,
}

impl Default for CpuTransferModel {
    fn default() -> Self {
        CpuTransferModel {
            mediated_word_latency_s: 331e-6,
            bulk_bandwidth_bytes_per_s: 6.0e9,
            bulk_overhead_s: 30e-6,
            local_word_latency_s: 231e-9,
        }
    }
}

impl CpuTransferModel {
    /// Seconds to read `words` individual 64-bit words from remote DPUs via
    /// the CPU (no batching).
    pub fn mediated_read_seconds(&self, words: u64) -> f64 {
        self.mediated_word_latency_s * words as f64
    }

    /// Seconds to move `bytes` between the host and the PIM DIMMs as one bulk
    /// transfer (parallel across ranks, bandwidth-bound).
    pub fn bulk_transfer_seconds(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.bulk_overhead_s + bytes as f64 / self.bulk_bandwidth_bytes_per_s
        }
    }
}

/// One compute round of a multi-DPU application.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundPlan {
    /// Seconds of DPU compute in this round (the slowest DPU; DPUs execute in
    /// parallel).
    pub dpu_compute_seconds: f64,
    /// Bytes scattered from the host to all DPUs before the round.
    pub bytes_to_dpus: u64,
    /// Bytes gathered from all DPUs to the host after the round.
    pub bytes_from_dpus: u64,
    /// Host-side routing / batch-preparation work *before* the round, in
    /// seconds. Together with the scatter of `bytes_to_dpus` this is the
    /// round's pre-work — the part a double-buffered pipeline can hide
    /// under the previous round's DPU compute.
    pub cpu_route_seconds: f64,
    /// Host-side merge / scheduling work after the round, in seconds.
    pub cpu_merge_seconds: f64,
    /// Whether a pipelined execution may prepare this round's pre-work
    /// (scatter + routing) while the *previous* round computes. False when
    /// this round's inputs depend on the previous round's outputs (e.g. a
    /// re-dispatch after a probe rejection, or a repartitioning between
    /// the rounds). The first round is never overlappable — there is
    /// nothing to hide it under — regardless of this flag.
    pub overlappable: bool,
}

/// A round-structured multi-DPU execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDpuPlan {
    /// Number of DPUs used.
    pub n_dpus: usize,
    /// The rounds executed in sequence.
    pub rounds: Vec<RoundPlan>,
}

impl MultiDpuPlan {
    /// Creates a plan over `n_dpus` DPUs with no rounds yet.
    pub fn new(n_dpus: usize) -> Self {
        MultiDpuPlan { n_dpus, rounds: Vec::new() }
    }

    /// Appends a round.
    pub fn push_round(&mut self, round: RoundPlan) -> &mut Self {
        self.rounds.push(round);
        self
    }

    /// Executes the plan against a transfer model, producing per-component
    /// timings. DPU compute and host work never overlap (a UPMEM
    /// restriction on any *one* DPU), so components simply add up.
    pub fn execute(&self, transfer: &CpuTransferModel) -> MultiDpuReport {
        let mut report = MultiDpuReport { n_dpus: self.n_dpus, ..MultiDpuReport::default() };
        for round in &self.rounds {
            report.dpu_compute_seconds += round.dpu_compute_seconds;
            report.transfer_seconds += transfer.bulk_transfer_seconds(round.bytes_to_dpus)
                + transfer.bulk_transfer_seconds(round.bytes_from_dpus);
            report.cpu_seconds += round.cpu_route_seconds + round.cpu_merge_seconds;
            report.rounds += 1;
        }
        report
    }

    /// Executes the plan with a double-buffered round pipeline: while round
    /// `k` computes on the DPUs, the host prepares round `k+1` (routing +
    /// scatter), so an [`RoundPlan::overlappable`] round `k` only *exposes*
    ///
    /// ```text
    /// exposed_pre_k = max(0, pre_k - compute_{k-1})
    /// pre_k         = bulk(bytes_to_dpus_k) + cpu_route_seconds_k
    /// ```
    ///
    /// on the critical path; the rest — `hidden_k = min(pre_k,
    /// compute_{k-1})` — is accounted in
    /// [`MultiDpuReport::hidden_seconds`] and subtracted from
    /// [`MultiDpuReport::total_seconds`]. Equivalently, per round the
    /// model charges `max(compute_{k-1}, pre_k)` instead of their sum.
    /// Post-round work (gather + merge) still follows the barrier, and a
    /// non-overlappable round pays its pre-work in full. With every round
    /// non-overlappable this reduces exactly to [`MultiDpuPlan::execute`].
    pub fn execute_pipelined(&self, transfer: &CpuTransferModel) -> MultiDpuReport {
        let mut report = self.execute(transfer);
        let mut prev_compute = 0.0f64;
        for (k, round) in self.rounds.iter().enumerate() {
            let pre = transfer.bulk_transfer_seconds(round.bytes_to_dpus) + round.cpu_route_seconds;
            if k > 0 && round.overlappable {
                report.hidden_seconds += pre.min(prev_compute);
            }
            prev_compute = round.dpu_compute_seconds;
        }
        report
    }
}

/// Timing result of executing a [`MultiDpuPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultiDpuReport {
    /// Number of DPUs used.
    pub n_dpus: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Seconds the DPUs spent computing (critical path over rounds).
    pub dpu_compute_seconds: f64,
    /// Seconds spent moving data between host and DPUs.
    pub transfer_seconds: f64,
    /// Seconds of host-side routing/merge/scheduling work.
    pub cpu_seconds: f64,
    /// Pre-round transfer + routing seconds hidden under the previous
    /// round's DPU compute by the double-buffered pipeline
    /// ([`MultiDpuPlan::execute_pipelined`]); `0.0` for a serial
    /// execution.
    pub hidden_seconds: f64,
}

impl MultiDpuReport {
    /// End-to-end execution time in seconds: every component, minus the
    /// pre-work the pipeline hid under DPU compute.
    pub fn total_seconds(&self) -> f64 {
        self.dpu_compute_seconds + self.transfer_seconds + self.cpu_seconds - self.hidden_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mediated_read_is_three_orders_slower_than_local() {
        let t = CpuTransferModel::default();
        // The paper: 331 µs against 231 ns, about 1433×.
        let ratio = t.mediated_word_latency_s / t.local_word_latency_s;
        assert!((1000.0..2000.0).contains(&ratio), "ratio {ratio} not ~1433x");
        assert!((t.mediated_read_seconds(10) - 3.31e-3).abs() < 1e-9);
    }

    #[test]
    fn bulk_transfer_scales_with_bytes_and_has_overhead() {
        let t = CpuTransferModel::default();
        assert_eq!(t.bulk_transfer_seconds(0), 0.0);
        let small = t.bulk_transfer_seconds(8);
        let large = t.bulk_transfer_seconds(64 * 1024 * 1024);
        assert!(small >= t.bulk_overhead_s);
        assert!(large > 10.0 * small);
    }

    #[test]
    fn plan_accumulates_rounds() {
        let mut plan = MultiDpuPlan::new(128);
        for _ in 0..3 {
            plan.push_round(RoundPlan {
                dpu_compute_seconds: 0.5,
                bytes_to_dpus: 1 << 20,
                bytes_from_dpus: 1 << 16,
                cpu_merge_seconds: 0.01,
                ..RoundPlan::default()
            });
        }
        let report = plan.execute(&CpuTransferModel::default());
        assert_eq!(report.rounds, 3);
        assert_eq!(report.n_dpus, 128);
        assert!((report.dpu_compute_seconds - 1.5).abs() < 1e-12);
        assert!((report.cpu_seconds - 0.03).abs() < 1e-12);
        assert!(report.transfer_seconds > 0.0);
        assert_eq!(report.hidden_seconds, 0.0, "serial execution hides nothing");
        assert!(report.total_seconds() > 1.53);
    }

    #[test]
    fn pipelined_execution_hides_overlappable_prework() {
        let transfer = CpuTransferModel::default();
        let mut plan = MultiDpuPlan::new(8);
        for _ in 0..4 {
            plan.push_round(RoundPlan {
                dpu_compute_seconds: 0.5,
                bytes_to_dpus: 1 << 20,
                bytes_from_dpus: 1 << 10,
                cpu_route_seconds: 1e-4,
                cpu_merge_seconds: 1e-5,
                overlappable: true,
            });
        }
        let serial = plan.execute(&transfer);
        let pipelined = plan.execute_pipelined(&transfer);
        // Rounds 1..3 hide their whole pre-work (it is far smaller than
        // 0.5 s of compute); round 0 has nothing to hide under.
        let pre = transfer.bulk_transfer_seconds(1 << 20) + 1e-4;
        assert!((pipelined.hidden_seconds - 3.0 * pre).abs() < 1e-12);
        assert!((serial.total_seconds() - pipelined.total_seconds() - 3.0 * pre).abs() < 1e-12);
        // Pre-work larger than the compute window only hides the window.
        let mut long = MultiDpuPlan::new(8);
        for _ in 0..2 {
            long.push_round(RoundPlan {
                dpu_compute_seconds: 1e-6,
                bytes_to_dpus: 1 << 26,
                bytes_from_dpus: 0,
                overlappable: true,
                ..RoundPlan::default()
            });
        }
        let report = long.execute_pipelined(&transfer);
        assert!((report.hidden_seconds - 1e-6).abs() < 1e-15, "capped by the compute window");
        // Non-overlappable rounds reduce the pipeline to the serial sum.
        for round in &mut plan.rounds {
            round.overlappable = false;
        }
        let stalled = plan.execute_pipelined(&transfer);
        assert_eq!(stalled.hidden_seconds, 0.0);
        assert!((stalled.total_seconds() - serial.total_seconds()).abs() < 1e-15);
    }
}
