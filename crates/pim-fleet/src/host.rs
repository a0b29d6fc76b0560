//! The host↔DPU communication primitives and their cost accounting.
//!
//! The fleet host moves data with three SimplePIM-style primitives, each
//! charged against the same [`CpuTransferModel`] the analytic multi-DPU
//! plan uses (one source of truth for transfer cost):
//!
//! * [`TransferLedger::broadcast`] — one buffer replicated to every DPU.
//!   The buffer crosses the host bus **once** (the rank hardware fans it
//!   out), so the charge is one bulk transfer of the buffer size,
//!   regardless of the DPU count.
//! * [`TransferLedger::scatter`] — a distinct payload per DPU, pushed in
//!   one rank-parallel bulk operation: one fixed software overhead plus
//!   the *summed* payload bytes over the bulk bandwidth.
//! * [`TransferLedger::gather`] — the mirror image, DPU→host.
//!
//! Every call records `(calls, bytes, seconds)` per primitive in the
//! ledger so a fleet report can show exactly where the transfer time went,
//! and so the analytic cross-check can rebuild the same per-round byte
//! counts.
//!
//! [`HostCostModel`] covers the host CPU work that is *not* data movement:
//! routing each dispatched sub-transaction and merging each active shard's
//! round results. Both are deterministic modeled costs — the fleet never
//! reads a wall clock, so a seeded run produces bit-identical reports on
//! any machine and any host worker count.

use pim_sim::CpuTransferModel;

/// Deterministic model of per-round host CPU work (everything the host
/// does besides moving bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCostModel {
    /// Routing/dispatch work per dispatched sub-transaction, in seconds.
    pub dispatch_seconds_per_tx: f64,
    /// Result-merge work per active shard per round, in seconds.
    pub merge_seconds_per_shard: f64,
}

impl Default for HostCostModel {
    fn default() -> Self {
        HostCostModel { dispatch_seconds_per_tx: 2e-8, merge_seconds_per_shard: 1e-7 }
    }
}

impl HostCostModel {
    /// Pre-barrier host seconds: routing `subtxns` dispatched
    /// sub-transactions to their shards. This is the half of the host work
    /// the round pipeline can hide behind the previous round's compute.
    pub fn route_seconds(&self, subtxns: u64) -> f64 {
        self.dispatch_seconds_per_tx * subtxns as f64
    }

    /// Post-barrier host seconds: merging `active_shards` shards' round
    /// results. Merge depends on the round's own outputs, so the pipeline
    /// can never hide it.
    pub fn merge_seconds(&self, active_shards: u64) -> f64 {
        self.merge_seconds_per_shard * active_shards as f64
    }
}

/// Running totals for one primitive kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrimitiveStats {
    /// Invocations of the primitive.
    pub calls: u64,
    /// Bytes that crossed the host bus (for broadcast: the buffer size,
    /// once per call — not multiplied by the DPU count).
    pub bytes: u64,
    /// Modeled seconds spent in the primitive.
    pub seconds: f64,
}

impl PrimitiveStats {
    fn charge(&mut self, bytes: u64, seconds: f64) -> f64 {
        self.calls += 1;
        self.bytes += bytes;
        self.seconds += seconds;
        seconds
    }
}

/// Charges every host↔DPU primitive against one [`CpuTransferModel`] and
/// keeps per-primitive totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferLedger {
    transfer: CpuTransferModel,
    /// Totals for `broadcast` calls.
    pub broadcast: PrimitiveStats,
    /// Totals for `scatter` calls.
    pub scatter: PrimitiveStats,
    /// Totals for `gather` calls.
    pub gather: PrimitiveStats,
}

impl TransferLedger {
    /// Creates an empty ledger over `transfer`.
    pub fn new(transfer: CpuTransferModel) -> Self {
        TransferLedger {
            transfer,
            broadcast: PrimitiveStats::default(),
            scatter: PrimitiveStats::default(),
            gather: PrimitiveStats::default(),
        }
    }

    /// The cost model every primitive is charged against.
    pub fn transfer_model(&self) -> &CpuTransferModel {
        &self.transfer
    }

    /// Replicates one `bytes`-sized buffer to every DPU. Returns the
    /// modeled seconds (one bulk transfer of `bytes`; the rank hardware
    /// fans the buffer out, so the cost is DPU-count independent).
    pub fn broadcast(&mut self, bytes: u64) -> f64 {
        let seconds = self.transfer.bulk_transfer_seconds(bytes);
        self.broadcast.charge(bytes, seconds)
    }

    /// Pushes per-DPU payloads host→DPUs in one rank-parallel bulk
    /// operation; `bytes_per_dpu[i]` is DPU `i`'s payload. Returns the
    /// modeled seconds (one overhead + summed bytes over bulk bandwidth).
    pub fn scatter(&mut self, bytes_per_dpu: &[u64]) -> f64 {
        let total: u64 = bytes_per_dpu.iter().sum();
        let seconds = self.transfer.bulk_transfer_seconds(total);
        self.scatter.charge(total, seconds)
    }

    /// Pulls per-DPU payloads DPUs→host in one rank-parallel bulk
    /// operation (the mirror of [`TransferLedger::scatter`]).
    pub fn gather(&mut self, bytes_per_dpu: &[u64]) -> f64 {
        let total: u64 = bytes_per_dpu.iter().sum();
        let seconds = self.transfer.bulk_transfer_seconds(total);
        self.gather.charge(total, seconds)
    }

    /// Moves recut data between owners, through the host: one `gather` of
    /// `from_dpus[i]` bytes off each old owner, then one `scatter` of
    /// `to_dpus[i]` bytes onto each new owner. Returns the modeled seconds
    /// of both.
    pub fn migrate(&mut self, from_dpus: &[u64], to_dpus: &[u64]) -> f64 {
        self.gather(from_dpus) + self.scatter(to_dpus)
    }

    /// Total modeled seconds across all primitives.
    pub fn total_seconds(&self) -> f64 {
        self.broadcast.seconds + self.scatter.seconds + self.gather.seconds
    }

    /// Total bytes that crossed the host bus, both directions.
    pub fn total_bytes(&self) -> u64 {
        self.broadcast.bytes + self.scatter.bytes + self.gather.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_charge_the_shared_transfer_model() {
        let transfer = CpuTransferModel::default();
        let mut ledger = TransferLedger::new(transfer);
        let b = ledger.broadcast(64);
        let s = ledger.scatter(&[100, 200, 300]);
        let g = ledger.gather(&[32, 32]);
        assert!((b - transfer.bulk_transfer_seconds(64)).abs() < 1e-18);
        assert!((s - transfer.bulk_transfer_seconds(600)).abs() < 1e-18);
        assert!((g - transfer.bulk_transfer_seconds(64)).abs() < 1e-18);
        assert_eq!(ledger.broadcast.calls, 1);
        assert_eq!(ledger.scatter.bytes, 600);
        assert_eq!(ledger.total_bytes(), 64 + 600 + 64);
        assert!((ledger.total_seconds() - (b + s + g)).abs() < 1e-18);
    }

    #[test]
    fn empty_transfers_are_free() {
        let mut ledger = TransferLedger::new(CpuTransferModel::default());
        assert_eq!(ledger.scatter(&[]), 0.0);
        assert_eq!(ledger.gather(&[0, 0]), 0.0);
        assert_eq!(ledger.total_seconds(), 0.0);
    }

    #[test]
    fn a_migration_is_one_gather_plus_one_scatter() {
        let transfer = CpuTransferModel::default();
        let mut ledger = TransferLedger::new(transfer);
        let seconds = ledger.migrate(&[80, 0, 16], &[0, 96, 0]);
        assert_eq!(seconds, 2.0 * transfer.bulk_transfer_seconds(96));
        assert_eq!((ledger.gather.calls, ledger.gather.bytes), (1, 96));
        assert_eq!((ledger.scatter.calls, ledger.scatter.bytes), (1, 96));
        assert_eq!(ledger.broadcast.calls, 0);
    }

    #[test]
    fn host_cost_model_is_linear_in_work() {
        let host = HostCostModel::default();
        assert!((host.route_seconds(10) - 10.0 * host.route_seconds(1)).abs() < 1e-15);
        assert!((host.merge_seconds(10) - 10.0 * host.merge_seconds(1)).abs() < 1e-15);
        assert_eq!(host.route_seconds(0) + host.merge_seconds(0), 0.0);
    }
}
