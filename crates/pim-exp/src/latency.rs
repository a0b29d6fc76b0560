//! The §3.1 micro-measurement that motivates restricting transactions to a
//! single DPU: the latency of a local MRAM read versus a CPU-mediated read
//! of a word held by another DPU (the paper reports 231 ns vs 331 µs — three
//! orders of magnitude).

use pim_sim::{CpuTransferModel, LatencyModel};

use crate::report::render_table;

/// Local vs remote word-access latency under the simulator's cost model.
#[derive(Debug, Clone, Copy)]
pub struct LatencyComparison {
    /// Latency of a 64-bit read from the local MRAM bank, in seconds.
    pub local_mram_read_seconds: f64,
    /// Latency of a CPU-mediated 64-bit read from another DPU, in seconds.
    pub mediated_read_seconds: f64,
}

impl LatencyComparison {
    /// Computes the comparison from the default cost models.
    pub fn measure() -> Self {
        let latency = LatencyModel::default();
        let transfer = CpuTransferModel::default();
        LatencyComparison {
            local_mram_read_seconds: latency.local_mram_read_seconds(),
            mediated_read_seconds: transfer.mediated_read_seconds(1),
        }
    }

    /// How many times slower the mediated read is.
    pub fn ratio(&self) -> f64 {
        self.mediated_read_seconds / self.local_mram_read_seconds
    }

    /// Renders the comparison as a table.
    pub fn table(&self) -> String {
        let header = ["access", "latency", "vs local"].map(str::to_string).to_vec();
        let rows = vec![
            vec![
                "local MRAM 64-bit read".to_string(),
                format!("{:.0} ns", self.local_mram_read_seconds * 1e9),
                "1x".to_string(),
            ],
            vec![
                "CPU-mediated remote read".to_string(),
                format!("{:.0} us", self.mediated_read_seconds * 1e6),
                format!("{:.0}x", self.ratio()),
            ],
        ];
        render_table(&header, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_reads_are_about_three_orders_of_magnitude_slower() {
        let cmp = LatencyComparison::measure();
        assert!((200e-9..300e-9).contains(&cmp.local_mram_read_seconds));
        assert!((300e-6..400e-6).contains(&cmp.mediated_read_seconds));
        assert!((1000.0..2000.0).contains(&cmp.ratio()));
        assert!(cmp.table().contains("CPU-mediated"));
    }
}
