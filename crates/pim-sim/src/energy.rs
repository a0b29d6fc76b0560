//! Energy model used by the §4.3 energy study.
//!
//! The UPMEM system has no energy counters, so the paper estimates PIM energy
//! as the system's thermal design power (370 W with all DPUs active)
//! multiplied by the workload's execution time, and measures CPU energy with
//! RAPL. RAPL is not available inside this reproduction environment, so the
//! CPU side uses the same TDP-style estimate with a configurable package +
//! DRAM power; the *ratio* methodology matches the paper.

/// Power constants used to convert execution time into energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Thermal design power of the full UPMEM PIM system (all 2560 DPUs), in
    /// watts. The paper uses 370 W.
    pub upmem_system_watts: f64,
    /// Number of DPUs the TDP above corresponds to.
    pub upmem_system_dpus: usize,
    /// Host CPU package power (substitute for RAPL package domain), in watts.
    pub cpu_package_watts: f64,
    /// Host DRAM power (substitute for RAPL DRAM domain), in watts.
    pub cpu_dram_watts: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            upmem_system_watts: 370.0,
            upmem_system_dpus: 2560,
            cpu_package_watts: 125.0,
            cpu_dram_watts: 25.0,
        }
    }
}

impl EnergyModel {
    /// Energy, in joules, consumed by a PIM execution of `seconds` seconds
    /// using `n_dpus` DPUs. Power is scaled linearly with the number of
    /// active DPUs (the paper always uses all of them, in which case this is
    /// exactly TDP × time).
    pub(crate) fn pim_energy_joules(&self, seconds: f64, n_dpus: usize) -> f64 {
        let fraction = (n_dpus.min(self.upmem_system_dpus)) as f64 / self.upmem_system_dpus as f64;
        self.upmem_system_watts * fraction * seconds
    }

    /// Energy, in joules, consumed by a CPU execution of `seconds` seconds
    /// (package + DRAM).
    pub(crate) fn cpu_energy_joules(&self, seconds: f64) -> f64 {
        (self.cpu_package_watts + self.cpu_dram_watts) * seconds
    }

    /// Energy gain of PIM over CPU: `cpu_energy / pim_energy`, matching the
    /// paper's definition (values below 1.0 mean PIM consumed *more* energy,
    /// as happens for Labyrinth L).
    pub fn energy_gain(&self, cpu_seconds: f64, pim_seconds: f64, n_dpus: usize) -> f64 {
        self.cpu_energy_joules(cpu_seconds) / self.pim_energy_joules(pim_seconds, n_dpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_system_energy_is_tdp_times_time() {
        let m = EnergyModel::default();
        let e = m.pim_energy_joules(10.0, 2560);
        assert!((e - 3700.0).abs() < 1e-9);
    }

    #[test]
    fn partial_system_scales_linearly() {
        let m = EnergyModel::default();
        let half = m.pim_energy_joules(10.0, 1280);
        assert!((half - 1850.0).abs() < 1e-9);
        // Using more DPUs than exist does not inflate power.
        assert_eq!(m.pim_energy_joules(10.0, 100_000), m.pim_energy_joules(10.0, 2560));
    }

    #[test]
    fn cpu_energy_includes_dram() {
        let m = EnergyModel::default();
        assert!((m.cpu_energy_joules(2.0) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn energy_gain_matches_paper_definition() {
        let m = EnergyModel::default();
        // CPU takes 10 s, PIM takes 2 s on the full system:
        // gain = (150*10)/(370*2) ≈ 2.03
        let gain = m.energy_gain(10.0, 2.0, 2560);
        assert!((gain - 1500.0 / 740.0).abs() < 1e-9);
        // A slow PIM run can have gain < 1 (PIM consumes more energy).
        assert!(m.energy_gain(1.0, 1.0, 2560) < 1.0);
    }
}
