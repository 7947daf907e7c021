//! Static cluster descriptions ([`SystemSpec`]) for the five target systems
//! and any user-supplied system.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::time::Duration;

/// Identifies one of the paper's five target systems, or a custom one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemId {
    /// Mira — ALCF Blue Gene/Q, classic HPC (49,152 nodes × 16 cores).
    Mira,
    /// Theta — ALCF Cray XC40, classic HPC (4,392 nodes × 64 cores).
    Theta,
    /// Blue Waters — NCSA hybrid (22,636 CPU + 4,228 GPU nodes).
    BlueWaters,
    /// Philly — Microsoft DL cluster (552 nodes, 2,490 GPUs, 14 virtual clusters).
    Philly,
    /// Helios — SenseTime DL cluster (802 nodes, 6,416 GPUs).
    Helios,
    /// Any other system described by a custom [`SystemSpec`].
    Custom,
}

impl SystemId {
    /// The five paper systems, in presentation order.
    pub const PAPER_SYSTEMS: [SystemId; 5] = [
        SystemId::Mira,
        SystemId::Theta,
        SystemId::BlueWaters,
        SystemId::Philly,
        SystemId::Helios,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Mira => "Mira",
            Self::Theta => "Theta",
            Self::BlueWaters => "Blue Waters",
            Self::Philly => "Philly",
            Self::Helios => "Helios",
            Self::Custom => "Custom",
        }
    }
}

/// The broad workload class a system hosts (paper §II.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Traditional CPU-based HPC cluster running numerical simulations.
    ClassicHpc,
    /// GPU cluster dedicated to deep-learning workloads.
    DlCluster,
    /// Mixed CPU+GPU cluster hosting both workload families.
    Hybrid,
}

/// The resource unit jobs are scheduled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU cores (Mira, Theta, Blue Waters CPU partition).
    CpuCores,
    /// GPUs (Philly, Helios, Blue Waters GPU partition).
    Gpus,
}

/// Static description of a cluster: capacity, scheduling unit, categorisation
/// thresholds, and queue-partitioning behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// Which system this spec describes.
    pub id: SystemId,
    /// Human-readable name (matches `id.name()` for the paper systems).
    pub name: String,
    /// Workload class.
    pub kind: SystemKind,
    /// Scheduling resource unit.
    pub resource: ResourceKind,
    /// Total compute nodes.
    pub total_nodes: u32,
    /// Scheduling units per node (cores per node, or GPUs per node).
    pub units_per_node: u32,
    /// Total scheduling units (`total_nodes × units_per_node` unless the
    /// system is irregular).
    pub total_units: u64,
    /// Number of isolated virtual clusters the scheduler partitions the
    /// machine into (1 = one global pool; Philly uses 14).
    pub virtual_clusters: u16,
    /// Offset of the system's local clock from the trace clock, in seconds
    /// (used for hour-of-day analyses; Fig. 1b uses local time).
    pub tz_offset: Duration,
}

impl SystemSpec {
    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidSystem`] when capacities are zero or
    /// inconsistent.
    pub fn validate(&self) -> Result<()> {
        if self.total_nodes == 0 {
            return Err(CoreError::InvalidSystem(format!(
                "{}: total_nodes is zero",
                self.name
            )));
        }
        if self.units_per_node == 0 {
            return Err(CoreError::InvalidSystem(format!(
                "{}: units_per_node is zero",
                self.name
            )));
        }
        if self.total_units == 0 {
            return Err(CoreError::InvalidSystem(format!(
                "{}: total_units is zero",
                self.name
            )));
        }
        if self.virtual_clusters == 0 {
            return Err(CoreError::InvalidSystem(format!(
                "{}: virtual_clusters must be ≥ 1",
                self.name
            )));
        }
        let derived = u64::from(self.total_nodes) * u64::from(self.units_per_node);
        if self.total_units > derived {
            return Err(CoreError::InvalidSystem(format!(
                "{}: total_units {} exceeds nodes × units_per_node = {}",
                self.name, self.total_units, derived
            )));
        }
        Ok(())
    }

    /// True for systems whose scheduling unit is the GPU.
    #[must_use]
    pub fn is_gpu_scheduled(&self) -> bool {
        self.resource == ResourceKind::Gpus
    }

    /// Fraction of the machine a request of `procs` units occupies.
    #[must_use]
    pub(crate) fn fraction_of_machine(&self, procs: u64) -> f64 {
        procs as f64 / self.total_units as f64
    }

    // ---- The five paper systems (capacities from paper Table I) ----------

    /// Mira: 49,152 nodes × 16 cores = 786,432 cores, Central Time.
    #[must_use]
    pub fn mira() -> Self {
        Self {
            id: SystemId::Mira,
            name: "Mira".into(),
            kind: SystemKind::ClassicHpc,
            resource: ResourceKind::CpuCores,
            total_nodes: 49_152,
            units_per_node: 16,
            total_units: 786_432,
            virtual_clusters: 1,
            tz_offset: -6 * crate::time::HOUR,
        }
    }

    /// Theta: 4,392 nodes × 64 cores = 281,088 cores, Central Time.
    #[must_use]
    pub fn theta() -> Self {
        Self {
            id: SystemId::Theta,
            name: "Theta".into(),
            kind: SystemKind::ClassicHpc,
            resource: ResourceKind::CpuCores,
            total_nodes: 4_392,
            units_per_node: 64,
            total_units: 281_088,
            virtual_clusters: 1,
            tz_offset: -6 * crate::time::HOUR,
        }
    }

    /// Blue Waters: 26,864 nodes, 396,000 cores (22,636 CPU + 4,228 GPU
    /// nodes), Central Time. Scheduled in cores; jobs carry node counts.
    #[must_use]
    pub fn blue_waters() -> Self {
        Self {
            id: SystemId::BlueWaters,
            name: "Blue Waters".into(),
            kind: SystemKind::Hybrid,
            resource: ResourceKind::CpuCores,
            total_nodes: 26_864,
            units_per_node: 16,
            total_units: 396_000,
            virtual_clusters: 1,
            tz_offset: -6 * crate::time::HOUR,
        }
    }

    /// Philly: 552 nodes, 2,490 GPUs, 14 isolated virtual clusters,
    /// Pacific Time.
    #[must_use]
    pub fn philly() -> Self {
        Self {
            id: SystemId::Philly,
            name: "Philly".into(),
            kind: SystemKind::DlCluster,
            resource: ResourceKind::Gpus,
            total_nodes: 552,
            units_per_node: 8,
            total_units: 2_490,
            virtual_clusters: 14,
            tz_offset: -8 * crate::time::HOUR,
        }
    }

    /// Helios: 802 nodes, 6,416 GPUs, one pool, China Standard Time.
    #[must_use]
    pub fn helios() -> Self {
        Self {
            id: SystemId::Helios,
            name: "Helios".into(),
            kind: SystemKind::DlCluster,
            resource: ResourceKind::Gpus,
            total_nodes: 802,
            units_per_node: 8,
            total_units: 6_416,
            virtual_clusters: 1,
            tz_offset: 8 * crate::time::HOUR,
        }
    }

    /// Returns the spec for a paper system.
    ///
    /// # Panics
    /// Panics if called with [`SystemId::Custom`], which has no canonical spec.
    #[must_use]
    pub fn paper(id: SystemId) -> Self {
        match id {
            SystemId::Mira => Self::mira(),
            SystemId::Theta => Self::theta(),
            SystemId::BlueWaters => Self::blue_waters(),
            SystemId::Philly => Self::philly(),
            SystemId::Helios => Self::helios(),
            SystemId::Custom => panic!("SystemId::Custom has no canonical SystemSpec"),
        }
    }
}

/// Splits `total_units` across `partitions` virtual clusters with Zipf(½)
/// weights, largest first — production virtual clusters are deliberately
/// uneven, and the heaviest groups own the biggest slices. Every partition
/// receives at least one unit and rounding leftovers go to the largest.
/// The simulator's cluster and the generator's feedback queue both split
/// this way, so the congestion a user sees at generation time matches the
/// congestion the replay produces.
///
/// # Panics
/// Panics if `partitions == 0`.
#[must_use]
pub fn virtual_cluster_units(total_units: u64, partitions: usize) -> Vec<u64> {
    assert!(partitions > 0, "a machine has at least one partition");
    if partitions == 1 {
        return vec![total_units];
    }
    let weights: Vec<f64> = (0..partitions)
        .map(|i| 1.0 / ((i + 1) as f64).sqrt())
        .collect();
    let total_w: f64 = weights.iter().sum();
    let mut caps: Vec<u64> = weights
        .iter()
        .map(|w| ((w / total_w) * total_units as f64).floor().max(1.0) as u64)
        .collect();
    let assigned: u64 = caps.iter().sum();
    caps[0] += total_units.saturating_sub(assigned);
    caps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_validate() {
        for id in SystemId::PAPER_SYSTEMS {
            let spec = SystemSpec::paper(id);
            spec.validate().unwrap();
            assert_eq!(spec.id, id);
            assert_eq!(spec.name, id.name());
        }
    }

    #[test]
    fn paper_capacities_match_table1() {
        assert_eq!(SystemSpec::mira().total_units, 786_432);
        assert_eq!(SystemSpec::theta().total_units, 281_088);
        assert_eq!(SystemSpec::blue_waters().total_units, 396_000);
        assert_eq!(SystemSpec::philly().total_units, 2_490);
        assert_eq!(SystemSpec::helios().total_units, 6_416);
    }

    #[test]
    fn philly_is_partitioned_gpu_cluster() {
        let p = SystemSpec::philly();
        assert!(p.is_gpu_scheduled());
        assert_eq!(p.virtual_clusters, 14);
    }

    #[test]
    fn fraction_of_machine() {
        let m = SystemSpec::mira();
        let f = m.fraction_of_machine(78_643);
        assert!(f > 0.099 && f < 0.101);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = SystemSpec::theta();
        s.total_nodes = 0;
        assert!(s.validate().is_err());

        let mut s = SystemSpec::theta();
        s.virtual_clusters = 0;
        assert!(s.validate().is_err());

        let mut s = SystemSpec::theta();
        s.total_units = u64::from(s.total_nodes) * u64::from(s.units_per_node) + 1;
        assert!(s.validate().is_err());
    }
}
