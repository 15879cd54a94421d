//! Published results of competing Ising machines (paper Tables II & III).
//!
//! The paper takes every competitor number from the cited publication
//! rather than re-running the hardware; we keep them as typed constants so
//! the comparison tables can be regenerated with the provenance explicit.
//! `time_s` is the reported run time per job (ranges keep their lower and
//! upper ends); `quality` preserves the footnote semantics of Table II.

/// Hardware substrate of a published result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Photonic accelerator.
    Photonic,
    /// FPGA implementation.
    Fpga,
    /// Analog/mixed-signal electronics.
    Electronic,
    /// CPU software.
    Cpu,
    /// Quantum annealer.
    Quantum,
}

/// How a published result reports solution quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityNote {
    /// Time to reach the ground state with 90 % probability.
    T90,
    /// Average error relative to the best-known solution.
    AvgError(f64),
    /// Best-case error relative to the best-known solution.
    BestError(f64),
    /// Not reported for this graph.
    Unreported,
}

/// One published (architecture, graph) data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferencePoint {
    /// Architecture name as used in the paper's tables.
    pub architecture: &'static str,
    /// Hardware substrate.
    pub substrate: Substrate,
    /// Benchmark graph name.
    pub graph: &'static str,
    /// Reported run time in seconds (lower bound of a range).
    pub time_s: f64,
    /// Upper bound when the paper reports a range (else equals `time_s`).
    pub time_hi_s: f64,
    /// Quality annotation.
    pub quality: QualityNote,
    /// Accelerator/chip/FPGA count, when stated.
    pub instances: Option<u32>,
}

/// Table II reference rows (small graphs).
pub const TABLE2: &[ReferencePoint] = &[
    ReferencePoint {
        architecture: "INPRIS",
        substrate: Substrate::Photonic,
        graph: "K100",
        time_s: 1e-6,
        time_hi_s: 10e-6,
        quality: QualityNote::T90,
        instances: None,
    },
    ReferencePoint {
        architecture: "PRIS",
        substrate: Substrate::Fpga,
        graph: "K100",
        time_s: 50e-6,
        time_hi_s: 1e-3,
        quality: QualityNote::T90,
        instances: None,
    },
    ReferencePoint {
        architecture: "CIM",
        substrate: Substrate::Photonic,
        graph: "K100",
        time_s: 2.3e-3,
        time_hi_s: 2.3e-3,
        quality: QualityNote::T90,
        instances: None,
    },
    ReferencePoint {
        architecture: "CIM",
        substrate: Substrate::Photonic,
        graph: "G22",
        time_s: 5e-3,
        time_hi_s: 5e-3,
        quality: QualityNote::BestError(0.008),
        instances: None,
    },
    ReferencePoint {
        architecture: "BRIM",
        substrate: Substrate::Electronic,
        graph: "G22",
        time_s: 0.25e-6,
        time_hi_s: 0.25e-6,
        quality: QualityNote::BestError(0.003),
        instances: None,
    },
    ReferencePoint {
        architecture: "BLS",
        substrate: Substrate::Cpu,
        graph: "G1",
        time_s: 13.0,
        time_hi_s: 13.0,
        quality: QualityNote::AvgError(0.001),
        instances: None,
    },
    ReferencePoint {
        architecture: "BLS",
        substrate: Substrate::Cpu,
        graph: "G22",
        time_s: 560.0,
        time_hi_s: 560.0,
        quality: QualityNote::AvgError(0.001),
        instances: None,
    },
    ReferencePoint {
        architecture: "D-Wave",
        substrate: Substrate::Quantum,
        graph: "K100",
        time_s: 5e18,
        time_hi_s: 5e18,
        quality: QualityNote::T90,
        instances: None,
    },
];

/// Table II rows reported for SOPHIE itself (for cross-checking our model
/// output against the paper's).
pub const TABLE2_SOPHIE: &[ReferencePoint] = &[
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "K100",
        time_s: 0.31e-6,
        time_hi_s: 0.31e-6,
        quality: QualityNote::T90,
        instances: Some(4),
    },
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "G1",
        time_s: 0.096e-6,
        time_hi_s: 0.096e-6,
        quality: QualityNote::AvgError(0.041),
        instances: Some(4),
    },
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "G22",
        time_s: 0.2e-6,
        time_hi_s: 0.2e-6,
        quality: QualityNote::AvgError(0.039),
        instances: Some(4),
    },
];

/// Table III reference rows (large graphs).
pub const TABLE3: &[ReferencePoint] = &[
    ReferencePoint {
        architecture: "SB",
        substrate: Substrate::Fpga,
        graph: "K16384",
        time_s: 1.21e-3,
        time_hi_s: 1.21e-3,
        quality: QualityNote::Unreported,
        instances: Some(8),
    },
    ReferencePoint {
        architecture: "mBRIM3D",
        substrate: Substrate::Electronic,
        graph: "K16384",
        time_s: 1.1e-6,
        time_hi_s: 1.1e-6,
        quality: QualityNote::Unreported,
        instances: Some(4),
    },
];

/// Table III rows reported for SOPHIE itself.
pub const TABLE3_SOPHIE: &[ReferencePoint] = &[
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "K16384",
        time_s: 38.25e-6,
        time_hi_s: 38.25e-6,
        quality: QualityNote::Unreported,
        instances: Some(1),
    },
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "K16384",
        time_s: 20.40e-6,
        time_hi_s: 20.40e-6,
        quality: QualityNote::Unreported,
        instances: Some(2),
    },
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "K16384",
        time_s: 9.69e-6,
        time_hi_s: 9.69e-6,
        quality: QualityNote::Unreported,
        instances: Some(4),
    },
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "K32768",
        time_s: 129.0e-6,
        time_hi_s: 129.0e-6,
        quality: QualityNote::Unreported,
        instances: Some(1),
    },
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "K32768",
        time_s: 68.80e-6,
        time_hi_s: 68.80e-6,
        quality: QualityNote::Unreported,
        instances: Some(2),
    },
    ReferencePoint {
        architecture: "SOPHIE (paper)",
        substrate: Substrate::Photonic,
        graph: "K32768",
        time_s: 32.34e-6,
        time_hi_s: 32.34e-6,
        quality: QualityNote::Unreported,
        instances: Some(4),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_speedup_claims_hold_within_the_tables() {
        // SOPHIE ≥3× faster than INPRIS on K100.
        let sophie_k100 = TABLE2_SOPHIE.iter().find(|p| p.graph == "K100").unwrap();
        let inpris = TABLE2.iter().find(|p| p.architecture == "INPRIS").unwrap();
        assert!(inpris.time_s / sophie_k100.time_s >= 3.0);
        // SOPHIE (4 accel) ≥125× faster than 8-FPGA SB on K16384.
        let sophie_k16384 = TABLE3_SOPHIE
            .iter()
            .find(|p| p.graph == "K16384" && p.instances == Some(4))
            .unwrap();
        let sb = TABLE3.iter().find(|p| p.architecture == "SB").unwrap();
        assert!(sb.time_s / sophie_k16384.time_s >= 124.0);
        // mBRIM3D is still faster than 4-accelerator SOPHIE (by ≈8.8×).
        let mbrim = TABLE3.iter().find(|p| p.architecture == "mBRIM3D").unwrap();
        let ratio = sophie_k16384.time_s / mbrim.time_s;
        assert!((8.0..10.0).contains(&ratio));
    }

    #[test]
    fn k32768_is_about_3x_k16384_for_sophie() {
        let t16 = TABLE3_SOPHIE
            .iter()
            .find(|p| p.graph == "K16384" && p.instances == Some(1))
            .unwrap();
        let t32 = TABLE3_SOPHIE
            .iter()
            .find(|p| p.graph == "K32768" && p.instances == Some(1))
            .unwrap();
        let ratio = t32.time_s / t16.time_s;
        assert!((3.0..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ranges_are_ordered() {
        for p in TABLE2.iter().chain(TABLE3) {
            assert!(p.time_hi_s >= p.time_s, "{}", p.architecture);
        }
    }
}
