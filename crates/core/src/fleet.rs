//! Relay-fleet *data* types: configuration for the directory layer.
//!
//! Like [`crate::faults`] and [`crate::recover`], this module holds only
//! the *vocabulary*: the [`FleetConfig`] every
//! [`Scenario`](crate::Scenario) run takes via
//! [`RunOptions`](crate::RunOptions). The machinery — signed relay
//! descriptors, gossip anti-entropy, epoch keyrings, weighted selection —
//! lives in `dcp-fleet`, which sits *above* this crate in the dependency
//! graph (scenario crates reach it only through `dcp-runtime`, enforced
//! by the CI layering lint).

use serde::{Deserialize, Serialize};

/// Parameters of the relay-directory layer: fleet size, gossip cadence,
/// epoch key rotation, and selection policy.
///
/// `Default` is [`FleetConfig::disabled`] — the zero-overhead path, in
/// which wirings build their fixed, hand-picked relay set exactly as they
/// did before the fleet layer existed: no directory nodes are added, no
/// descriptors are built, and no randomness is drawn, so a fleet-off run
/// is bit-for-bit identical to a run of a build without the layer (the
/// same inertness bar `recover` and `obs` meet, byte-checked by the
/// `dst --probe sweep|recover` CI diffs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Master switch. `false` means the wiring keeps its static relay
    /// set and the directory layer is never constructed.
    pub enabled: bool,
    /// Relay pool size the directory advertises. `0` means "as many as
    /// the wiring's own relay count" — the pool is exactly the fixed set,
    /// which is what the byte-identity probes pin. Larger pools give the
    /// selector real choices (EXPERIMENTS.md sweeps these).
    pub pool: u16,
    /// Number of directory nodes gossiping descriptors. Clamped to ≥ 1
    /// by the fleet layer; 3 exercises anti-entropy under partition.
    pub directories: u16,
    /// Gossip anti-entropy tick interval, µs.
    pub gossip_interval_us: u64,
    /// How many gossip ticks each directory runs before going quiet.
    /// Gossip must be *bounded* — the simulator runs to quiescence, so an
    /// unbounded re-arming timer would keep every run alive forever.
    pub gossip_rounds: u32,
    /// Epoch key-rotation interval per relay, µs. `0` disables rotation
    /// (relays keep their epoch-0 keys for the whole run).
    pub rotation_interval_us: u64,
    /// Maximum rotations per relay (bounded for the same quiescence
    /// reason as [`FleetConfig::gossip_rounds`]).
    pub max_rotations: u32,
    /// Grace window, in epochs: a ciphertext sealed under epoch `e` is
    /// accepted while the relay's current epoch is ≤ `e + grace_epochs`,
    /// and rejected fail-closed (typed `EpochError`) beyond that. Covers
    /// gossip propagation delay plus directory partition windows.
    pub grace_epochs: u64,
    /// Hot-relay exclusion factor: a relay whose per-epoch load exceeds
    /// `hot_factor ×` the mean candidate load is excluded from selection
    /// (unless exclusion would leave fewer candidates than the chain
    /// needs). `0` disables hot detection.
    pub hot_factor: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::disabled()
    }
}

impl FleetConfig {
    /// Fleet off: static relay sets, no directory nodes, no rotation.
    pub fn disabled() -> Self {
        FleetConfig {
            enabled: false,
            pool: 0,
            directories: 0,
            gossip_interval_us: 0,
            gossip_rounds: 0,
            rotation_interval_us: 0,
            max_rotations: 0,
            grace_epochs: 0,
            hot_factor: 0,
        }
    }

    /// The tier the fleet DST probes run under: pool pinned to the
    /// wiring's own relay count (so selection reproduces the fixed chain
    /// and knowledge tables stay byte-comparable), three directories,
    /// gossip fast enough to converge inside a run, rotation slow enough
    /// that the grace window comfortably covers a directory partition
    /// (`harsh_fleet` opens 40 ms windows; 4 × 200 ms of grace dwarfs
    /// them). The grace equals the rotation budget, so even a directory
    /// that misses every rotation publish can still be served by its
    /// clients — staleness rejection is for views *older than the run*,
    /// exercised by the hostile-input tests with tighter windows.
    pub fn standard() -> Self {
        FleetConfig {
            enabled: true,
            pool: 0,
            directories: 3,
            gossip_interval_us: 40_000,
            gossip_rounds: 50,
            rotation_interval_us: 200_000,
            max_rotations: 4,
            grace_epochs: 4,
            hot_factor: 4,
        }
    }

    /// Set the advertised relay pool size (`0` = the wiring's own count).
    pub fn pool(mut self, n: u16) -> Self {
        self.pool = n;
        self
    }

    /// Set the directory node count.
    pub fn directories(mut self, n: u16) -> Self {
        self.directories = n;
        self
    }

    /// Set the gossip tick interval, µs.
    pub fn gossip_interval_us(mut self, us: u64) -> Self {
        self.gossip_interval_us = us;
        self
    }

    /// Set the bounded gossip round count.
    pub fn gossip_rounds(mut self, n: u32) -> Self {
        self.gossip_rounds = n;
        self
    }

    /// Set the rotation interval, µs (`0` = never rotate).
    pub fn rotation_interval_us(mut self, us: u64) -> Self {
        self.rotation_interval_us = us;
        self
    }

    /// Set the per-relay rotation cap.
    pub fn max_rotations(mut self, n: u32) -> Self {
        self.max_rotations = n;
        self
    }

    /// Set the stale-epoch grace window, in epochs.
    pub fn grace_epochs(mut self, n: u64) -> Self {
        self.grace_epochs = n;
        self
    }

    /// Set the hot-relay exclusion factor (`0` = off).
    pub fn hot_factor(mut self, f: u32) -> Self {
        self.hot_factor = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let c = FleetConfig::default();
        assert!(!c.enabled);
        assert_eq!(c, FleetConfig::disabled());
    }

    #[test]
    fn builder_chains() {
        let c = FleetConfig::standard()
            .pool(8)
            .directories(5)
            .gossip_interval_us(10_000)
            .gossip_rounds(20)
            .rotation_interval_us(30_000)
            .max_rotations(2)
            .grace_epochs(1)
            .hot_factor(3);
        assert!(c.enabled);
        assert_eq!(c.pool, 8);
        assert_eq!(c.directories, 5);
        assert_eq!(c.gossip_interval_us, 10_000);
        assert_eq!(c.gossip_rounds, 20);
        assert_eq!(c.rotation_interval_us, 30_000);
        assert_eq!(c.max_rotations, 2);
        assert_eq!(c.grace_epochs, 1);
        assert_eq!(c.hot_factor, 3);
    }

    #[test]
    fn standard_grace_covers_harsh_fleet_partitions() {
        // The stale-rejection grace window must dwarf the longest
        // directory outage harsh_fleet() can open, or a partitioned
        // client would be unable to seal an acceptable ciphertext and
        // the completion bar would be unmeetable.
        let fleet = FleetConfig::standard();
        let faults = crate::FaultConfig::harsh_fleet();
        assert!(fleet.grace_epochs * fleet.rotation_interval_us > 4 * faults.partition_window_us);
    }
}
