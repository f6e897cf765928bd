#![warn(missing_docs)]
//! Common types for the Proteus NVM logging simulator.
//!
//! This crate hosts the vocabulary shared by every other crate in the
//! workspace: physical addresses and cache-line arithmetic ([`addr`]),
//! component identifiers ([`ids`]), clock-domain conversion ([`clock`]),
//! the full system configuration including the paper's Table 1 preset
//! ([`config`]), statistics counters ([`stats`]), the simulator error
//! type ([`error`]), and the experiment-harness vocabulary: stable
//! structural spec hashing ([`hash`]) and job outcomes ([`outcome`]).
//! It also holds the workspace's only random streams ([`rng`]) and the
//! seeded property runner its property suites use ([`prop`]).
//!
//! # Example
//!
//! ```
//! use proteus_types::config::SystemConfig;
//! use proteus_types::addr::Addr;
//!
//! let cfg = SystemConfig::skylake_like();
//! assert_eq!(cfg.cores.rob_entries, 224);
//! let a = Addr::new(0x1040);
//! assert_eq!(a.line().base().raw(), 0x1040 & !63);
//! ```

pub mod addr;
pub mod clock;
pub mod config;
pub mod error;
pub mod fasthash;
pub mod hash;
pub mod ids;
pub mod outcome;
pub mod prop;
pub mod rng;
pub mod sharing;
pub mod stats;

pub use addr::{Addr, LineAddr, LogGrainAddr, CACHE_LINE_SIZE, LOG_GRAIN_SIZE};
pub use clock::{ClockRatio, Cycle, NextEvent};
pub use config::{EngineConfig, LoggingSchemeKind, MemTech, SystemConfig};
pub use error::SimError;
pub use fasthash::{FastBuildHasher, FastMap, FastSet};
pub use hash::{stable_hash_value, FieldHasher, StableHash, StableHasher};
pub use ids::{CoreId, ThreadId, TxId};
pub use outcome::JobOutcome;
