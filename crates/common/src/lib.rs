//! # hermes-common
//!
//! Shared foundation for the HERMES mediator reproduction (SIGMOD 1996,
//! *Query Caching and Optimization in Distributed Mediator Systems*).
//!
//! This crate holds the pieces every other crate needs and nothing else:
//!
//! * [`Value`] — the data model exchanged between the mediator and external
//!   domains. Domain functions may return complex structures, so values
//!   include lists and records in addition to scalars. Values have a *total*
//!   order and a stable hash so they can key answer caches and statistics
//!   tables.
//! * [`AttrPath`] — attribute selection paths such as `$ans.1.name`, used by
//!   rule conditions to reach inside complex values.
//! * [`SimClock`] / [`SimDuration`] — the virtual clock. All experiment
//!   timings are simulated milliseconds integrated on this clock, which keeps
//!   runs deterministic and lets a "48 second call to Italy" finish instantly.
//! * [`Rng64`] — a small, seedable, dependency-free PRNG (SplitMix64 +
//!   xoshiro256**) with the distribution helpers the network simulator and
//!   workload generators need.
//! * [`frame`] — the binary value codec, shared by the length-prefixed
//!   frames `hermes-serve` speaks over TCP and the persisted cache files.
//! * [`HermesError`] — the error type shared across the workspace.

pub mod call;
pub mod clock;
pub mod error;
pub mod frame;
pub mod path;
pub mod rng;
pub mod sync;
pub mod value;

pub use call::{shard_index, CallPattern, GroundCall, PatArg, PatternShape};
pub use clock::{SimClock, SimDuration, SimInstant};
pub use error::{HermesError, Result};
pub use frame::{DoneFrame, ErrorFrame, Frame, FrameDecoder, QueryFrame};
pub use path::{AttrPath, PathStep};
pub use rng::Rng64;
pub use value::{Record, Value};
