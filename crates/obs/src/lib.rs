//! Flight-recorder observability for the greedy80211 simulator.
//!
//! The paper's detection scheme (GRC, §VII) and its figures reason about
//! *time-resolved* behavior — NAV occupancy, backoff evolution, cwnd
//! collapse under fake ACKs — while end-of-run metrics only show
//! aggregates. This crate is the shared telemetry layer every stack
//! level (`phy`, `mac`, `transport`, `net`) records into:
//!
//! * [`Recorder`] — a bounded ring buffer of structured [`ObsEvent`]s
//!   (virtual timestamp, node, layer, kind, payload), plus log-bucketed
//!   histograms and periodically sampled gauge time series;
//! * [`ObsSpec`] / [`Filter`] — what to record (capacity, probe
//!   interval, layer/node filter);
//! * [`ObsReport`] / [`write_artifacts`] — a detached plain-data
//!   snapshot and its deterministic JSONL + CSV export keyed by
//!   [`sim::RunKey`];
//! * [`span!`] / [`profile`] — a wall-clock profiling scope reporting
//!   per-layer time.
//!
//! Campaign sweeps inject recording into experiment closures without
//! changing their signatures: a job's [`RecorderHandle`] rides in the
//! network's per-job context (`net::JobContext`), which every network
//! built during the job wires in.
//!
//! Recording is zero-cost when disabled: every instrumentation site is
//! an `Option<RecorderHandle>` check (`None` in all default paths), and
//! profiling spans gate on one relaxed atomic load. Determinism is
//! preserved by construction — recording never touches the event queue
//! or any RNG stream, so a run produces bit-identical simulation results
//! and bit-identical artifacts at any worker count.
//!
//! # Examples
//!
//! ```
//! use gr_obs::{EventKind, Layer, ObsSpec};
//! use sim::SimTime;
//!
//! static PING: EventKind = EventKind {
//!     name: "ping",
//!     layer: Layer::Net,
//!     fields: &["seq"],
//! };
//!
//! let handle = ObsSpec::default().recorder();
//! handle
//!     .borrow_mut()
//!     .emit(SimTime::from_micros(5), 0, &PING, &[1.0]);
//! let report = handle.borrow_mut().drain_report();
//! assert_eq!(report.events.len(), 1);
//! assert!(report.events_jsonl().contains("\"kind\":\"ping\""));
//! ```

#![warn(missing_docs)]
pub mod event;
pub mod export;
pub mod profile;
pub mod recorder;
pub mod shared;

pub use event::{EventKind, Layer, ObsEvent, MAX_FIELDS};
pub use export::{run_dir_name, write_artifacts, ObsReport};
pub use recorder::{EventTap, Filter, ObsSpec, Recorder, RecorderHandle};
pub use shared::Shared;
