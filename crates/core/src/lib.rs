//! AMuLeT-rs core — the paper's primary contribution.
//!
//! Automated µ-architectural Leakage Testing: model-based relational testing
//! of secure-speculation countermeasures in a µarch simulator. The pipeline
//! (paper Figure 1):
//!
//! 1. [`generator`] produces short random test programs (≤5 basic blocks,
//!    sandbox-masked memory accesses) and [`inputs`] produces seeded inputs,
//!    **boosted** via the emulator's taint engine so every base input yields
//!    a class of inputs with provably equal contract traces.
//! 2. The leakage model (`amulet-contracts`) maps each test case to a
//!    contract trace.
//! 3. The [`executor`] runs each test case on the simulator+defense and
//!    extracts a µarch trace in one of the §4.3 [`trace`] formats
//!    (AMuLeT-Opt reuses the simulator across inputs; AMuLeT-Naive pays the
//!    startup cost per input, accounted by the gem5-calibrated [`cost`]
//!    model).
//! 4. [`detect`] flags contract violations (Definition 2.1: equal contract
//!    traces, different µarch traces), validating candidates by re-running
//!    both inputs under exchanged initial µarch contexts.
//! 5. [`analyze`] classifies violations against the paper's catalogue
//!    (Spectre-v1/v4, UV1–UV6, KV1–KV3) from debug-log signatures and
//!    supports signature-based filtering of known classes (§3.3).
//! 6. [`campaign`] orchestrates multi-instance testing campaigns with the
//!    paper's metrics: throughput, detection time, unique violations, and
//!    [`shard`] scales a campaign across a work-stealing worker pool with
//!    deterministic (worker-count-independent) results. [`proto`] carries
//!    the same batches and fragments across *process* boundaries — the
//!    wire protocol behind `amulet drive` / `amulet worker` — with
//!    fingerprints equal to the in-process run at any process count.
//! 7. [`service`] turns the fabric into a long-lived daemon (`amulet
//!    serve`): many concurrent campaigns fair-share one worker fleet,
//!    repeated submits hit a fingerprint-keyed result cache, and every
//!    validated violation lands in the persisted [`corpus`]. [`journal`]
//!    makes the daemon crash-safe: a per-campaign write-ahead log plus a
//!    persisted result cache let a restarted service replay completed
//!    campaigns byte-identically and resume interrupted ones from the
//!    journaled batch prefix, fingerprints unchanged.
//!
//! # Examples
//!
//! ```no_run
//! use amulet_core::{Campaign, CampaignConfig, ShardConfig};
//! use amulet_defenses::DefenseKind;
//! use amulet_contracts::ContractKind;
//!
//! // One thread per instance...
//! let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
//! let report = Campaign::new(cfg.clone()).run();
//! println!("{}", report.summary_row());
//!
//! // ...or sharded over every available core, same report type.
//! let sharded = Campaign::new(cfg).run_sharded(ShardConfig::default());
//! println!("{:#018x}", sharded.fingerprint());
//! ```

pub mod analyze;
pub mod boundary;
pub mod campaign;
pub mod corpus;
pub mod cost;
pub mod detect;
pub mod executor;
pub mod generator;
pub mod inputs;
pub mod journal;
pub mod minimize;
pub mod proto;
pub mod service;
pub mod shard;
pub mod trace;

pub use analyze::{classify, ViolationClass, ViolationFilter};
pub use boundary::{
    boundary_row, boundary_table, contract_config, BoundaryConfig, BoundaryRow, ContractVerdict,
};
pub use campaign::{
    Campaign, CampaignConfig, CampaignReport, SpecSource, UnitRuntime, ViolationDigest, STL_WINDOW,
};
pub use corpus::{records_from_report, Corpus, CorpusInput, CorpusRecord};
pub use cost::{CostModel, TimeBreakdown};
pub use detect::{Detector, ScanStats, Violation};
pub use executor::{CaseDigest, CaseRun, ExecMode, Executor, ExecutorConfig};
pub use generator::{Generator, GeneratorConfig};
pub use inputs::{boosted_inputs, boosted_inputs_into, InputGenConfig};
pub use journal::{
    load_journal, CampaignJournal, CrashPlan, JournalHeader, JournalReplay, Recovery, StateDir,
};
pub use minimize::{minimize, Minimized};
pub use proto::{CampaignSpec, FragmentReport, Hello, Msg, ReportWire, ResultMsg, PROTO_VERSION};
pub use service::{Admission, Lease, LeaseWait, Service, ServiceEvent, SubmitOutcome};
pub use shard::{
    plan_batches, reduce_fragments, run_batch, verify_fragment_coverage, BatchSource, BatchSpec,
    CursorSource, Fragment, ShardConfig, ShardedCampaign,
};
pub use trace::{TraceFormat, UTrace};
