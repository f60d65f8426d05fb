//! One module per figure/table of the paper's evaluation.
//!
//! Every experiment prints two kinds of rows:
//!
//! * **model** rows — the Section 3 discrete-event machine (`c5-lagmodel`)
//!   configured with the paper-like parameters (20 cores, `e = 10`, `d = 9`)
//!   and driven by the *same workload definitions* as the real engines (the
//!   write sets are recorded by executing the actual stored procedures). The
//!   model is what reproduces the paper's figure shapes independently of how
//!   many cores the benchmark host happens to have.
//! * **measured** rows — the real primary engines, replication log, C5
//!   replica and baselines running end-to-end on this host. These validate
//!   the implementation (everything applies, lag stays bounded, abort rates
//!   move the right way); on a single-core host the *relative throughput*
//!   columns compress towards 1.0 because no protocol can actually execute
//!   in parallel, which is called out in EXPERIMENTS.md.
//!
//! The six scenarios that go beyond the paper's figures — [`fanout`],
//! [`sharded`], [`failover`], [`reads`], [`elastic`] and [`obs`] — each
//! export the `scenario` they run, as a [`crate::harness::Scenario`]
//! description; `bench` runs the same descriptions at its own scale, so a
//! sub-command's table and its `BENCH_<name>.json` are two views of one run
//! shape.

pub mod durability;
pub mod elastic;
pub mod failover;
pub mod fanout;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig8_9;
pub mod insert_only;
pub mod obs;
pub mod reads;
pub mod recorder;
pub mod sched_offline;
pub mod sharded;
pub mod table1;
pub mod theorems;
