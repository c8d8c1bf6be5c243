//! # multival-ctmc — continuous-time Markov chain solvers
//!
//! The Markov back-end of the Multival reproduction (DATE'08): the Rust
//! counterpart of CADP's `bcg_steady` / `bcg_transient` solvers, plus the
//! CTMDP machinery the paper lists as future work for nondeterminism.
//!
//! * [`Ctmc`] / [`CtmcBuilder`] — sparse chains with labeled rate
//!   transitions (labels enable throughput queries);
//! * [`steady`] — BSCC-aware steady-state distributions, throughputs, and
//!   state rewards;
//! * [`transient`] — time-dependent distributions by uniformization;
//! * [`absorb`] — expected first-passage/hitting times and reachability
//!   probabilities (used for latency predictions);
//! * [`csl`] — CSL-style time-bounded until and reachability quantiles;
//! * [`dtmc`] — embedded jump chains and discrete-time analyses;
//! * [`rewards`] — accumulated and long-run reward measures;
//! * [`mc`] — the parallel batched Monte-Carlo engine (deterministic seed
//!   streams, Welford statistics, confidence-interval stopping);
//! * [`phfit`] — moment-matching phase-type fitting of deterministic
//!   delays (adaptive Erlang order to a stated CDF tolerance);
//! * [`sparse`] — the CSR kernels behind the iterative solvers;
//! * [`dense`] — naive dense reference solvers for cross-validation;
//! * [`stats`] — streaming statistics shared by the statistical engine;
//! * [`mdp`] — CTMDPs with min/max value iteration (scheduler bounds).
//!
//! # Examples
//!
//! Steady-state of a tiny queue and its arrival throughput:
//!
//! ```
//! use multival_ctmc::{CtmcBuilder, steady::{steady_state, throughputs, SolveOptions}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CtmcBuilder::new(2);
//! b.rate_labeled(0, 1, 1.0, "arrive")?;
//! b.rate_labeled(1, 0, 2.0, "serve")?;
//! let ctmc = b.build()?;
//! let pi = steady_state(&ctmc, &SolveOptions::default())?;
//! assert!((pi[0] - 2.0 / 3.0).abs() < 1e-9);
//! let tp = throughputs(&ctmc, &SolveOptions::default())?;
//! assert!((tp[0].1 - 2.0 / 3.0).abs() < 1e-9); // λ·π₀
//! # Ok(())
//! # }
//! ```

pub mod absorb;
pub mod csl;
pub mod ctmc;
pub mod dense;
pub mod dtmc;
pub mod mc;
pub mod mdp;
pub mod phfit;
pub mod rewards;
pub mod sparse;
pub mod stats;
pub mod steady;
pub mod transient;

pub use ctmc::{Ctmc, CtmcBuilder, CtmcError, RateTransition, State};
pub use dtmc::Dtmc;
pub use mc::{Estimate, McOptions, McRun, McSim};
pub use mdp::{ActionChoice, Ctmdp, Opt};
pub use multival_par::Workers;
pub use sparse::Csr;
pub use stats::Welford;
pub use steady::SolveOptions;
pub use transient::TransientOptions;
