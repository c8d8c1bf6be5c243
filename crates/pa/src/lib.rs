//! # multival-pa — a mini-LOTOS process algebra
//!
//! The modeling front-end of the Multival reproduction (DATE'08): a
//! LOTOS-style process algebra with finite data types, a textual parser, a
//! programmatic AST, structural operational semantics, and a state-space
//! explorer producing [`multival_lts::Lts`] graphs.
//!
//! CHP (the hardware process algebra used for the FAUST router) maps onto
//! this dialect the same way the published CHP→LOTOS translation works:
//! handshake channels become rendezvous gates.
//!
//! # Examples
//!
//! A one-place buffer, explored to a 2-state LTS:
//!
//! ```
//! use multival_pa::parser::parse_spec;
//! use multival_pa::explorer::{explore, ExploreOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = parse_spec(
//!     "process Buf[put, get](full: bool) :=
//!          [not full] -> put; Buf[put, get](true)
//!       [] [full]     -> get; Buf[put, get](false)
//!      endproc
//!      behaviour Buf[put, get](false)",
//! )?;
//! let explored = explore(&spec, &ExploreOptions::default())?;
//! assert_eq!(explored.lts.num_states(), 2);
//! # Ok(())
//! # }
//! ```

mod compiled;
pub mod explorer;
pub mod expr;
pub mod lexer;
pub mod lint;
pub mod network;
mod pack;
pub mod parser;
pub mod semantics;
pub mod spec;
pub mod term;
pub mod ts;
pub mod value;

pub use explorer::{
    explore, explore_partial, explore_term, explore_term_store_partial, Exploration, ExploreError,
    ExploreOptions, Explored, StoreExploration,
};
pub use lint::{lint, Lint};
pub use network::{extract_network, NetworkError};
pub use parser::{parse_behaviour, parse_spec, ParseError};
pub use semantics::{transitions, Label, SemError};
pub use spec::{ProcDef, Spec};
pub use term::{Action, Offer, SyncKind, Term};
pub use ts::PaTs;
pub use value::{sym, EnumDef, Sym, Type, Value};
