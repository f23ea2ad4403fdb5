#![warn(missing_docs)]

//! # DMLL reference interpreter
//!
//! Executes DMLL programs directly, implementing the sequential semantics of
//! Figure 2 exactly ([`eval`]) plus a chunked multithreaded executor for
//! top-level multiloops ([`eval_parallel`]) that mirrors how the runtime
//! splits a multiloop into index sub-ranges ("a multiloop is agnostic to
//! whether it runs over the entire loop bounds or a subset", §5).
//!
//! The interpreter is the project's semantic ground truth: transformation
//! tests run programs before and after a rewrite on random inputs and demand
//! identical results.
//!
//! ```
//! use dmll_frontend::Stage;
//! use dmll_core::{LayoutHint, Ty};
//! use dmll_interp::{eval, Value};
//!
//! let mut st = Stage::new();
//! let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
//! let total = st.sum(&x);
//! let p = st.finish(&total);
//!
//! let out = eval(&p, &[("x", Value::f64_arr(vec![1.0, 2.0, 3.5]))])?;
//! assert_eq!(out, Value::F64(6.5));
//! # Ok::<(), dmll_interp::EvalError>(())
//! ```

pub mod cluster;
mod compile;
pub mod error;
pub mod eval;
mod fuse;
pub mod parallel;
pub mod stats;
mod task;
pub mod value;

pub use cluster::{eval_cluster_measured, ClusterOptions, ClusterReport};
pub use compile::{BatchIneligible, CacheStats, KernelCacheHandle};
pub use error::{EvalError, ExecError};
pub use eval::{eval, eval_tree_walk, eval_with_externs, ExternFn, Externs, Interp, RunReport};
pub use parallel::{
    eval_parallel, eval_parallel_report, eval_parallel_supervised, ChunkFaults, ExecReport,
    ParallelOptions,
};
pub use stats::{
    batch_reject_reasons, native_fallback_reasons, reset_tier_totals, tier_totals, TierTotals,
};
pub use value::{ArrayVal, BucketsVal, Key, StructVal, Value};
