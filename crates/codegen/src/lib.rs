#![warn(missing_docs)]

//! # Heterogeneous code generation
//!
//! DMLL keeps each generator's condition / key / value / reduction functions
//! separate precisely so that code generation can *recompose* them per
//! target (§3.1). This crate demonstrates it with two source emitters:
//!
//! * [`cpp`] — C++-flavoured code: a collect guards a buffer append with the
//!   condition; buckets are maintained by **hashing** (`std::unordered_map`);
//!   loops carry OpenMP parallel-for annotations.
//! * [`cuda`] — CUDA-flavoured code: a collect becomes **two phases**
//!   (evaluate conditions and sizes up front, then scatter values to
//!   precomputed offsets); scalar reductions use shared-memory trees;
//!   buckets are maintained by **sorting**; non-scalar reductions are
//!   rejected with a pointer at the Row-to-Column Reduce rule.
//!
//! The output is human-readable source text; golden tests pin the structural
//! differences between the targets.
//!
//! One emitter is also *executable*: [`cpp::emit_kernel_entry`] lowers a
//! certified multiloop to an `extern "C"` function over SoA pointers, and
//! [`native`] compiles it with the system C++ compiler and `dlopen`s the
//! result — the interpreter's native execution tier.

pub mod cpp;
pub mod cuda;
mod exprs;
pub mod native;

pub use cpp::{emit_cpp, emit_kernel_entry};
pub use cuda::{emit_cuda, CudaError};
pub use native::{
    compile_and_load, find_compiler, NativeArr, NativeEntryFn, NativeGenOut, NativeIneligible,
    NativeLib, NativeVarTy,
};
