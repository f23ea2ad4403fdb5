//! The compiled execution tier: multiloop bodies lowered to a flat
//! register-based bytecode over unboxed `i64`/`f64`/`bool` registers.
//!
//! The tree-walking evaluator ([`crate::eval`]) pays per element for every
//! `Exp` match, every `Env` slot write and every boxed [`Value`]. This
//! module removes that overhead for the hot path: each top-level
//! [`Multiloop`]'s generator component functions (condition / key / value /
//! reducer) are lowered once into straight-line instruction sequences whose
//! operands are typed registers, and the per-element loop runs those
//! sequences against typed accumulators that write straight into
//! `Vec<i64>` / `Vec<f64>` buffers.
//!
//! Design rules (see DESIGN.md §8):
//!
//! * **Bit-identical semantics or bust.** Every typed instruction
//!   replicates the tree-walker's behaviour exactly, including error
//!   variants (`IndexOutOfBounds`, `DivisionByZero`, `EmptyReduce`, …),
//!   wrapping integer arithmetic, first-seen bucket order, and the
//!   `seal_array` storage rules (empty collects seal to `Boxed`). Anything
//!   the compiler cannot prove it can replicate is *rejected* and the whole
//!   loop falls back to the tree-walker — so a fallback is never a
//!   behaviour change, only a missed speedup.
//! * **Refined value types.** Free variables are classified from their
//!   runtime values ([`VTy`]); the classification is part of the kernel
//!   cache key, so a cached kernel is only reused when operand storage
//!   (e.g. `ArrayVal::F64` vs `Boxed`) matches what it was compiled for.
//! * **Loop-invariant hoisting.** Infallible statements whose operands are
//!   loop-invariant are executed once per invocation in a preamble instead
//!   of once per element. Fallible operations (division, reads, dynamic
//!   projections) are never hoisted, because the tree-walker would not have
//!   executed them for an empty loop.
//! * **Boxed fallback ops.** Structs, tuples and polymorphic primitives
//!   that cannot be typed still compile — into generic instructions over
//!   `Value` registers that call the same helpers as the tree-walker.
//!
//! Kernels are cached in an LRU store keyed by a structural hash of the
//! multiloop plus the free-variable [`VTy`]s, so iterative apps (k-means,
//! logreg, PageRank epochs) compile each loop once. The store is an
//! injectable [`KernelCacheHandle`] — one process-global default for
//! one-shot runs, or a caller-owned handle (the query service shares one
//! across tenants and surfaces per-tenant hit rates through handle views).

pub(crate) mod batch;
pub(crate) mod native;

pub use batch::BatchIneligible;

use crate::error::EvalError;
use crate::eval::{check_extern_ret, eval_math, eval_prim, read_array, seal_array, Env, ExternFn, Externs};
use crate::stats;
use crate::value::{ArrayVal, BucketsVal, Key, StructVal, Value};
use dmll_core::gen::GenKind;
use dmll_core::visit::free_syms;
use dmll_core::{Block, Const, Def, Exp, Gen, MathFn, Multiloop, PrimOp, Program, StructTy, Sym, Ty};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Register model
// ---------------------------------------------------------------------------

/// Register class: which register file a value lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    /// Unboxed `i64`.
    I,
    /// Unboxed `f64`.
    F,
    /// Unboxed `bool`.
    B,
    /// Boxed [`Value`] (tuples, structs, arrays, buckets, strings, unit).
    V,
}

/// A typed register reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Reg {
    pub class: Class,
    pub idx: u16,
}

/// Refined runtime type of a symbol: drives register-class assignment and
/// certifies typed instructions (e.g. an unboxed read requires the array
/// operand to be `Arr(F)`). Also the kernel cache-key component for free
/// variables.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum VTy {
    /// `i64` scalar.
    I,
    /// `f64` scalar.
    F,
    /// `bool` scalar.
    B,
    /// String.
    Str,
    /// Unit.
    Unit,
    /// An array with unboxed element storage; the inner type is always
    /// `I`, `F` or `B`.
    Arr(Box<VTy>),
    /// Definitely an array, element storage unknown (boxed or empty).
    ArrGen,
    /// A tuple with per-component refinements.
    Tuple(Arc<Vec<VTy>>),
    /// A struct of known type with per-field refinements.
    Struct(Arc<StructTy>, Arc<Vec<VTy>>),
    /// A bucket collection.
    Buckets,
    /// Anything else / unknown.
    Gen,
}

impl VTy {
    pub(crate) fn class(&self) -> Class {
        match self {
            VTy::I => Class::I,
            VTy::F => Class::F,
            VTy::B => Class::B,
            _ => Class::V,
        }
    }

    /// Classify a runtime value, depth-limited so adversarial nesting cannot
    /// blow up the cache key.
    pub(crate) fn of(v: &Value, depth: usize) -> VTy {
        if depth > 4 {
            return VTy::Gen;
        }
        match v {
            Value::I64(_) => VTy::I,
            Value::F64(_) => VTy::F,
            Value::Bool(_) => VTy::B,
            Value::Str(_) => VTy::Str,
            Value::Unit => VTy::Unit,
            Value::Arr(ArrayVal::I64(_)) => VTy::Arr(Box::new(VTy::I)),
            Value::Arr(ArrayVal::F64(_)) => VTy::Arr(Box::new(VTy::F)),
            Value::Arr(ArrayVal::Bool(_)) => VTy::Arr(Box::new(VTy::B)),
            Value::Arr(ArrayVal::Boxed(_)) => VTy::ArrGen,
            Value::Tuple(vs) => VTy::Tuple(Arc::new(
                vs.iter().map(|x| VTy::of(x, depth + 1)).collect(),
            )),
            Value::Struct(s) => VTy::Struct(
                s.ty.clone(),
                Arc::new(s.fields.iter().map(|x| VTy::of(x, depth + 1)).collect()),
            ),
            Value::Buckets(_) => VTy::Buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Instruction set
// ---------------------------------------------------------------------------

/// Infallible integer binary ops (wrapping, like the tree-walker).
#[derive(Clone, Copy, Debug)]
pub(crate) enum IOp {
    Add,
    Sub,
    Mul,
    Min,
    Max,
}

/// Float binary ops (all infallible in IEEE arithmetic).
#[derive(Clone, Copy, Debug)]
pub(crate) enum FOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

/// Comparison ops.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One bytecode instruction. Bare `u16` operands index the register file
/// implied by the variant; [`Reg`] operands are polymorphic.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    ConstI { dst: u16, v: i64 },
    ConstF { dst: u16, v: f64 },
    ConstB { dst: u16, v: bool },
    ConstV { dst: u16, v: Value },
    BinI { op: IOp, dst: u16, a: u16, b: u16 },
    DivI { dst: u16, a: u16, b: u16 },
    RemI { dst: u16, a: u16, b: u16 },
    BinF { op: FOp, dst: u16, a: u16, b: u16 },
    NegI { dst: u16, a: u16 },
    NegF { dst: u16, a: u16 },
    CmpI { op: CmpOp, dst: u16, a: u16, b: u16 },
    CmpF { op: CmpOp, dst: u16, a: u16, b: u16 },
    CmpB { op: CmpOp, dst: u16, a: u16, b: u16 },
    AndB { dst: u16, a: u16, b: u16 },
    OrB { dst: u16, a: u16, b: u16 },
    NotB { dst: u16, a: u16 },
    MuxI { dst: u16, c: u16, a: u16, b: u16 },
    MuxF { dst: u16, c: u16, a: u16, b: u16 },
    MuxB { dst: u16, c: u16, a: u16, b: u16 },
    MuxV { dst: u16, c: u16, a: u16, b: u16 },
    MathF { f: MathFn, dst: u16, a: u16 },
    /// Math on a boxed operand: `as_f64` or the tree-walker's error.
    MathV { f: MathFn, dst: u16, a: Reg },
    CastIF { dst: u16, a: u16 },
    CastFI { dst: u16, a: u16 },
    /// Cast with a boxed or ill-typed operand; replicates the tree-walker's
    /// match (including its error for non-numeric targets).
    CastDyn { to: Ty, dst: Reg, a: Reg },
    /// Array length of any operand (errors on non-arrays, like the walker).
    LenA { dst: u16, a: Reg },
    /// Coerce a nested-loop size operand to `i64` (`"loop size"` error).
    SizeI { dst: u16, a: Reg },
    /// Coerce a condition result to `bool` (`"condition"` error).
    CondB { dst: u16, a: Reg },
    /// Certified unboxed reads: the array operand was proven `Arr(I/F/B)`.
    ReadVI { dst: u16, arr: u16, idx: u16 },
    ReadVF { dst: u16, arr: u16, idx: u16 },
    ReadVB { dst: u16, arr: u16, idx: u16 },
    /// Read from a V-register array into a V register.
    ReadVV { dst: u16, arr: u16, idx: u16 },
    /// Fully dynamic read (non-V array operand or non-I index).
    ReadDyn { dst: u16, arr: Reg, idx: Reg },
    /// Fallback primitive: boxes operands and calls the tree-walker's
    /// `eval_prim` — identical results and identical errors by construction.
    PrimV { op: PrimOp, dst: Reg, args: Vec<Reg> },
    TupleNewV { dst: u16, args: Vec<Reg> },
    /// Certified tuple projections (component class known at compile time).
    TupleGetI { dst: u16, t: u16, idx: u32 },
    TupleGetF { dst: u16, t: u16, idx: u32 },
    TupleGetB { dst: u16, t: u16, idx: u32 },
    TupleGetV { dst: u16, t: u16, idx: u32 },
    TupleGetDyn { dst: u16, t: Reg, idx: u32 },
    StructNewV { dst: u16, ty: Arc<StructTy>, args: Vec<Reg> },
    /// Certified field read with a compile-time-resolved field index.
    StructGetIdx { dst: Reg, obj: u16, idx: u32 },
    StructGetDyn { dst: u16, obj: Reg, name: Arc<str> },
    FlattenV { dst: u16, a: Reg },
    BucketValuesV { dst: u16, a: Reg },
    BucketKeysV { dst: u16, a: Reg },
    BucketLenV { dst: u16, a: Reg },
    BucketGetV { dst: u16, b: Reg, k: Reg, default: Option<Reg> },
    /// Call pure extern `kernel.externs[ext]` with the argument registers.
    /// Handlers resolve by name when a state is built; the declared scalar
    /// return type is enforced at the call site, like the tree-walker.
    CallExtern { dst: Reg, ext: u16, args: Vec<Reg> },
    /// Execute nested compiled loop `kernel.loops[i]`.
    Loop(u32),
}

/// A compiled block: write `params`, run `instrs`, read `result`.
#[derive(Clone, Debug)]
pub(crate) struct CBlock {
    pub params: Vec<Reg>,
    pub instrs: Vec<Instr>,
    pub result: Reg,
}

/// Recognized single-instruction reducers, applied without block dispatch.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FastRed {
    I(IOp),
    F(FOp),
}

/// A reducer over array values that is the element-wise lift of a
/// [`FastRed`] op: `(a, b) → collect(n) { a(j) ⊕ b(j) }` with `n` either
/// `len(a)` or a loop-invariant register — the two shapes Column-to-Row
/// Reduce and `vec_add` stage. The batch executor folds such a reducer
/// component-wise in place when `n`, `len(a)` and `len(b)` agree; in every
/// other case (and on every other tier) the reducer block itself runs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LiftedRed {
    pub op: FastRed,
    /// `Some(r)`: the collect's size is invariant `I` register `r`;
    /// `None`: it is `len(a)`.
    pub size: Option<u16>,
}

/// A compiled generator.
#[derive(Clone, Debug)]
pub(crate) struct CGen {
    pub kind: GenKind,
    pub cond: Option<CBlock>,
    pub key: Option<CBlock>,
    pub value: CBlock,
    pub reducer: Option<CBlock>,
    /// Register holding the (loop-invariant) explicit reduce identity.
    pub init: Option<Reg>,
    pub val_class: Class,
    /// Bucket keys are unboxed `i64` (typed hash index).
    pub key_typed: bool,
    pub fast_red: Option<FastRed>,
    pub lifted_red: Option<LiftedRed>,
}

/// A nested compiled loop: size register, generators, one destination
/// register per generator.
#[derive(Clone, Debug)]
pub(crate) struct CLoop {
    pub size: u16,
    pub gens: Vec<CGen>,
    pub dsts: Vec<Reg>,
}

/// A compiled top-level multiloop.
#[derive(Debug)]
pub(crate) struct Kernel {
    pub gens: Vec<CGen>,
    pub preamble: Vec<Instr>,
    pub loops: Vec<CLoop>,
    /// Free symbols to bind from the environment, with their registers.
    pub free: Vec<(Sym, Reg)>,
    pub n_regs: [usize; 4],
    /// Whether every generator's per-element blocks certify for the batched
    /// (block-at-a-time) executor; see [`batch`].
    pub batchable: bool,
    /// When not batchable, the typed reason for the first certification
    /// failure (surfaced as a per-loop fallback reason in tier stats).
    pub batch_reject: Option<batch::BatchIneligible>,
    /// Lazily initialized native (compiled C) tier entry: `Ok` holds the
    /// loaded shared object, `Err` the typed decline. Lives on the kernel
    /// so the LRU cache owns the `dlopen` handle — eviction drops (and
    /// `dlclose`s) it with the kernel.
    pub native: std::sync::OnceLock<Result<native::NativeEntry, dmll_codegen::NativeIneligible>>,
    /// Pure extern operations the kernel calls, indexed by
    /// [`Instr::CallExtern`]'s `ext` operand. Handlers are resolved by name
    /// per state (not per kernel), so cached kernels stay registry-agnostic.
    pub externs: Vec<ExternDecl>,
    /// Segmented execution plans, parallel to `loops`: `Some` for a nested
    /// loop whose trip count varies per element and whose body certifies
    /// for CSR-style flattened execution; see [`batch::SegPlan`].
    pub seg_plans: Vec<Option<batch::SegPlan>>,
    /// AoS→SoA column-extraction plan: set when every generator is an
    /// unconditional `collect(arr(i).field)` over a boxed struct array.
    /// Such loops (the runtime SoA pass's scatter) cannot batch — the
    /// element reads are boxed — but a dedicated extraction loop avoids
    /// per-element bytecode dispatch entirely; see [`Kernel::run_scatter`].
    pub scatter: Option<Vec<ScatterField>>,
    /// Trip-count registers (`I`, loop-invariant) of the nested `Collect`s
    /// the batch executor keeps as virtual vector columns; a run whose
    /// value exceeds [`batch::VEC_TRIP_CAP`] declines to the scalar loop.
    pub vec_trips: Vec<u16>,
}

/// One pure extern operation a kernel calls: the handler name and the
/// declared scalar return type enforced on every call's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ExternDecl {
    pub name: String,
    pub ret: Ty,
}

/// One generator of an AoS→SoA scatter loop: which V register holds the
/// boxed struct array, and which field each element contributes.
#[derive(Debug)]
pub(crate) struct ScatterField {
    /// Index into the V register file (a free-variable binding).
    pub arr: u16,
    /// Field name, resolved per element exactly like `StructGet`.
    pub field: String,
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// Per-invocation register files. One state per worker chunk; re-used for
/// chunk re-execution so recovery runs the very same kernel.
pub(crate) struct KState {
    ri: Vec<i64>,
    rf: Vec<f64>,
    rb: Vec<bool>,
    rv: Vec<Value>,
    /// Handlers resolved per [`Kernel::externs`] entry (`None` = missing
    /// from the registry: the call site raises `UnknownExtern`, so a loop
    /// that never calls it still runs, matching the tree-walker).
    ext: Vec<Option<ExternFn>>,
    /// Set once [`Kernel::run_range`] runs the element-at-a-time loop on
    /// this state (not the scatter path): callers that offered the loop to
    /// the batched tier count it batch-ineligible only then.
    pub(crate) element_loop_ran: bool,
}

/// An unboxed-or-boxed scalar crossing the accumulator boundary.
#[derive(Clone, Debug)]
pub(crate) enum Scalar {
    I(i64),
    F(f64),
    B(bool),
    V(Value),
}

impl KState {
    fn read_scalar(&self, r: Reg) -> Scalar {
        match r.class {
            Class::I => Scalar::I(self.ri[r.idx as usize]),
            Class::F => Scalar::F(self.rf[r.idx as usize]),
            Class::B => Scalar::B(self.rb[r.idx as usize]),
            Class::V => Scalar::V(self.rv[r.idx as usize].clone()),
        }
    }

    fn write_scalar(&mut self, r: Reg, s: Scalar) -> Result<(), EvalError> {
        match (r.class, s) {
            (Class::I, Scalar::I(x)) => self.ri[r.idx as usize] = x,
            (Class::F, Scalar::F(x)) => self.rf[r.idx as usize] = x,
            (Class::B, Scalar::B(x)) => self.rb[r.idx as usize] = x,
            (Class::V, Scalar::V(x)) => self.rv[r.idx as usize] = x,
            (Class::V, s) => self.rv[r.idx as usize] = scalar_value(s),
            _ => {
                return Err(EvalError::TypeMismatch(
                    "kernel register class mismatch".into(),
                ))
            }
        }
        Ok(())
    }

    /// Box the register's content into a [`Value`].
    fn value_of(&self, r: Reg) -> Value {
        match r.class {
            Class::I => Value::I64(self.ri[r.idx as usize]),
            Class::F => Value::F64(self.rf[r.idx as usize]),
            Class::B => Value::Bool(self.rb[r.idx as usize]),
            Class::V => self.rv[r.idx as usize].clone(),
        }
    }

    fn write_value(&mut self, r: Reg, v: Value) -> Result<(), EvalError> {
        match r.class {
            Class::I => {
                self.ri[r.idx as usize] = v
                    .as_i64()
                    .ok_or_else(|| EvalError::TypeMismatch("kernel expected i64".into()))?
            }
            Class::F => {
                self.rf[r.idx as usize] = v
                    .as_f64()
                    .ok_or_else(|| EvalError::TypeMismatch("kernel expected f64".into()))?
            }
            Class::B => {
                self.rb[r.idx as usize] = v
                    .as_bool()
                    .ok_or_else(|| EvalError::TypeMismatch("kernel expected bool".into()))?
            }
            Class::V => self.rv[r.idx as usize] = v,
        }
        Ok(())
    }
}

fn scalar_value(s: Scalar) -> Value {
    match s {
        Scalar::I(x) => Value::I64(x),
        Scalar::F(x) => Value::F64(x),
        Scalar::B(x) => Value::Bool(x),
        Scalar::V(v) => v,
    }
}

#[inline]
fn bounds(i: i64, len: usize) -> Result<usize, EvalError> {
    if i < 0 || i as usize >= len {
        Err(EvalError::IndexOutOfBounds { index: i, len })
    } else {
        Ok(i as usize)
    }
}

// ---------------------------------------------------------------------------
// Typed accumulators
// ---------------------------------------------------------------------------

/// A typed collect buffer (per generator, or per bucket).
#[derive(Debug)]
pub(crate) enum ColBuf {
    I(Vec<i64>),
    F(Vec<f64>),
    B(Vec<bool>),
    V(Vec<Value>),
}

impl ColBuf {
    fn new(class: Class, cap: usize) -> ColBuf {
        match class {
            Class::I => ColBuf::I(Vec::with_capacity(cap)),
            Class::F => ColBuf::F(Vec::with_capacity(cap)),
            Class::B => ColBuf::B(Vec::with_capacity(cap)),
            Class::V => ColBuf::V(Vec::with_capacity(cap)),
        }
    }

    fn push_result(&mut self, st: &KState, res: Reg) {
        match self {
            ColBuf::I(v) => v.push(st.ri[res.idx as usize]),
            ColBuf::F(v) => v.push(st.rf[res.idx as usize]),
            ColBuf::B(v) => v.push(st.rb[res.idx as usize]),
            ColBuf::V(v) => v.push(st.rv[res.idx as usize].clone()),
        }
    }

    fn extend(&mut self, other: ColBuf) -> Result<(), EvalError> {
        match (self, other) {
            (ColBuf::I(a), ColBuf::I(b)) => a.extend(b),
            (ColBuf::F(a), ColBuf::F(b)) => a.extend(b),
            (ColBuf::B(a), ColBuf::B(b)) => a.extend(b),
            (ColBuf::V(a), ColBuf::V(b)) => a.extend(b),
            // Scatter chunks latch their column type from their own first
            // element, so chunks of a heterogeneous array can disagree; box
            // both sides — exactly the boxed sequence the generic path
            // collects before `seal_array` decides storage.
            (slf, other) => {
                let mut vals = std::mem::replace(slf, ColBuf::V(Vec::new())).into_values();
                vals.extend(other.into_values());
                *slf = ColBuf::V(vals);
            }
        }
        Ok(())
    }

    /// Box every element (the generic collect representation).
    fn into_values(self) -> Vec<Value> {
        match self {
            ColBuf::I(v) => v.into_iter().map(Value::I64).collect(),
            ColBuf::F(v) => v.into_iter().map(Value::F64).collect(),
            ColBuf::B(v) => v.into_iter().map(Value::Bool).collect(),
            ColBuf::V(v) => v,
        }
    }

    /// Seal with the tree-walker's `seal_array` storage rules: typed
    /// buffers stay typed when non-empty; empty collects are `Boxed`.
    fn seal(self) -> ArrayVal {
        match self {
            ColBuf::I(v) if !v.is_empty() => ArrayVal::I64(Arc::new(v)),
            ColBuf::F(v) if !v.is_empty() => ArrayVal::F64(Arc::new(v)),
            ColBuf::B(v) if !v.is_empty() => ArrayVal::Bool(Arc::new(v)),
            ColBuf::V(v) => seal_array(v),
            _ => ArrayVal::Boxed(Arc::new(Vec::new())),
        }
    }
}

/// Slot-indexed per-bucket reduce states.
#[derive(Debug)]
pub(crate) enum RedBuf {
    I(Vec<i64>),
    F(Vec<f64>),
    B(Vec<bool>),
    V(Vec<Value>),
}

impl RedBuf {
    fn new(class: Class) -> RedBuf {
        match class {
            Class::I => RedBuf::I(Vec::new()),
            Class::F => RedBuf::F(Vec::new()),
            Class::B => RedBuf::B(Vec::new()),
            Class::V => RedBuf::V(Vec::new()),
        }
    }

    fn get(&self, slot: usize) -> Scalar {
        match self {
            RedBuf::I(v) => Scalar::I(v[slot]),
            RedBuf::F(v) => Scalar::F(v[slot]),
            RedBuf::B(v) => Scalar::B(v[slot]),
            RedBuf::V(v) => Scalar::V(v[slot].clone()),
        }
    }

    fn set(&mut self, slot: usize, s: Scalar) -> Result<(), EvalError> {
        match (self, s) {
            (RedBuf::I(v), Scalar::I(x)) => v[slot] = x,
            (RedBuf::F(v), Scalar::F(x)) => v[slot] = x,
            (RedBuf::B(v), Scalar::B(x)) => v[slot] = x,
            (RedBuf::V(v), Scalar::V(x)) => v[slot] = x,
            (RedBuf::V(v), x) => v[slot] = scalar_value(x),
            _ => {
                return Err(EvalError::TypeMismatch(
                    "bucket reduce class mismatch".into(),
                ))
            }
        }
        Ok(())
    }

    fn push(&mut self, s: Scalar) -> Result<(), EvalError> {
        match (self, s) {
            (RedBuf::I(v), Scalar::I(x)) => v.push(x),
            (RedBuf::F(v), Scalar::F(x)) => v.push(x),
            (RedBuf::B(v), Scalar::B(x)) => v.push(x),
            (RedBuf::V(v), Scalar::V(x)) => v.push(x),
            (RedBuf::V(v), x) => v.push(scalar_value(x)),
            _ => {
                return Err(EvalError::TypeMismatch(
                    "bucket reduce class mismatch".into(),
                ))
            }
        }
        Ok(())
    }

    fn len(&self) -> usize {
        match self {
            RedBuf::I(v) => v.len(),
            RedBuf::F(v) => v.len(),
            RedBuf::B(v) => v.len(),
            RedBuf::V(v) => v.len(),
        }
    }

    fn into_values(self) -> Vec<Value> {
        match self {
            RedBuf::I(v) => v.into_iter().map(Value::I64).collect(),
            RedBuf::F(v) => v.into_iter().map(Value::F64).collect(),
            RedBuf::B(v) => v.into_iter().map(Value::Bool).collect(),
            RedBuf::V(v) => v,
        }
    }
}

/// Multiplicative hasher for the typed bucket-key index: SipHash on every
/// key of every task was a fixed cost comparable to a small grouped query's
/// compute. The map's iteration order is never observed (first-seen order
/// lives in `keys`). Unlike SipHash it is invertible, so a key set built to
/// collide makes one task's index quadratic — a trade-off DESIGN §12
/// records for the multi-tenant service.
#[derive(Default)]
pub(crate) struct I64Hasher(u64);

impl Hasher for I64Hasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the typed key index hashes only i64 keys");
    }

    fn write_i64(&mut self, k: i64) {
        // Fold the well-mixed high half into the low bits the table indexes
        // by, so strided keys (multiples of a power of two) still spread.
        let h = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type I64Index = HashMap<i64, usize, BuildHasherDefault<I64Hasher>>;

/// First-seen-order bucket key directory, with an unboxed `i64` fast path.
#[derive(Debug)]
pub(crate) enum KeyIx {
    I {
        keys: Vec<i64>,
        ix: I64Index,
    },
    V {
        keys: Vec<Value>,
        ix: HashMap<Key, usize>,
    },
}

impl KeyIx {
    fn new(typed: bool) -> KeyIx {
        if typed {
            KeyIx::I {
                keys: Vec::new(),
                ix: I64Index::default(),
            }
        } else {
            KeyIx::V {
                keys: Vec::new(),
                ix: HashMap::new(),
            }
        }
    }

    /// Slot for the key currently in the key block's result register;
    /// `Err(slot)` means the key is new and `slot` is its fresh index.
    fn slot_of_result(&mut self, st: &KState, res: Reg) -> Result<usize, usize> {
        match self {
            KeyIx::I { keys, ix } => {
                let k = st.ri[res.idx as usize];
                match ix.get(&k) {
                    Some(&s) => Ok(s),
                    None => {
                        let s = keys.len();
                        ix.insert(k, s);
                        keys.push(k);
                        Err(s)
                    }
                }
            }
            KeyIx::V { keys, ix } => {
                let k = st.value_of(res);
                match ix.get(&Key(k.clone())) {
                    Some(&s) => Ok(s),
                    None => {
                        let s = keys.len();
                        ix.insert(Key(k.clone()), s);
                        keys.push(k);
                        Err(s)
                    }
                }
            }
        }
    }

    /// Slot for an already-boxed key value (used when merging chunks).
    fn slot_of_value(&mut self, k: &Value) -> Result<usize, usize> {
        match self {
            KeyIx::I { keys, ix } => {
                let ki = k.as_i64().expect("typed key index holds i64 keys");
                match ix.get(&ki) {
                    Some(&s) => Ok(s),
                    None => {
                        let s = keys.len();
                        ix.insert(ki, s);
                        keys.push(ki);
                        Err(s)
                    }
                }
            }
            KeyIx::V { keys, ix } => match ix.get(&Key(k.clone())) {
                Some(&s) => Ok(s),
                None => {
                    let s = keys.len();
                    ix.insert(Key(k.clone()), s);
                    keys.push(k.clone());
                    Err(s)
                }
            },
        }
    }

    fn into_values(self) -> Vec<Value> {
        match self {
            KeyIx::I { keys, .. } => keys.into_iter().map(Value::I64).collect(),
            KeyIx::V { keys, .. } => keys,
        }
    }

    fn key_values(&self) -> Vec<Value> {
        match self {
            KeyIx::I { keys, .. } => keys.iter().copied().map(Value::I64).collect(),
            KeyIx::V { keys, .. } => keys.clone(),
        }
    }
}

/// Per-generator accumulator (the compiled tier's counterpart of
/// [`crate::eval::Acc`]); merged across chunks in chunk order.
#[derive(Debug)]
pub(crate) enum KAcc {
    Col(ColBuf),
    RedI(Option<i64>),
    RedF(Option<f64>),
    RedB(Option<bool>),
    RedV(Option<Value>),
    BCol { keys: KeyIx, vals: Vec<ColBuf> },
    BRed { keys: KeyIx, vals: RedBuf },
}

impl KAcc {
    pub(crate) fn for_gen(gen: &CGen, range_hint: usize) -> KAcc {
        let cap = if gen.cond.is_none() {
            range_hint.min(1 << 22)
        } else {
            0
        };
        match gen.kind {
            GenKind::Collect => KAcc::Col(ColBuf::new(gen.val_class, cap)),
            GenKind::Reduce => match gen.val_class {
                Class::I => KAcc::RedI(None),
                Class::F => KAcc::RedF(None),
                Class::B => KAcc::RedB(None),
                Class::V => KAcc::RedV(None),
            },
            GenKind::BucketCollect => KAcc::BCol {
                keys: KeyIx::new(gen.key_typed),
                vals: Vec::new(),
            },
            GenKind::BucketReduce => KAcc::BRed {
                keys: KeyIx::new(gen.key_typed),
                vals: RedBuf::new(gen.val_class),
            },
        }
    }

    /// The key of bucket entry `slot`, boxed; `None` past the last entry.
    pub(crate) fn bucket_key(&self, slot: usize) -> Option<Value> {
        match self {
            KAcc::BCol { keys, .. } | KAcc::BRed { keys, .. } => match keys {
                KeyIx::I { keys, .. } => keys.get(slot).copied().map(Value::I64),
                KeyIx::V { keys, .. } => keys.get(slot).cloned(),
            },
            _ => None,
        }
    }

    /// Move bucket entry `slot` of `src` (its key and its typed value) to
    /// the end of `self`, an accumulator of the same generator; `src` keeps
    /// a hollow entry. The key is appended without a lookup and the hash
    /// index is not maintained: the cluster shuffle builds accumulators
    /// this way only from entries it knows are distinct, and only to be
    /// read back in order — as the incoming side of [`Kernel::merge`] or
    /// by the seal — never to be merged *into*.
    pub(crate) fn push_bucket_from(
        &mut self,
        src: &mut KAcc,
        slot: usize,
    ) -> Result<(), EvalError> {
        let mismatch = || EvalError::TypeMismatch("mismatched bucket accumulators".into());
        let (keys, src_keys) = match (&mut *self, &mut *src) {
            (KAcc::BCol { keys, vals }, KAcc::BCol { keys: sk, vals: sv }) => {
                vals.push(std::mem::replace(&mut sv[slot], ColBuf::V(Vec::new())));
                (keys, sk)
            }
            (KAcc::BRed { keys, vals }, KAcc::BRed { keys: sk, vals: sv }) => {
                vals.push(sv.get(slot))?;
                (keys, sk)
            }
            _ => return Err(mismatch()),
        };
        match (keys, src_keys) {
            (KeyIx::I { keys, .. }, KeyIx::I { keys: sk, .. }) => keys.push(sk[slot]),
            (KeyIx::V { keys, .. }, KeyIx::V { keys: sk, .. }) => keys.push(sk[slot].clone()),
            _ => return Err(mismatch()),
        }
        Ok(())
    }
}

/// Build a direct-indexed slot table covering every typed bucket key in
/// `accs`, when the key range is dense enough to beat per-key hashing.
/// Returns the minimum key and a table of `u32::MAX` sentinels, or `None`
/// when the accumulators are not typed-key buckets, hold no keys, or the
/// key range is too sparse for direct indexing.
fn dense_slot_table(accs: &[KAcc]) -> Option<(i64, Vec<u32>)> {
    let mut min_k = i64::MAX;
    let mut max_k = i64::MIN;
    let mut total = 0usize;
    for acc in accs {
        let keys = match acc {
            KAcc::BRed {
                keys: KeyIx::I { keys, .. },
                ..
            }
            | KAcc::BCol {
                keys: KeyIx::I { keys, .. },
                ..
            } => keys,
            _ => return None,
        };
        for &k in keys {
            min_k = min_k.min(k);
            max_k = max_k.max(k);
        }
        total += keys.len();
    }
    if total == 0 {
        return None; // nothing to stitch; the pairwise fold is free here
    }
    let span = (max_k as i128) - (min_k as i128) + 1;
    if span > (4 * total + 1024) as i128 || span >= u32::MAX as i128 {
        return None; // sparse keys: direct indexing would waste memory
    }
    Some((min_k, vec![u32::MAX; span as usize]))
}

/// Append a fresh typed key to a `KeyIx::I` directory, returning its slot.
/// The hash index is deliberately *not* maintained: the dense slot table
/// is the stitch's directory, and a stitched accumulator is sealed
/// immediately — it is never re-merged, so nothing reads the index.
fn push_typed_key(keys: &mut KeyIx, k: i64) -> usize {
    match keys {
        KeyIx::I { keys, .. } => {
            let s = keys.len();
            keys.push(k);
            s
        }
        KeyIx::V { .. } => unreachable!("dense stitch only runs on typed keys"),
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

impl Kernel {
    /// Bind free variables from `env`, resolve extern handlers, and run the
    /// loop-invariant preamble.
    pub(crate) fn new_state(&self, env: &Env, externs: &Externs) -> Result<KState, EvalError> {
        let mut st = KState {
            ri: vec![0; self.n_regs[0]],
            rf: vec![0.0; self.n_regs[1]],
            rb: vec![false; self.n_regs[2]],
            rv: vec![Value::Unit; self.n_regs[3]],
            ext: self
                .externs
                .iter()
                .map(|d| externs.get(&d.name).cloned())
                .collect(),
            element_loop_ran: false,
        };
        for (sym, reg) in &self.free {
            let v = env[sym.0 as usize]
                .as_ref()
                .ok_or_else(|| EvalError::TypeMismatch(format!("unset symbol {sym}")))?;
            st.write_value(*reg, v.clone())?;
        }
        for ins in &self.preamble {
            self.step(ins, &mut st)?;
        }
        Ok(st)
    }

    /// Run the top-level generators over `[start, end)`, returning raw
    /// accumulators (unsealed; the parallel executor merges them).
    pub(crate) fn run_range(
        &self,
        st: &mut KState,
        start: i64,
        end: i64,
    ) -> Result<Vec<KAcc>, EvalError> {
        let hint = (end - start).max(0) as usize;
        if hint > 0 {
            if let Some(plan) = &self.scatter {
                if let Some(accs) = self.run_scatter(plan, st, start, end) {
                    stats::record_scatter_loop();
                    return Ok(accs);
                }
            }
        }
        st.element_loop_ran = true;
        let mut accs: Vec<KAcc> = self.gens.iter().map(|g| KAcc::for_gen(g, hint)).collect();
        self.exec_gens(&self.gens, &mut accs, st, start, end)?;
        Ok(accs)
    }

    /// Why a run that was offered the batched tier ran the element loop
    /// instead: the certifier's reason, or — for a kernel that certifies —
    /// the only run-time decline there is.
    pub(crate) fn element_loop_reason(&self) -> BatchIneligible {
        self.batch_reject
            .unwrap_or(BatchIneligible::VectorTooWide)
    }

    /// Dedicated AoS→SoA extraction: one traversal pulling every planned
    /// field straight into typed column buffers, with no per-element
    /// bytecode dispatch or `Value` boxing. Bails with `None` (caller runs
    /// the generic path, which reproduces the interpreter's exact output or
    /// error) on anything the plan did not anticipate: a short array, a
    /// non-struct element, a missing field, or a field whose scalar type
    /// varies. Uniform typed columns seal exactly like `seal_array`'s
    /// promotion of uniform boxed collects, so outputs are bit-identical.
    fn run_scatter(
        &self,
        plan: &[ScatterField],
        st: &KState,
        start: i64,
        end: i64,
    ) -> Option<Vec<KAcc>> {
        let n = (end - start) as usize;
        let mut arrs: Vec<&[Value]> = Vec::with_capacity(plan.len());
        for f in plan {
            let Value::Arr(ArrayVal::Boxed(a)) = &st.rv[f.arr as usize] else {
                return None;
            };
            if start < 0 || (end as usize) > a.len() {
                return None;
            }
            arrs.push(a);
        }
        // Per-generator column; the scalar type latches on first element.
        let mut cols: Vec<Option<ColBuf>> = plan.iter().map(|_| None).collect();
        // Cached field position: struct arrays are homogeneous in practice,
        // so one name comparison per element usually suffices.
        let mut fpos: Vec<usize> = vec![0; plan.len()];
        let push = |slot: &mut Option<ColBuf>, v: &Value| -> Option<()> {
            match (slot, v) {
                (Some(ColBuf::I(v)), Value::I64(x)) => v.push(*x),
                (Some(ColBuf::F(v)), Value::F64(x)) => v.push(*x),
                (Some(ColBuf::B(v)), Value::Bool(x)) => v.push(*x),
                (slot @ None, Value::I64(x)) => {
                    let mut v = Vec::with_capacity(n.min(1 << 22));
                    v.push(*x);
                    *slot = Some(ColBuf::I(v));
                }
                (slot @ None, Value::F64(x)) => {
                    let mut v = Vec::with_capacity(n.min(1 << 22));
                    v.push(*x);
                    *slot = Some(ColBuf::F(v));
                }
                (slot @ None, Value::Bool(x)) => {
                    let mut v = Vec::with_capacity(n.min(1 << 22));
                    v.push(*x);
                    *slot = Some(ColBuf::B(v));
                }
                _ => return None,
            }
            Some(())
        };
        if plan.iter().all(|f| f.arr == plan[0].arr) {
            // Every generator reads the same source array (the common
            // AoS-input shape): one struct deref per element serves all
            // columns, and the dependent pointer chases — element header,
            // its field vector, its type's field list — are prefetched a
            // few elements ahead so the traversal is not latency-bound.
            let a = arrs[0];
            // Pointer identity of the (shared) `Arc<StructTy>` certifies the
            // cached field positions for the whole element: producers build
            // homogeneous collections off one type allocation, so after the
            // first element this is one compare instead of per-field name
            // lookups. All the arcs in `a` outlive the loop, so a stale
            // address can never alias a new allocation mid-traversal.
            let mut last_ty: *const StructTy = std::ptr::null();
            for i in start as usize..end as usize {
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                    if let Some(Value::Struct(s2)) = a.get(i + 16) {
                        _mm_prefetch(std::sync::Arc::as_ptr(s2) as *const i8, _MM_HINT_T0);
                    }
                    if let Some(Value::Struct(s2)) = a.get(i + 6) {
                        _mm_prefetch(s2.fields.as_ptr() as *const i8, _MM_HINT_T0);
                    }
                }
                let Value::Struct(s) = &a[i] else {
                    return None;
                };
                if std::sync::Arc::as_ptr(&s.ty) != last_ty {
                    let tyf = &s.ty.fields;
                    for (j, f) in plan.iter().enumerate() {
                        let cached = fpos[j];
                        match tyf.get(cached) {
                            Some((name, _)) if *name == f.field => {}
                            _ => {
                                fpos[j] =
                                    tyf.iter().position(|(name, _)| *name == f.field)?;
                            }
                        }
                    }
                    last_ty = std::sync::Arc::as_ptr(&s.ty);
                }
                for (j, col) in cols.iter_mut().enumerate() {
                    push(col, s.fields.get(fpos[j])?)?;
                }
            }
        } else {
            for i in start..end {
                for (j, f) in plan.iter().enumerate() {
                    let Value::Struct(s) = &arrs[j][i as usize] else {
                        return None;
                    };
                    let cached = fpos[j];
                    let fi = match s.ty.fields.get(cached) {
                        Some((name, _)) if *name == f.field => cached,
                        _ => {
                            let fi =
                                s.ty.fields.iter().position(|(name, _)| *name == f.field)?;
                            fpos[j] = fi;
                            fi
                        }
                    };
                    push(&mut cols[j], s.fields.get(fi)?)?;
                }
            }
        }
        Some(
            cols.into_iter()
                .map(|c| KAcc::Col(c.expect("n > 0 fills every column")))
                .collect(),
        )
    }

    /// Seal top-level accumulators into output values, one per generator.
    #[cfg(test)]
    pub(crate) fn seal_values(
        &self,
        accs: Vec<KAcc>,
        st: &mut KState,
    ) -> Result<Vec<Value>, EvalError> {
        self.gens
            .iter()
            .zip(accs)
            .map(|(g, acc)| self.seal_gen(g, acc, st).map(scalar_value))
            .collect()
    }

    /// Seal one generator's accumulator (at index `gi`) into a value.
    pub(crate) fn seal_gen_value(
        &self,
        gi: usize,
        acc: KAcc,
        st: &mut KState,
    ) -> Result<Value, EvalError> {
        self.seal_gen(&self.gens[gi], acc, st).map(scalar_value)
    }

    fn seal_gen(&self, gen: &CGen, acc: KAcc, st: &mut KState) -> Result<Scalar, EvalError> {
        Ok(match acc {
            KAcc::Col(buf) => Scalar::V(Value::Arr(buf.seal())),
            KAcc::RedI(s) => match (s, gen.init) {
                (Some(x), _) => Scalar::I(x),
                (None, Some(r)) => Scalar::I(st.ri[r.idx as usize]),
                (None, None) => return Err(EvalError::EmptyReduce),
            },
            KAcc::RedF(s) => match (s, gen.init) {
                (Some(x), _) => Scalar::F(x),
                (None, Some(r)) => Scalar::F(st.rf[r.idx as usize]),
                (None, None) => return Err(EvalError::EmptyReduce),
            },
            KAcc::RedB(s) => match (s, gen.init) {
                (Some(x), _) => Scalar::B(x),
                (None, Some(r)) => Scalar::B(st.rb[r.idx as usize]),
                (None, None) => return Err(EvalError::EmptyReduce),
            },
            KAcc::RedV(s) => match (s, gen.init) {
                (Some(x), _) => Scalar::V(x),
                (None, Some(r)) => Scalar::V(st.value_of(r)),
                (None, None) => return Err(EvalError::EmptyReduce),
            },
            KAcc::BCol { keys, vals } => Scalar::V(Value::Buckets(Arc::new(BucketsVal::new(
                keys.into_values(),
                vals.into_iter().map(|b| Value::Arr(b.seal())).collect(),
            )))),
            KAcc::BRed { keys, vals } => Scalar::V(Value::Buckets(Arc::new(BucketsVal::new(
                keys.into_values(),
                vals.into_values(),
            )))),
        })
    }

    /// True when every top-level generator's merge is *exactly*
    /// associative, so regrouping chunk boundaries cannot change the
    /// output bit pattern: collects concatenate contiguous subranges in
    /// order (any cut points yield the same sequence), and reductions are
    /// recognized single-instruction integer ops whose wrapping semantics
    /// are associative (`+`, `*`, `min`, `max` — not `-`). Float
    /// reductions reassociate rounding and never qualify. The sharded
    /// data plane uses this to run such loops on region-granular tasks.
    pub(crate) fn exact_assoc(&self) -> bool {
        self.gens.iter().all(|g| match g.kind {
            GenKind::Collect | GenKind::BucketCollect => true,
            GenKind::Reduce | GenKind::BucketReduce => matches!(
                g.fast_red,
                Some(FastRed::I(IOp::Add | IOp::Mul | IOp::Min | IOp::Max))
            ),
        })
    }

    /// The divide-and-conquer extension of [`Kernel::exact_assoc`]: also
    /// certifies *selection* reducers keyed by an integer — `mux(cmp(key(a),
    /// key(b)), a, b)` with a relational comparison. Min-by/max-by over a
    /// total order with a consistent tie-break is associative, so regrouping
    /// chunk boundaries picks the same winner bit-for-bit. Float keys never
    /// qualify: every comparison against a NaN key is false, so the winner
    /// would depend on where the split lands. Mirrors the transform layer's
    /// `dnc` certification pass at bytecode level.
    pub(crate) fn dnc_assoc(&self) -> bool {
        self.gens.iter().all(|g| match g.kind {
            GenKind::Collect | GenKind::BucketCollect => true,
            GenKind::Reduce | GenKind::BucketReduce => {
                matches!(
                    g.fast_red,
                    Some(FastRed::I(IOp::Add | IOp::Mul | IOp::Min | IOp::Max))
                ) || g.reducer.as_ref().is_some_and(selection_reducer_exact)
            }
        })
    }

    /// Merge two task accumulators for generator `gi`, `a` from the earlier
    /// task — the tree-walking executor's `merge_pair` semantics on typed
    /// buffers. `on_new(i)` reports each bucket entry `i` of `b` whose key
    /// `a` had not seen (the cluster shuffle tags those with where they
    /// were first emitted).
    pub(crate) fn merge(
        &self,
        gi: usize,
        a: KAcc,
        b: KAcc,
        st: &mut KState,
        mut on_new: impl FnMut(usize),
    ) -> Result<KAcc, EvalError> {
        let gen = &self.gens[gi];
        Ok(match (a, b) {
            (KAcc::Col(mut x), KAcc::Col(y)) => {
                x.extend(y)?;
                KAcc::Col(x)
            }
            (KAcc::RedI(x), KAcc::RedI(y)) => KAcc::RedI(match (x, y) {
                (Some(x), Some(y)) => Some(self.reduce_i(gen, x, y, st)?),
                (Some(x), None) => Some(x),
                (None, y) => y,
            }),
            (KAcc::RedF(x), KAcc::RedF(y)) => KAcc::RedF(match (x, y) {
                (Some(x), Some(y)) => Some(self.reduce_f(gen, x, y, st)?),
                (Some(x), None) => Some(x),
                (None, y) => y,
            }),
            (KAcc::RedB(x), KAcc::RedB(y)) => KAcc::RedB(match (x, y) {
                (Some(x), Some(y)) => Some(self.reduce_b(gen, x, y, st)?),
                (Some(x), None) => Some(x),
                (None, y) => y,
            }),
            (KAcc::RedV(x), KAcc::RedV(y)) => KAcc::RedV(match (x, y) {
                (Some(x), Some(y)) => Some(self.reduce_v(gen, x, y, st)?),
                (Some(x), None) => Some(x),
                (None, y) => y,
            }),
            (
                KAcc::BCol {
                    mut keys,
                    mut vals,
                },
                KAcc::BCol {
                    keys: bk, vals: bv, ..
                },
            ) => {
                for (i, (k, v)) in bk.key_values().into_iter().zip(bv).enumerate() {
                    match keys.slot_of_value(&k) {
                        Ok(slot) => vals[slot].extend(v)?,
                        Err(_new) => {
                            vals.push(v);
                            on_new(i);
                        }
                    }
                }
                KAcc::BCol { keys, vals }
            }
            (
                KAcc::BRed {
                    mut keys,
                    mut vals,
                },
                KAcc::BRed {
                    keys: bk, vals: bv, ..
                },
            ) => {
                let n = bv.len();
                for (ki, k) in bk.key_values().into_iter().enumerate() {
                    debug_assert!(ki < n);
                    let v = bv.get(ki);
                    match keys.slot_of_value(&k) {
                        Ok(slot) => {
                            let cur = vals.get(slot);
                            let next = self.reduce_scalar(gen, cur, v, st)?;
                            vals.set(slot, next)?;
                        }
                        Err(_new) => {
                            vals.push(v)?;
                            on_new(ki);
                        }
                    }
                }
                KAcc::BRed { keys, vals }
            }
            _ => {
                return Err(EvalError::TypeMismatch(
                    "mismatched accumulators across chunks".into(),
                ))
            }
        })
    }

    /// Merge all task accumulators for generator `gi` in one pass, in task
    /// order — "stitch once at merge, by task id", the parallel executor's
    /// only merge on both the blind and the sharded plane.
    ///
    /// Bit-identical to folding [`Kernel::merge`] pairwise over the same
    /// sequence: both visit tasks in task order and keys in first-seen
    /// order, and both combine values with the same `reduce_*` call on the
    /// same `(accumulated, incoming)` operands — only the slot-lookup
    /// bookkeeping differs. For bucket generators with typed `i64` keys and
    /// a dense key range, the per-task key boxing and per-key hash lookups
    /// of the pairwise fold are replaced by one direct-indexed slot table;
    /// everything else falls back to the pairwise fold.
    pub(crate) fn stitch(
        &self,
        gi: usize,
        accs: Vec<KAcc>,
        st: &mut KState,
    ) -> Result<KAcc, EvalError> {
        match accs.first() {
            Some(KAcc::BRed {
                keys: KeyIx::I { .. },
                ..
            })
            | Some(KAcc::BCol {
                keys: KeyIx::I { .. },
                ..
            }) => {}
            _ => return self.stitch_pairwise(gi, accs, st),
        }
        let Some((base, slots)) = dense_slot_table(&accs) else {
            return self.stitch_pairwise(gi, accs, st);
        };
        let mut slots = slots;
        let gen = &self.gens[gi];
        // The first task's accumulator is adopted wholesale — exactly what
        // the pairwise fold does — and only its keys are registered in the
        // slot table; later tasks stitch into it.
        let mut it = accs.into_iter();
        let mut out = it.next().unwrap_or_else(|| KAcc::for_gen(gen, 0));
        match &out {
            KAcc::BRed {
                keys: KeyIx::I { keys, .. },
                ..
            }
            | KAcc::BCol {
                keys: KeyIx::I { keys, .. },
                ..
            } => {
                for (s, &k) in keys.iter().enumerate() {
                    slots[(k - base) as usize] = s as u32;
                }
            }
            _ => unreachable!("dense stitch only runs on typed-key buckets"),
        }
        for acc in it {
            match (acc, &mut out) {
                (
                    KAcc::BRed {
                        keys: KeyIx::I { keys, .. },
                        vals: bv,
                    },
                    KAcc::BRed {
                        keys: out_keys,
                        vals: out_vals,
                    },
                ) => match (&mut *out_vals, bv, gen.fast_red) {
                    // Recognized single-instruction reducers run natively
                    // over the unboxed buffers: same arithmetic op on the
                    // same operands, so still bit-identical — only the
                    // per-key block dispatch and scalar boxing disappear.
                    (RedBuf::I(ov), RedBuf::I(bv), Some(FastRed::I(op))) => {
                        for (ki, k) in keys.into_iter().enumerate() {
                            let slot = &mut slots[(k - base) as usize];
                            if *slot == u32::MAX {
                                *slot = push_typed_key(out_keys, k) as u32;
                                ov.push(bv[ki]);
                            } else {
                                let s = *slot as usize;
                                ov[s] = apply_i(op, ov[s], bv[ki]);
                            }
                        }
                    }
                    (RedBuf::F(ov), RedBuf::F(bv), Some(FastRed::F(op))) => {
                        for (ki, k) in keys.into_iter().enumerate() {
                            let slot = &mut slots[(k - base) as usize];
                            if *slot == u32::MAX {
                                *slot = push_typed_key(out_keys, k) as u32;
                                ov.push(bv[ki]);
                            } else {
                                let s = *slot as usize;
                                ov[s] = apply_f(op, ov[s], bv[ki]);
                            }
                        }
                    }
                    (out_vals, bv, _) => {
                        for (ki, k) in keys.into_iter().enumerate() {
                            let slot = &mut slots[(k - base) as usize];
                            let v = bv.get(ki);
                            if *slot == u32::MAX {
                                *slot = push_typed_key(out_keys, k) as u32;
                                out_vals.push(v)?;
                            } else {
                                let cur = out_vals.get(*slot as usize);
                                let next = self.reduce_scalar(gen, cur, v, st)?;
                                out_vals.set(*slot as usize, next)?;
                            }
                        }
                    }
                },
                (
                    KAcc::BCol {
                        keys: KeyIx::I { keys, .. },
                        vals: bv,
                    },
                    KAcc::BCol {
                        keys: out_keys,
                        vals: out_vals,
                    },
                ) => {
                    for (k, v) in keys.into_iter().zip(bv) {
                        let slot = &mut slots[(k - base) as usize];
                        if *slot == u32::MAX {
                            *slot = push_typed_key(out_keys, k) as u32;
                            out_vals.push(v);
                        } else {
                            out_vals[*slot as usize].extend(v)?;
                        }
                    }
                }
                _ => {
                    return Err(EvalError::TypeMismatch(
                        "mismatched accumulators across chunks".into(),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Fold [`Kernel::merge`] over the task accumulators in task order: the
    /// stitch's path for everything but dense typed-key buckets.
    fn stitch_pairwise(
        &self,
        gi: usize,
        accs: Vec<KAcc>,
        st: &mut KState,
    ) -> Result<KAcc, EvalError> {
        let mut it = accs.into_iter();
        let mut merged = it.next().ok_or(EvalError::EmptyReduce)?;
        for acc in it {
            merged = self.merge(gi, merged, acc, st, |_| {})?;
        }
        Ok(merged)
    }

    /// The per-element loop shared by the top level and nested loops;
    /// mirrors `eval_loop_accs` stmt-for-stmt (cond, then value, then key).
    fn exec_gens(
        &self,
        gens: &[CGen],
        accs: &mut [KAcc],
        st: &mut KState,
        start: i64,
        end: i64,
    ) -> Result<(), EvalError> {
        for i in start..end {
            for (gen, acc) in gens.iter().zip(accs.iter_mut()) {
                if let Some(c) = &gen.cond {
                    st.ri[c.params[0].idx as usize] = i;
                    self.exec_block(c, st)?;
                    if !st.rb[c.result.idx as usize] {
                        continue;
                    }
                }
                let vb = &gen.value;
                st.ri[vb.params[0].idx as usize] = i;
                self.exec_block(vb, st)?;
                let res = vb.result;
                match acc {
                    KAcc::Col(buf) => buf.push_result(st, res),
                    KAcc::RedI(state) => {
                        let x = st.ri[res.idx as usize];
                        let next = match state.take() {
                            Some(cur) => self.reduce_i(gen, cur, x, st)?,
                            None => match gen.init {
                                Some(r) => {
                                    let i0 = st.ri[r.idx as usize];
                                    self.reduce_i(gen, i0, x, st)?
                                }
                                None => x,
                            },
                        };
                        *state = Some(next);
                    }
                    KAcc::RedF(state) => {
                        let x = st.rf[res.idx as usize];
                        let next = match state.take() {
                            Some(cur) => self.reduce_f(gen, cur, x, st)?,
                            None => match gen.init {
                                Some(r) => {
                                    let i0 = st.rf[r.idx as usize];
                                    self.reduce_f(gen, i0, x, st)?
                                }
                                None => x,
                            },
                        };
                        *state = Some(next);
                    }
                    KAcc::RedB(state) => {
                        let x = st.rb[res.idx as usize];
                        let next = match state.take() {
                            Some(cur) => self.reduce_b(gen, cur, x, st)?,
                            None => match gen.init {
                                Some(r) => {
                                    let i0 = st.rb[r.idx as usize];
                                    self.reduce_b(gen, i0, x, st)?
                                }
                                None => x,
                            },
                        };
                        *state = Some(next);
                    }
                    KAcc::RedV(state) => {
                        let x = st.rv[res.idx as usize].clone();
                        let next = match state.take() {
                            Some(cur) => self.reduce_v(gen, cur, x, st)?,
                            None => match gen.init {
                                Some(r) => {
                                    let i0 = st.value_of(r);
                                    self.reduce_v(gen, i0, x, st)?
                                }
                                None => x,
                            },
                        };
                        *state = Some(next);
                    }
                    KAcc::BCol { keys, vals } => {
                        let kb = gen.key.as_ref().expect("bucket gen has key");
                        st.ri[kb.params[0].idx as usize] = i;
                        self.exec_block(kb, st)?;
                        match keys.slot_of_result(st, kb.result) {
                            Ok(slot) => vals[slot].push_result(st, res),
                            Err(_new) => {
                                let mut buf = ColBuf::new(gen.val_class, 1);
                                buf.push_result(st, res);
                                vals.push(buf);
                            }
                        }
                    }
                    KAcc::BRed { keys, vals } => {
                        let kb = gen.key.as_ref().expect("bucket gen has key");
                        st.ri[kb.params[0].idx as usize] = i;
                        self.exec_block(kb, st)?;
                        match keys.slot_of_result(st, kb.result) {
                            Ok(slot) => match (&mut *vals, res.class) {
                                // Unboxed fast paths for scalar bucket sums.
                                (RedBuf::I(v), Class::I) => {
                                    let x = st.ri[res.idx as usize];
                                    v[slot] = self.reduce_i(gen, v[slot], x, st)?;
                                }
                                (RedBuf::F(v), Class::F) => {
                                    let x = st.rf[res.idx as usize];
                                    v[slot] = self.reduce_f(gen, v[slot], x, st)?;
                                }
                                _ => {
                                    let cur = vals.get(slot);
                                    let x = st.read_scalar(res);
                                    let next = self.reduce_scalar(gen, cur, x, st)?;
                                    vals.set(slot, next)?;
                                }
                            },
                            Err(_new) => vals.push(st.read_scalar(res))?,
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn exec_block(&self, b: &CBlock, st: &mut KState) -> Result<(), EvalError> {
        for ins in &b.instrs {
            self.step(ins, st)?;
        }
        Ok(())
    }

    fn reduce_i(&self, gen: &CGen, a: i64, b: i64, st: &mut KState) -> Result<i64, EvalError> {
        if let Some(FastRed::I(op)) = gen.fast_red {
            return Ok(apply_i(op, a, b));
        }
        let rb = gen.reducer.as_ref().expect("reduce gen has reducer");
        st.ri[rb.params[0].idx as usize] = a;
        st.ri[rb.params[1].idx as usize] = b;
        self.exec_block(rb, st)?;
        Ok(st.ri[rb.result.idx as usize])
    }

    fn reduce_f(&self, gen: &CGen, a: f64, b: f64, st: &mut KState) -> Result<f64, EvalError> {
        if let Some(FastRed::F(op)) = gen.fast_red {
            return Ok(apply_f(op, a, b));
        }
        let rb = gen.reducer.as_ref().expect("reduce gen has reducer");
        st.rf[rb.params[0].idx as usize] = a;
        st.rf[rb.params[1].idx as usize] = b;
        self.exec_block(rb, st)?;
        Ok(st.rf[rb.result.idx as usize])
    }

    fn reduce_b(&self, gen: &CGen, a: bool, b: bool, st: &mut KState) -> Result<bool, EvalError> {
        let rb = gen.reducer.as_ref().expect("reduce gen has reducer");
        st.rb[rb.params[0].idx as usize] = a;
        st.rb[rb.params[1].idx as usize] = b;
        self.exec_block(rb, st)?;
        Ok(st.rb[rb.result.idx as usize])
    }

    fn reduce_v(&self, gen: &CGen, a: Value, b: Value, st: &mut KState) -> Result<Value, EvalError> {
        let rb = gen.reducer.as_ref().expect("reduce gen has reducer");
        st.rv[rb.params[0].idx as usize] = a;
        st.rv[rb.params[1].idx as usize] = b;
        self.exec_block(rb, st)?;
        Ok(st.rv[rb.result.idx as usize].clone())
    }

    fn reduce_scalar(
        &self,
        gen: &CGen,
        a: Scalar,
        b: Scalar,
        st: &mut KState,
    ) -> Result<Scalar, EvalError> {
        match (a, b) {
            (Scalar::I(a), Scalar::I(b)) => Ok(Scalar::I(self.reduce_i(gen, a, b, st)?)),
            (Scalar::F(a), Scalar::F(b)) => Ok(Scalar::F(self.reduce_f(gen, a, b, st)?)),
            (Scalar::B(a), Scalar::B(b)) => Ok(Scalar::B(self.reduce_b(gen, a, b, st)?)),
            (Scalar::V(a), Scalar::V(b)) => Ok(Scalar::V(self.reduce_v(gen, a, b, st)?)),
            _ => Err(EvalError::TypeMismatch(
                "mismatched accumulators across chunks".into(),
            )),
        }
    }

    fn run_cloop(&self, cl: &CLoop, st: &mut KState) -> Result<(), EvalError> {
        let size = st.ri[cl.size as usize];
        let hint = size.max(0) as usize;
        let mut accs: Vec<KAcc> = cl.gens.iter().map(|g| KAcc::for_gen(g, hint)).collect();
        self.exec_gens(&cl.gens, &mut accs, st, 0, size)?;
        for ((gen, dst), acc) in cl.gens.iter().zip(&cl.dsts).zip(accs) {
            let s = self.seal_gen(gen, acc, st)?;
            st.write_scalar(*dst, s)?;
        }
        Ok(())
    }

    fn step(&self, ins: &Instr, st: &mut KState) -> Result<(), EvalError> {
        match ins {
            Instr::ConstI { dst, v } => st.ri[*dst as usize] = *v,
            Instr::ConstF { dst, v } => st.rf[*dst as usize] = *v,
            Instr::ConstB { dst, v } => st.rb[*dst as usize] = *v,
            Instr::ConstV { dst, v } => st.rv[*dst as usize] = v.clone(),
            Instr::BinI { op, dst, a, b } => {
                st.ri[*dst as usize] = apply_i(*op, st.ri[*a as usize], st.ri[*b as usize])
            }
            Instr::DivI { dst, a, b } => {
                let (x, y) = (st.ri[*a as usize], st.ri[*b as usize]);
                if y == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                st.ri[*dst as usize] = x / y;
            }
            Instr::RemI { dst, a, b } => {
                let (x, y) = (st.ri[*a as usize], st.ri[*b as usize]);
                if y == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                st.ri[*dst as usize] = x % y;
            }
            Instr::BinF { op, dst, a, b } => {
                st.rf[*dst as usize] = apply_f(*op, st.rf[*a as usize], st.rf[*b as usize])
            }
            Instr::NegI { dst, a } => st.ri[*dst as usize] = -st.ri[*a as usize],
            Instr::NegF { dst, a } => st.rf[*dst as usize] = -st.rf[*a as usize],
            Instr::CmpI { op, dst, a, b } => {
                let (x, y) = (st.ri[*a as usize], st.ri[*b as usize]);
                st.rb[*dst as usize] = apply_cmp(*op, x, y);
            }
            Instr::CmpF { op, dst, a, b } => {
                let (x, y) = (st.rf[*a as usize], st.rf[*b as usize]);
                st.rb[*dst as usize] = apply_cmp(*op, x, y);
            }
            Instr::CmpB { op, dst, a, b } => {
                let (x, y) = (st.rb[*a as usize], st.rb[*b as usize]);
                st.rb[*dst as usize] = match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    _ => unreachable!("only Eq/Ne compiled for bools"),
                };
            }
            Instr::AndB { dst, a, b } => {
                st.rb[*dst as usize] = st.rb[*a as usize] && st.rb[*b as usize]
            }
            Instr::OrB { dst, a, b } => {
                st.rb[*dst as usize] = st.rb[*a as usize] || st.rb[*b as usize]
            }
            Instr::NotB { dst, a } => st.rb[*dst as usize] = !st.rb[*a as usize],
            Instr::MuxI { dst, c, a, b } => {
                st.ri[*dst as usize] = if st.rb[*c as usize] {
                    st.ri[*a as usize]
                } else {
                    st.ri[*b as usize]
                }
            }
            Instr::MuxF { dst, c, a, b } => {
                st.rf[*dst as usize] = if st.rb[*c as usize] {
                    st.rf[*a as usize]
                } else {
                    st.rf[*b as usize]
                }
            }
            Instr::MuxB { dst, c, a, b } => {
                st.rb[*dst as usize] = if st.rb[*c as usize] {
                    st.rb[*a as usize]
                } else {
                    st.rb[*b as usize]
                }
            }
            Instr::MuxV { dst, c, a, b } => {
                let v = if st.rb[*c as usize] {
                    st.rv[*a as usize].clone()
                } else {
                    st.rv[*b as usize].clone()
                };
                st.rv[*dst as usize] = v;
            }
            Instr::MathF { f, dst, a } => {
                st.rf[*dst as usize] = eval_math(*f, st.rf[*a as usize])
            }
            Instr::MathV { f, dst, a } => {
                let x = st
                    .value_of(*a)
                    .as_f64()
                    .ok_or_else(|| EvalError::TypeMismatch("math on non-float".into()))?;
                st.rf[*dst as usize] = eval_math(*f, x);
            }
            Instr::CastIF { dst, a } => st.rf[*dst as usize] = st.ri[*a as usize] as f64,
            Instr::CastFI { dst, a } => st.ri[*dst as usize] = st.rf[*a as usize] as i64,
            Instr::CastDyn { to, dst, a } => {
                let v = st.value_of(*a);
                let out = match (to, v) {
                    (Ty::F64, Value::I64(i)) => Value::F64(i as f64),
                    (Ty::F64, Value::F64(f)) => Value::F64(f),
                    (Ty::I64, Value::F64(f)) => Value::I64(f as i64),
                    (Ty::I64, Value::I64(i)) => Value::I64(i),
                    (t, v) => return Err(EvalError::TypeMismatch(format!("cast {v:?} to {t}"))),
                };
                st.write_value(*dst, out)?;
            }
            Instr::LenA { dst, a } => {
                let v = st.value_of(*a);
                let arr = v
                    .as_arr()
                    .ok_or_else(|| EvalError::TypeMismatch("len of non-array".into()))?;
                st.ri[*dst as usize] = arr.len() as i64;
            }
            Instr::SizeI { dst, a } => {
                st.ri[*dst as usize] = st
                    .value_of(*a)
                    .as_i64()
                    .ok_or_else(|| EvalError::TypeMismatch("loop size".into()))?;
            }
            Instr::CondB { dst, a } => {
                st.rb[*dst as usize] = st
                    .value_of(*a)
                    .as_bool()
                    .ok_or_else(|| EvalError::TypeMismatch("condition".into()))?;
            }
            Instr::ReadVI { dst, arr, idx } => {
                let i = st.ri[*idx as usize];
                let out = match &st.rv[*arr as usize] {
                    Value::Arr(ArrayVal::I64(v)) => v[bounds(i, v.len())?],
                    other => read_array(other, &Value::I64(i))?
                        .as_i64()
                        .ok_or_else(|| EvalError::TypeMismatch("typed array read".into()))?,
                };
                st.ri[*dst as usize] = out;
            }
            Instr::ReadVF { dst, arr, idx } => {
                let i = st.ri[*idx as usize];
                let out = match &st.rv[*arr as usize] {
                    Value::Arr(ArrayVal::F64(v)) => v[bounds(i, v.len())?],
                    other => read_array(other, &Value::I64(i))?
                        .as_f64()
                        .ok_or_else(|| EvalError::TypeMismatch("typed array read".into()))?,
                };
                st.rf[*dst as usize] = out;
            }
            Instr::ReadVB { dst, arr, idx } => {
                let i = st.ri[*idx as usize];
                let out = match &st.rv[*arr as usize] {
                    Value::Arr(ArrayVal::Bool(v)) => v[bounds(i, v.len())?],
                    other => read_array(other, &Value::I64(i))?
                        .as_bool()
                        .ok_or_else(|| EvalError::TypeMismatch("typed array read".into()))?,
                };
                st.rb[*dst as usize] = out;
            }
            Instr::ReadVV { dst, arr, idx } => {
                let i = st.ri[*idx as usize];
                let out = read_array(&st.rv[*arr as usize], &Value::I64(i))?;
                st.rv[*dst as usize] = out;
            }
            Instr::ReadDyn { dst, arr, idx } => {
                let a = st.value_of(*arr);
                let i = st.value_of(*idx);
                st.rv[*dst as usize] = read_array(&a, &i)?;
            }
            Instr::PrimV { op, dst, args } => {
                let vs: Vec<Value> = args.iter().map(|r| st.value_of(*r)).collect();
                let out = eval_prim(*op, &vs)?;
                st.write_value(*dst, out)?;
            }
            Instr::TupleNewV { dst, args } => {
                let vs: Vec<Value> = args.iter().map(|r| st.value_of(*r)).collect();
                st.rv[*dst as usize] = Value::Tuple(Arc::new(vs));
            }
            Instr::TupleGetI { dst, t, idx } => {
                st.ri[*dst as usize] = tuple_component(&st.rv[*t as usize], *idx)?
                    .as_i64()
                    .ok_or_else(|| EvalError::TypeMismatch("typed tuple read".into()))?;
            }
            Instr::TupleGetF { dst, t, idx } => {
                st.rf[*dst as usize] = tuple_component(&st.rv[*t as usize], *idx)?
                    .as_f64()
                    .ok_or_else(|| EvalError::TypeMismatch("typed tuple read".into()))?;
            }
            Instr::TupleGetB { dst, t, idx } => {
                st.rb[*dst as usize] = tuple_component(&st.rv[*t as usize], *idx)?
                    .as_bool()
                    .ok_or_else(|| EvalError::TypeMismatch("typed tuple read".into()))?;
            }
            Instr::TupleGetV { dst, t, idx } => {
                let v = tuple_component(&st.rv[*t as usize], *idx)?.clone();
                st.rv[*dst as usize] = v;
            }
            Instr::TupleGetDyn { dst, t, idx } => {
                let v = st.value_of(*t);
                let out = tuple_component(&v, *idx)?.clone();
                st.rv[*dst as usize] = out;
            }
            Instr::StructNewV { dst, ty, args } => {
                let vs: Vec<Value> = args.iter().map(|r| st.value_of(*r)).collect();
                st.rv[*dst as usize] = Value::Struct(Arc::new(StructVal {
                    ty: ty.clone(),
                    fields: vs,
                }));
            }
            Instr::StructGetIdx { dst, obj, idx } => {
                let out = match &st.rv[*obj as usize] {
                    Value::Struct(s) => s
                        .fields
                        .get(*idx as usize)
                        .cloned()
                        .ok_or_else(|| EvalError::TypeMismatch("typed field read".into()))?,
                    other => {
                        return Err(EvalError::TypeMismatch(format!(
                            "field read from {other:?}"
                        )))
                    }
                };
                st.write_value(*dst, out)?;
            }
            Instr::StructGetDyn { dst, obj, name } => {
                let v = st.value_of(*obj);
                let out = match v {
                    Value::Struct(s) => s
                        .field(name)
                        .cloned()
                        .ok_or_else(|| EvalError::TypeMismatch(format!("no field {name}")))?,
                    other => {
                        return Err(EvalError::TypeMismatch(format!(
                            "field read from {other:?}"
                        )))
                    }
                };
                st.rv[*dst as usize] = out;
            }
            Instr::FlattenV { dst, a } => {
                let v = st.value_of(*a);
                let outer = v
                    .as_arr()
                    .ok_or_else(|| EvalError::TypeMismatch("flatten of non-array".into()))?;
                let mut out = Vec::new();
                for i in 0..outer.len() {
                    let inner = outer.get(i).expect("in range");
                    let inner = inner
                        .as_arr()
                        .ok_or_else(|| EvalError::TypeMismatch("flatten of non-nested".into()))?;
                    for j in 0..inner.len() {
                        out.push(inner.get(j).expect("in range"));
                    }
                }
                st.rv[*dst as usize] = Value::Arr(seal_array(out));
            }
            Instr::BucketValuesV { dst, a } => {
                let out = match st.value_of(*a) {
                    Value::Buckets(b) => Value::Arr(seal_array(b.vals.clone())),
                    other => {
                        return Err(EvalError::TypeMismatch(format!(
                            "bucketValues of {other:?}"
                        )))
                    }
                };
                st.rv[*dst as usize] = out;
            }
            Instr::BucketKeysV { dst, a } => {
                let out = match st.value_of(*a) {
                    Value::Buckets(b) => Value::Arr(seal_array(b.keys.clone())),
                    other => {
                        return Err(EvalError::TypeMismatch(format!("bucketKeys of {other:?}")))
                    }
                };
                st.rv[*dst as usize] = out;
            }
            Instr::BucketLenV { dst, a } => {
                let out = match st.value_of(*a) {
                    Value::Buckets(b) => b.len() as i64,
                    other => {
                        return Err(EvalError::TypeMismatch(format!("bucketLen of {other:?}")))
                    }
                };
                st.ri[*dst as usize] = out;
            }
            Instr::BucketGetV { dst, b, k, default } => {
                let bv = st.value_of(*b);
                let kv = st.value_of(*k);
                let out = match bv {
                    Value::Buckets(bk) => match bk.get(&kv) {
                        Some(v) => v.clone(),
                        None => match default {
                            Some(d) => st.value_of(*d),
                            None => return Err(EvalError::MissingBucket(kv.to_string())),
                        },
                    },
                    other => {
                        return Err(EvalError::TypeMismatch(format!("bucketGet of {other:?}")))
                    }
                };
                st.rv[*dst as usize] = out;
            }
            Instr::CallExtern { dst, ext, args } => {
                let decl = &self.externs[*ext as usize];
                let f = st.ext[*ext as usize]
                    .clone()
                    .ok_or_else(|| EvalError::UnknownExtern(decl.name.clone()))?;
                let vs: Vec<Value> = args.iter().map(|r| st.value_of(*r)).collect();
                let out = f(&vs)?;
                check_extern_ret(&decl.name, &decl.ret, &out)?;
                st.write_value(*dst, out)?;
            }
            Instr::Loop(li) => self.run_cloop(&self.loops[*li as usize], st)?,
        }
        Ok(())
    }
}

fn tuple_component(v: &Value, idx: u32) -> Result<&Value, EvalError> {
    match v {
        Value::Tuple(vs) => vs
            .get(idx as usize)
            .ok_or_else(|| EvalError::TypeMismatch("tuple index".into())),
        other => Err(EvalError::TypeMismatch(format!(
            "tuple projection from {other:?}"
        ))),
    }
}

/// True when `rb` is a selection reducer over an integer key: either
/// `mux(a <rel> b, a, b)` picking one of two `i64` accumulands, or
/// argmin/argmax over virtual tuples comparing the same `i64` component
/// of each accumuland. Both shapes return one param unmodified, so the
/// merge is a pure choice and associativity follows from the total order
/// on `i64` plus the consistent tie-break the comparison direction fixes.
fn selection_reducer_exact(rb: &CBlock) -> bool {
    let [p0, p1] = rb.params[..] else { return false };
    if p0.idx == p1.idx || p0.class != p1.class || rb.result.class != p0.class {
        return false;
    }
    let pair = |x: u16, y: u16| (x == p0.idx && y == p1.idx) || (x == p1.idx && y == p0.idx);
    let rel = |op: &CmpOp| matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
    match (p0.class, rb.instrs.as_slice()) {
        (
            Class::I,
            [Instr::CmpI { op, dst: c, a, b }, Instr::MuxI { dst, c: mc, a: ma, b: mb }],
        ) => rel(op) && pair(*a, *b) && mc == c && pair(*ma, *mb) && *dst == rb.result.idx,
        (
            Class::V,
            [Instr::TupleGetI { dst: k0, t: t0, idx: i0 }, Instr::TupleGetI { dst: k1, t: t1, idx: i1 }, Instr::CmpI { op, dst: c, a, b }, Instr::MuxV { dst, c: mc, a: ma, b: mb }],
        ) => {
            // Map each comparison operand back to the accumuland whose key
            // it extracts; the pair check then demands one key per param.
            let key_param = |k: u16| {
                if k == *k0 {
                    Some(*t0)
                } else if k == *k1 {
                    Some(*t1)
                } else {
                    None
                }
            };
            rel(op)
                && i0 == i1
                && k0 != k1
                && pair(*t0, *t1)
                && matches!((key_param(*a), key_param(*b)), (Some(x), Some(y)) if pair(x, y))
                && mc == c
                && pair(*ma, *mb)
                && *dst == rb.result.idx
        }
        _ => false,
    }
}

#[inline]
fn apply_i(op: IOp, a: i64, b: i64) -> i64 {
    match op {
        IOp::Add => a.wrapping_add(b),
        IOp::Sub => a.wrapping_sub(b),
        IOp::Mul => a.wrapping_mul(b),
        IOp::Min => a.min(b),
        IOp::Max => a.max(b),
    }
}

#[inline]
fn apply_f(op: FOp, a: f64, b: f64) -> f64 {
    match op {
        FOp::Add => a + b,
        FOp::Sub => a - b,
        FOp::Mul => a * b,
        FOp::Div => a / b,
        FOp::Min => a.min(b),
        FOp::Max => a.max(b),
    }
}

#[inline]
fn apply_cmp<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Why a multiloop could not be compiled; the loop falls back to the
/// tree-walker, which is always semantically safe.
#[derive(Debug)]
pub(crate) struct Reject(pub &'static str);

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not compilable: {}", self.0)
    }
}

#[derive(Clone)]
struct SymInfo {
    reg: Reg,
    vty: VTy,
    /// True when the symbol's value is the same for every loop element
    /// (free variable, constant, or computed only from invariants).
    inv: bool,
}

struct Compiler<'e> {
    env: &'e Env,
    n: [usize; 4],
    syms: HashMap<Sym, SymInfo>,
    consts: HashMap<Const, (Reg, VTy)>,
    preamble: Vec<Instr>,
    loops: Vec<CLoop>,
    free: Vec<(Sym, Reg)>,
    externs: Vec<ExternDecl>,
}

/// Free variables a multiloop's generators reference, in `Sym` order —
/// the binding order is part of the kernel ABI and must match the cache
/// key's `VTy` order.
pub(crate) fn loop_free_syms(ml: &Multiloop) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    for g in &ml.gens {
        for b in g.blocks() {
            out.extend(free_syms(b));
        }
        if let Gen::Reduce { init: Some(e), .. } | Gen::BucketReduce { init: Some(e), .. } = g {
            if let Exp::Sym(s) = e {
                out.insert(*s);
            }
        }
    }
    out
}

/// Compile a multiloop against the refined types of the current
/// environment. The top-level `size` is *not* compiled — callers evaluate
/// it and drive [`Kernel::run_range`] with explicit bounds (that is how the
/// parallel executor feeds chunk subranges to the same kernel).
pub(crate) fn compile_multiloop(ml: &Multiloop, env: &Env) -> Result<Kernel, Reject> {
    let mut c = Compiler {
        env,
        n: [0; 4],
        syms: HashMap::new(),
        consts: HashMap::new(),
        preamble: Vec::new(),
        loops: Vec::new(),
        free: Vec::new(),
        externs: Vec::new(),
    };
    for sym in loop_free_syms(ml) {
        c.bind_free(sym)?;
    }
    let mut gens = Vec::with_capacity(ml.gens.len());
    for g in &ml.gens {
        gens.push(c.compile_gen(g)?.0);
    }
    let scatter = scatter_plan(ml, &c);
    let mut kernel = Kernel {
        gens,
        preamble: c.preamble,
        loops: c.loops,
        free: c.free,
        externs: c.externs,
        n_regs: c.n,
        batchable: false,
        batch_reject: None,
        native: std::sync::OnceLock::new(),
        seg_plans: Vec::new(),
        scatter,
        vec_trips: Vec::new(),
    };
    let (reject, seg_plans, vec_trips) = batch::batch_certify(&kernel);
    kernel.batch_reject = reject;
    kernel.seg_plans = seg_plans;
    kernel.vec_trips = vec_trips;
    kernel.batchable = kernel.batch_reject.is_none();
    Ok(kernel)
}

/// Recognize the runtime SoA pass's scatter shape: every generator is an
/// unconditional `Collect` whose value block is exactly
/// `e = arr(i); f = e.field; => f` with `arr` a free variable refined to a
/// boxed array. Anything else (conditions, extra statements, typed
/// arrays) keeps the generic path.
fn scatter_plan(ml: &Multiloop, c: &Compiler) -> Option<Vec<ScatterField>> {
    let mut plan = Vec::with_capacity(ml.gens.len());
    for g in &ml.gens {
        let Gen::Collect { cond: None, value } = g else {
            return None;
        };
        if value.params.len() != 1 || value.stmts.len() != 2 {
            return None;
        }
        let p = value.params[0];
        let (read, get) = (&value.stmts[0], &value.stmts[1]);
        let Def::ArrayRead {
            arr: Exp::Sym(arr),
            index: Exp::Sym(ix),
        } = &read.def
        else {
            return None;
        };
        let Def::StructGet {
            obj: Exp::Sym(obj),
            field,
        } = &get.def
        else {
            return None;
        };
        if *ix != p || *obj != read.lhs[0] || value.result != Exp::Sym(get.lhs[0]) {
            return None;
        }
        let info = c.syms.get(arr)?;
        if info.reg.class != Class::V || !matches!(info.vty, VTy::ArrGen) {
            return None;
        }
        plan.push(ScatterField {
            arr: info.reg.idx,
            field: field.clone(),
        });
    }
    (!plan.is_empty()).then_some(plan)
}

impl<'e> Compiler<'e> {
    fn alloc(&mut self, class: Class) -> Result<Reg, Reject> {
        let slot = match class {
            Class::I => &mut self.n[0],
            Class::F => &mut self.n[1],
            Class::B => &mut self.n[2],
            Class::V => &mut self.n[3],
        };
        if *slot > u16::MAX as usize {
            return Err(Reject("register file overflow"));
        }
        let idx = *slot as u16;
        *slot += 1;
        Ok(Reg { class, idx })
    }

    fn define(&mut self, sym: Sym, reg: Reg, vty: VTy, inv: bool) -> Result<(), Reject> {
        if self.syms.insert(sym, SymInfo { reg, vty, inv }).is_some() {
            return Err(Reject("symbol bound twice"));
        }
        Ok(())
    }

    fn bind_free(&mut self, sym: Sym) -> Result<(), Reject> {
        let v = self
            .env
            .get(sym.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(Reject("free variable not bound in environment"))?;
        let vty = VTy::of(v, 0);
        let reg = self.alloc(vty.class())?;
        self.define(sym, reg, vty, true)?;
        self.free.push((sym, reg));
        Ok(())
    }

    /// Resolve an operand expression to a register. Constants are
    /// deduplicated and materialized once in the preamble.
    fn operand(&mut self, e: &Exp) -> Result<(Reg, VTy, bool), Reject> {
        match e {
            Exp::Sym(s) => {
                let info = self
                    .syms
                    .get(s)
                    .ok_or(Reject("reference to undefined symbol"))?;
                Ok((info.reg, info.vty.clone(), info.inv))
            }
            Exp::Const(c) => {
                if let Some((reg, vty)) = self.consts.get(c) {
                    return Ok((*reg, vty.clone(), true));
                }
                let (instr, reg, vty) = match c {
                    Const::I64(v) => {
                        let r = self.alloc(Class::I)?;
                        (Instr::ConstI { dst: r.idx, v: *v }, r, VTy::I)
                    }
                    Const::F64(v) => {
                        let r = self.alloc(Class::F)?;
                        (Instr::ConstF { dst: r.idx, v: *v }, r, VTy::F)
                    }
                    Const::Bool(v) => {
                        let r = self.alloc(Class::B)?;
                        (Instr::ConstB { dst: r.idx, v: *v }, r, VTy::B)
                    }
                    Const::Str(s) => {
                        let r = self.alloc(Class::V)?;
                        (
                            Instr::ConstV {
                                dst: r.idx,
                                v: Value::Str(s.clone()),
                            },
                            r,
                            VTy::Str,
                        )
                    }
                    Const::Unit => {
                        let r = self.alloc(Class::V)?;
                        (
                            Instr::ConstV {
                                dst: r.idx,
                                v: Value::Unit,
                            },
                            r,
                            VTy::Unit,
                        )
                    }
                };
                self.preamble.push(instr);
                self.consts.insert(c.clone(), (reg, vty.clone()));
                Ok((reg, vty, true))
            }
        }
    }

    fn compile_gen(&mut self, g: &Gen) -> Result<(CGen, VTy), Reject> {
        let cond = match g.cond() {
            Some(cb) => {
                let (mut blk, _vty) = self.compile_block(cb, &[VTy::I])?;
                if blk.result.class != Class::B {
                    // The tree-walker coerces with `as_bool` and errors with
                    // "condition"; CondB replicates that at runtime.
                    let dst = self.alloc(Class::B)?;
                    blk.instrs.push(Instr::CondB {
                        dst: dst.idx,
                        a: blk.result,
                    });
                    blk.result = dst;
                }
                Some(blk)
            }
            None => None,
        };
        let (value, val_vty) = self.compile_block(g.value(), &[VTy::I])?;
        let val_class = value.result.class;
        let key = match g.key() {
            Some(kb) => Some(self.compile_block(kb, &[VTy::I])?.0),
            None => None,
        };
        let key_typed = key.as_ref().is_some_and(|k| k.result.class == Class::I);
        let (reducer, fast_red, lifted_red) = match g.reducer() {
            Some(rb) => {
                let (blk, _rty) = self.compile_block(rb, &[val_vty.clone(), val_vty.clone()])?;
                if blk.result.class != val_class {
                    return Err(Reject("reducer result class differs from value class"));
                }
                let fr = recognize_fast_red(&blk);
                let lr = recognize_lifted_red(&blk, &self.loops);
                (Some(blk), fr, lr)
            }
            None => (None, None, None),
        };
        // Only `Reduce` consults its explicit identity at runtime (empty
        // reductions and chunk seeding); the tree-walker never reads a
        // `BucketReduce` init, so compiling one would change semantics.
        let init = match g {
            Gen::Reduce { init: Some(e), .. } => {
                let (reg, _vty, _inv) = self.operand(e)?;
                if reg.class != val_class {
                    return Err(Reject("reduce identity class differs from value class"));
                }
                Some(reg)
            }
            _ => None,
        };
        Ok((
            CGen {
                kind: g.kind(),
                cond,
                key,
                value,
                reducer,
                init,
                val_class,
                key_typed,
                fast_red,
                lifted_red,
            },
            val_vty,
        ))
    }

    fn compile_block(&mut self, b: &Block, param_vtys: &[VTy]) -> Result<(CBlock, VTy), Reject> {
        if b.params.len() != param_vtys.len() {
            return Err(Reject("block parameter arity mismatch"));
        }
        let mut params = Vec::with_capacity(b.params.len());
        for (p, vty) in b.params.iter().zip(param_vtys) {
            let reg = self.alloc(vty.class())?;
            self.define(*p, reg, vty.clone(), false)?;
            params.push(reg);
        }
        let mut instrs = Vec::new();
        for stmt in &b.stmts {
            self.compile_stmt(stmt, &mut instrs)?;
        }
        let (result, vty, _inv) = self.operand(&b.result)?;
        Ok((
            CBlock {
                params,
                instrs,
                result,
            },
            vty,
        ))
    }

    /// Emit one instruction: into the preamble when it is infallible and all
    /// its operands are loop-invariant, into the block body otherwise.
    /// Returns whether it was hoisted (= the result is invariant).
    fn emit(&mut self, out: &mut Vec<Instr>, hoistable: bool, inv: bool, instr: Instr) -> bool {
        if hoistable && inv {
            self.preamble.push(instr);
            true
        } else {
            out.push(instr);
            false
        }
    }

    fn compile_stmt(&mut self, stmt: &dmll_core::Stmt, out: &mut Vec<Instr>) -> Result<(), Reject> {
        if let Def::Loop(ml) = &stmt.def {
            return self.compile_nested_loop(stmt, ml, out);
        }
        if stmt.lhs.len() != 1 {
            return Err(Reject("non-loop statement with multiple bindings"));
        }
        let lhs = stmt.lhs[0];
        let (reg, vty, inv) = self.compile_def(&stmt.def, out)?;
        self.define(lhs, reg, vty, inv)
    }

    fn compile_def(
        &mut self,
        def: &Def,
        out: &mut Vec<Instr>,
    ) -> Result<(Reg, VTy, bool), Reject> {
        match def {
            Def::Prim { op, args } => {
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    ops.push(self.operand(a)?);
                }
                self.compile_prim(*op, &ops, out)
            }
            Def::Math { f, arg } => {
                let (a, _vty, inv) = self.operand(arg)?;
                if a.class == Class::F {
                    let dst = self.alloc(Class::F)?;
                    let hoisted = self.emit(
                        out,
                        true,
                        inv,
                        Instr::MathF {
                            f: *f,
                            dst: dst.idx,
                            a: a.idx,
                        },
                    );
                    Ok((dst, VTy::F, hoisted))
                } else {
                    let dst = self.alloc(Class::F)?;
                    out.push(Instr::MathV {
                        f: *f,
                        dst: dst.idx,
                        a,
                    });
                    Ok((dst, VTy::F, false))
                }
            }
            Def::Cast { to, value } => {
                let (a, vty, inv) = self.operand(value)?;
                match (to, a.class) {
                    // Identity casts are register aliases: zero instructions.
                    (Ty::I64, Class::I) => Ok((a, VTy::I, inv)),
                    (Ty::F64, Class::F) => Ok((a, VTy::F, inv)),
                    (Ty::F64, Class::I) => {
                        let dst = self.alloc(Class::F)?;
                        let h = self.emit(
                            out,
                            true,
                            inv,
                            Instr::CastIF {
                                dst: dst.idx,
                                a: a.idx,
                            },
                        );
                        Ok((dst, VTy::F, h))
                    }
                    (Ty::I64, Class::F) => {
                        let dst = self.alloc(Class::I)?;
                        let h = self.emit(
                            out,
                            true,
                            inv,
                            Instr::CastFI {
                                dst: dst.idx,
                                a: a.idx,
                            },
                        );
                        Ok((dst, VTy::I, h))
                    }
                    _ => {
                        let _ = vty;
                        let class = match to {
                            Ty::I64 => Class::I,
                            Ty::F64 => Class::F,
                            _ => Class::V,
                        };
                        let dst = self.alloc(class)?;
                        out.push(Instr::CastDyn {
                            to: to.clone(),
                            dst,
                            a,
                        });
                        let vty = match class {
                            Class::I => VTy::I,
                            Class::F => VTy::F,
                            _ => VTy::Gen,
                        };
                        Ok((dst, vty, false))
                    }
                }
            }
            Def::ArrayLen(e) => {
                let (a, vty, inv) = self.operand(e)?;
                let dst = self.alloc(Class::I)?;
                // Infallible (thus hoistable) only when the operand is
                // certainly an array.
                let certain = matches!(vty, VTy::Arr(_) | VTy::ArrGen);
                let h = self.emit(out, certain, inv, Instr::LenA { dst: dst.idx, a });
                Ok((dst, VTy::I, h))
            }
            Def::ArrayRead { arr, index } => {
                let (a, avty, _ai) = self.operand(arr)?;
                let (i, _ivty, _ii) = self.operand(index)?;
                if a.class == Class::V && i.class == Class::I {
                    if let VTy::Arr(elem) = &avty {
                        let (class, vty) = match **elem {
                            VTy::I => (Class::I, VTy::I),
                            VTy::F => (Class::F, VTy::F),
                            _ => (Class::B, VTy::B),
                        };
                        let dst = self.alloc(class)?;
                        let instr = match class {
                            Class::I => Instr::ReadVI {
                                dst: dst.idx,
                                arr: a.idx,
                                idx: i.idx,
                            },
                            Class::F => Instr::ReadVF {
                                dst: dst.idx,
                                arr: a.idx,
                                idx: i.idx,
                            },
                            _ => Instr::ReadVB {
                                dst: dst.idx,
                                arr: a.idx,
                                idx: i.idx,
                            },
                        };
                        out.push(instr);
                        return Ok((dst, vty, false));
                    }
                    let dst = self.alloc(Class::V)?;
                    out.push(Instr::ReadVV {
                        dst: dst.idx,
                        arr: a.idx,
                        idx: i.idx,
                    });
                    return Ok((dst, VTy::Gen, false));
                }
                let dst = self.alloc(Class::V)?;
                out.push(Instr::ReadDyn {
                    dst: dst.idx,
                    arr: a,
                    idx: i,
                });
                Ok((dst, VTy::Gen, false))
            }
            Def::TupleNew(es) => {
                let mut regs = Vec::with_capacity(es.len());
                let mut vtys = Vec::with_capacity(es.len());
                let mut inv = true;
                for e in es {
                    let (r, vty, i) = self.operand(e)?;
                    regs.push(r);
                    vtys.push(vty);
                    inv &= i;
                }
                let dst = self.alloc(Class::V)?;
                let h = self.emit(
                    out,
                    true,
                    inv,
                    Instr::TupleNewV {
                        dst: dst.idx,
                        args: regs,
                    },
                );
                Ok((dst, VTy::Tuple(Arc::new(vtys)), h))
            }
            Def::TupleGet { tuple, index } => {
                let (t, tvty, inv) = self.operand(tuple)?;
                if t.class == Class::V {
                    if let VTy::Tuple(comps) = &tvty {
                        if let Some(cvty) = comps.get(*index) {
                            let cvty = cvty.clone();
                            let dst = self.alloc(cvty.class())?;
                            let idx = *index as u32;
                            let instr = match dst.class {
                                Class::I => Instr::TupleGetI {
                                    dst: dst.idx,
                                    t: t.idx,
                                    idx,
                                },
                                Class::F => Instr::TupleGetF {
                                    dst: dst.idx,
                                    t: t.idx,
                                    idx,
                                },
                                Class::B => Instr::TupleGetB {
                                    dst: dst.idx,
                                    t: t.idx,
                                    idx,
                                },
                                Class::V => Instr::TupleGetV {
                                    dst: dst.idx,
                                    t: t.idx,
                                    idx,
                                },
                            };
                            let h = self.emit(out, true, inv, instr);
                            return Ok((dst, cvty, h));
                        }
                    }
                }
                let dst = self.alloc(Class::V)?;
                out.push(Instr::TupleGetDyn {
                    dst: dst.idx,
                    t,
                    idx: *index as u32,
                });
                Ok((dst, VTy::Gen, false))
            }
            Def::StructNew { ty, fields } => {
                let mut regs = Vec::with_capacity(fields.len());
                let mut vtys = Vec::with_capacity(fields.len());
                let mut inv = true;
                for e in fields {
                    let (r, vty, i) = self.operand(e)?;
                    regs.push(r);
                    vtys.push(vty);
                    inv &= i;
                }
                let ty = Arc::new(ty.clone());
                let dst = self.alloc(Class::V)?;
                let h = self.emit(
                    out,
                    true,
                    inv,
                    Instr::StructNewV {
                        dst: dst.idx,
                        ty: ty.clone(),
                        args: regs,
                    },
                );
                Ok((dst, VTy::Struct(ty, Arc::new(vtys)), h))
            }
            Def::StructGet { obj, field } => {
                let (o, ovty, inv) = self.operand(obj)?;
                if o.class == Class::V {
                    if let VTy::Struct(sty, ftys) = &ovty {
                        if let Some(fi) = sty.field_index(field) {
                            if let Some(fvty) = ftys.get(fi) {
                                let fvty = fvty.clone();
                                let dst = self.alloc(fvty.class())?;
                                // Certified by the refined struct type, so
                                // infallible — this is what hoists matrix
                                // fields (data / rows / cols) out of loops.
                                let h = self.emit(
                                    out,
                                    true,
                                    inv,
                                    Instr::StructGetIdx {
                                        dst,
                                        obj: o.idx,
                                        idx: fi as u32,
                                    },
                                );
                                return Ok((dst, fvty, h));
                            }
                        }
                    }
                }
                let dst = self.alloc(Class::V)?;
                out.push(Instr::StructGetDyn {
                    dst: dst.idx,
                    obj: o,
                    name: Arc::from(field.as_str()),
                });
                Ok((dst, VTy::Gen, false))
            }
            Def::Flatten(e) => {
                let (a, _vty, _inv) = self.operand(e)?;
                let dst = self.alloc(Class::V)?;
                out.push(Instr::FlattenV { dst: dst.idx, a });
                Ok((dst, VTy::ArrGen, false))
            }
            Def::BucketValues(e) => {
                let (a, _vty, _inv) = self.operand(e)?;
                let dst = self.alloc(Class::V)?;
                out.push(Instr::BucketValuesV { dst: dst.idx, a });
                Ok((dst, VTy::ArrGen, false))
            }
            Def::BucketKeys(e) => {
                let (a, _vty, _inv) = self.operand(e)?;
                let dst = self.alloc(Class::V)?;
                out.push(Instr::BucketKeysV { dst: dst.idx, a });
                Ok((dst, VTy::ArrGen, false))
            }
            Def::BucketLen(e) => {
                let (a, _vty, _inv) = self.operand(e)?;
                let dst = self.alloc(Class::I)?;
                out.push(Instr::BucketLenV { dst: dst.idx, a });
                Ok((dst, VTy::I, false))
            }
            Def::BucketGet {
                buckets,
                key,
                default,
            } => {
                let (b, _bvty, _bi) = self.operand(buckets)?;
                let (k, _kvty, _ki) = self.operand(key)?;
                let d = match default {
                    Some(e) => Some(self.operand(e)?.0),
                    None => None,
                };
                let dst = self.alloc(Class::V)?;
                out.push(Instr::BucketGetV {
                    dst: dst.idx,
                    b,
                    k,
                    default: d,
                });
                Ok((dst, VTy::Gen, false))
            }
            Def::Loop(_) => unreachable!("handled by compile_stmt"),
            Def::Extern {
                name,
                args,
                ret,
                effectful,
                ..
            } => {
                if *effectful {
                    // Effectful calls must not be reordered, re-executed or
                    // skipped. The compiled tiers run tasks on worker
                    // threads with speculation; the tree-walker the loop
                    // falls back to walks its tasks in index order on one
                    // thread, once per attempt — only a task that died is
                    // re-run.
                    return Err(Reject("effectful extern"));
                }
                let (class, vty) = match ret {
                    Ty::I64 => (Class::I, VTy::I),
                    Ty::F64 => (Class::F, VTy::F),
                    Ty::Bool => (Class::B, VTy::B),
                    _ => return Err(Reject("extern with non-scalar return type")),
                };
                let mut regs = Vec::with_capacity(args.len());
                for a in args {
                    regs.push(self.operand(a)?.0);
                }
                let ext = self.extern_slot(name, ret)?;
                let dst = self.alloc(class)?;
                // Never hoisted: handlers are fallible and externally
                // observable, so each element performs exactly one call,
                // like the tree-walker.
                out.push(Instr::CallExtern {
                    dst,
                    ext,
                    args: regs,
                });
                Ok((dst, vty, false))
            }
        }
    }

    /// Intern one (name, return type) extern declaration, reusing the slot
    /// when the same operation is called more than once.
    fn extern_slot(&mut self, name: &str, ret: &Ty) -> Result<u16, Reject> {
        if let Some(i) = self
            .externs
            .iter()
            .position(|d| d.name == name && d.ret == *ret)
        {
            return Ok(i as u16);
        }
        if self.externs.len() > u16::MAX as usize {
            return Err(Reject("extern table overflow"));
        }
        self.externs.push(ExternDecl {
            name: name.to_string(),
            ret: ret.clone(),
        });
        Ok((self.externs.len() - 1) as u16)
    }

    fn compile_prim(
        &mut self,
        op: PrimOp,
        ops: &[(Reg, VTy, bool)],
        out: &mut Vec<Instr>,
    ) -> Result<(Reg, VTy, bool), Reject> {
        use Class as C;
        let inv_all = ops.iter().all(|(_, _, i)| *i);
        let classes: Vec<Class> = ops.iter().map(|(r, _, _)| r.class).collect();
        // Typed two-operand emission.
        if let ([a, b], [ca, cb]) = (
            &ops.iter().map(|(r, _, _)| *r).collect::<Vec<_>>()[..],
            &classes[..],
        ) {
            let (a, b) = (*a, *b);
            match (op, ca, cb) {
                (PrimOp::Add, C::I, C::I)
                | (PrimOp::Sub, C::I, C::I)
                | (PrimOp::Mul, C::I, C::I)
                | (PrimOp::Min, C::I, C::I)
                | (PrimOp::Max, C::I, C::I) => {
                    let iop = match op {
                        PrimOp::Add => IOp::Add,
                        PrimOp::Sub => IOp::Sub,
                        PrimOp::Mul => IOp::Mul,
                        PrimOp::Min => IOp::Min,
                        _ => IOp::Max,
                    };
                    let dst = self.alloc(C::I)?;
                    let h = self.emit(
                        out,
                        true,
                        inv_all,
                        Instr::BinI {
                            op: iop,
                            dst: dst.idx,
                            a: a.idx,
                            b: b.idx,
                        },
                    );
                    return Ok((dst, VTy::I, h));
                }
                (PrimOp::Div, C::I, C::I) => {
                    let dst = self.alloc(C::I)?;
                    out.push(Instr::DivI {
                        dst: dst.idx,
                        a: a.idx,
                        b: b.idx,
                    });
                    return Ok((dst, VTy::I, false));
                }
                (PrimOp::Rem, C::I, C::I) => {
                    let dst = self.alloc(C::I)?;
                    out.push(Instr::RemI {
                        dst: dst.idx,
                        a: a.idx,
                        b: b.idx,
                    });
                    return Ok((dst, VTy::I, false));
                }
                (PrimOp::Add, C::F, C::F)
                | (PrimOp::Sub, C::F, C::F)
                | (PrimOp::Mul, C::F, C::F)
                | (PrimOp::Div, C::F, C::F)
                | (PrimOp::Min, C::F, C::F)
                | (PrimOp::Max, C::F, C::F) => {
                    let fop = match op {
                        PrimOp::Add => FOp::Add,
                        PrimOp::Sub => FOp::Sub,
                        PrimOp::Mul => FOp::Mul,
                        PrimOp::Div => FOp::Div,
                        PrimOp::Min => FOp::Min,
                        _ => FOp::Max,
                    };
                    let dst = self.alloc(C::F)?;
                    let h = self.emit(
                        out,
                        true,
                        inv_all,
                        Instr::BinF {
                            op: fop,
                            dst: dst.idx,
                            a: a.idx,
                            b: b.idx,
                        },
                    );
                    return Ok((dst, VTy::F, h));
                }
                _ if op.is_comparison() && ca == cb && *ca != C::V => {
                    let cop = match op {
                        PrimOp::Eq => CmpOp::Eq,
                        PrimOp::Ne => CmpOp::Ne,
                        PrimOp::Lt => CmpOp::Lt,
                        PrimOp::Le => CmpOp::Le,
                        PrimOp::Gt => CmpOp::Gt,
                        _ => CmpOp::Ge,
                    };
                    // Bool operands only support Eq/Ne in typed form; the
                    // ordered comparisons on bools are walker type errors.
                    let typed_ok = match ca {
                        C::B => matches!(cop, CmpOp::Eq | CmpOp::Ne),
                        _ => true,
                    };
                    if typed_ok {
                        let dst = self.alloc(C::B)?;
                        let instr = match ca {
                            C::I => Instr::CmpI {
                                op: cop,
                                dst: dst.idx,
                                a: a.idx,
                                b: b.idx,
                            },
                            C::F => Instr::CmpF {
                                op: cop,
                                dst: dst.idx,
                                a: a.idx,
                                b: b.idx,
                            },
                            _ => Instr::CmpB {
                                op: cop,
                                dst: dst.idx,
                                a: a.idx,
                                b: b.idx,
                            },
                        };
                        let h = self.emit(out, true, inv_all, instr);
                        return Ok((dst, VTy::B, h));
                    }
                }
                (PrimOp::And, C::B, C::B) | (PrimOp::Or, C::B, C::B) => {
                    let dst = self.alloc(C::B)?;
                    let instr = if op == PrimOp::And {
                        Instr::AndB {
                            dst: dst.idx,
                            a: a.idx,
                            b: b.idx,
                        }
                    } else {
                        Instr::OrB {
                            dst: dst.idx,
                            a: a.idx,
                            b: b.idx,
                        }
                    };
                    let h = self.emit(out, true, inv_all, instr);
                    return Ok((dst, VTy::B, h));
                }
                _ => {}
            }
        }
        // Typed unary / ternary emission.
        match (op, &classes[..]) {
            (PrimOp::Neg, [C::I]) => {
                // Not hoisted: `-i64::MIN` overflows (a debug panic the
                // tree-walker only hits when it actually evaluates it).
                let dst = self.alloc(C::I)?;
                out.push(Instr::NegI {
                    dst: dst.idx,
                    a: ops[0].0.idx,
                });
                return Ok((dst, VTy::I, false));
            }
            (PrimOp::Neg, [C::F]) => {
                let dst = self.alloc(C::F)?;
                let h = self.emit(
                    out,
                    true,
                    inv_all,
                    Instr::NegF {
                        dst: dst.idx,
                        a: ops[0].0.idx,
                    },
                );
                return Ok((dst, VTy::F, h));
            }
            (PrimOp::Not, [C::B]) => {
                let dst = self.alloc(C::B)?;
                let h = self.emit(
                    out,
                    true,
                    inv_all,
                    Instr::NotB {
                        dst: dst.idx,
                        a: ops[0].0.idx,
                    },
                );
                return Ok((dst, VTy::B, h));
            }
            (PrimOp::Mux, [C::B, ca, cb]) if ca == cb => {
                let (c, a, b) = (ops[0].0, ops[1].0, ops[2].0);
                let dst = self.alloc(*ca)?;
                let instr = match ca {
                    C::I => Instr::MuxI {
                        dst: dst.idx,
                        c: c.idx,
                        a: a.idx,
                        b: b.idx,
                    },
                    C::F => Instr::MuxF {
                        dst: dst.idx,
                        c: c.idx,
                        a: a.idx,
                        b: b.idx,
                    },
                    C::B => Instr::MuxB {
                        dst: dst.idx,
                        c: c.idx,
                        a: a.idx,
                        b: b.idx,
                    },
                    C::V => Instr::MuxV {
                        dst: dst.idx,
                        c: c.idx,
                        a: a.idx,
                        b: b.idx,
                    },
                };
                let h = self.emit(out, true, inv_all, instr);
                let vty = if ops[1].1 == ops[2].1 {
                    ops[1].1.clone()
                } else {
                    match ca {
                        C::I => VTy::I,
                        C::F => VTy::F,
                        C::B => VTy::B,
                        C::V => VTy::Gen,
                    }
                };
                return Ok((dst, vty, h));
            }
            _ => {}
        }
        // Fallback: box the operands and run the tree-walker's eval_prim —
        // identical results and identical errors by construction.
        let class = if op.is_comparison() || matches!(op, PrimOp::And | PrimOp::Or | PrimOp::Not) {
            Class::B
        } else {
            Class::V
        };
        let dst = self.alloc(class)?;
        out.push(Instr::PrimV {
            op,
            dst,
            args: ops.iter().map(|(r, _, _)| *r).collect(),
        });
        let vty = if class == Class::B { VTy::B } else { VTy::Gen };
        Ok((dst, vty, false))
    }

    fn compile_nested_loop(
        &mut self,
        stmt: &dmll_core::Stmt,
        ml: &Multiloop,
        out: &mut Vec<Instr>,
    ) -> Result<(), Reject> {
        if stmt.lhs.len() != ml.gens.len() {
            return Err(Reject("loop binding arity mismatch"));
        }
        let (sreg, _svty, _sinv) = self.operand(&ml.size)?;
        let size = if sreg.class == Class::I {
            sreg.idx
        } else {
            let d = self.alloc(Class::I)?;
            out.push(Instr::SizeI { dst: d.idx, a: sreg });
            d.idx
        };
        let mut cgens = Vec::with_capacity(ml.gens.len());
        let mut val_vtys = Vec::with_capacity(ml.gens.len());
        for g in &ml.gens {
            let (cg, vty) = self.compile_gen(g)?;
            cgens.push(cg);
            val_vtys.push(vty);
        }
        let mut dsts = Vec::with_capacity(cgens.len());
        for ((lhs, cg), val_vty) in stmt.lhs.iter().zip(&cgens).zip(val_vtys) {
            let (class, vty) = match cg.kind {
                GenKind::Collect => match cg.val_class {
                    Class::I => (Class::V, VTy::Arr(Box::new(VTy::I))),
                    Class::F => (Class::V, VTy::Arr(Box::new(VTy::F))),
                    Class::B => (Class::V, VTy::Arr(Box::new(VTy::B))),
                    Class::V => (Class::V, VTy::ArrGen),
                },
                GenKind::Reduce => (cg.val_class, val_vty),
                GenKind::BucketCollect | GenKind::BucketReduce => (Class::V, VTy::Buckets),
            };
            let dst = self.alloc(class)?;
            self.define(*lhs, dst, vty, false)?;
            dsts.push(dst);
        }
        let li = self.loops.len();
        if li > u32::MAX as usize {
            return Err(Reject("too many nested loops"));
        }
        self.loops.push(CLoop {
            size,
            gens: cgens,
            dsts,
        });
        out.push(Instr::Loop(li as u32));
        Ok(())
    }
}

/// Recognize a reducer that is a single typed binary instruction over its
/// two parameters (`a + b`, `a.min(b)`, …) so reduction steps skip block
/// dispatch entirely.
fn recognize_fast_red(blk: &CBlock) -> Option<FastRed> {
    if blk.params.len() != 2 || blk.instrs.len() != 1 {
        return None;
    }
    let (p0, p1) = (blk.params[0], blk.params[1]);
    match &blk.instrs[0] {
        Instr::BinI { op, dst, a, b }
            if p0.class == Class::I
                && *a == p0.idx
                && *b == p1.idx
                && *dst == blk.result.idx
                && blk.result.class == Class::I =>
        {
            Some(FastRed::I(*op))
        }
        Instr::BinF { op, dst, a, b }
            if p0.class == Class::F
                && *a == p0.idx
                && *b == p1.idx
                && *dst == blk.result.idx
                && blk.result.class == Class::F =>
        {
            Some(FastRed::F(*op))
        }
        _ => None,
    }
}

/// Recognize a reducer that lifts a [`FastRed`] op element-wise over its
/// two array parameters: the block is one nested unconditional `Collect`
/// (optionally preceded by `len(a)` as its size) whose value block reads
/// `a(j)` and `b(j)` and combines them, in that operand order, with a
/// single typed binary instruction.
fn recognize_lifted_red(blk: &CBlock, loops: &[CLoop]) -> Option<LiftedRed> {
    let [p0, p1] = blk.params[..] else { return None };
    if p0.class != Class::V || p1.class != Class::V || p0.idx == p1.idx {
        return None;
    }
    let (len_of_acc, li) = match blk.instrs.as_slice() {
        [Instr::Loop(li)] => (None, *li),
        [Instr::LenA { dst, a }, Instr::Loop(li)] if *a == p0 => (Some(*dst), *li),
        _ => return None,
    };
    let cl = &loops[li as usize];
    let ([gen], [dst]) = (&cl.gens[..], &cl.dsts[..]) else {
        return None;
    };
    if gen.kind != GenKind::Collect || gen.cond.is_some() || *dst != blk.result {
        return None;
    }
    // A size register other than `len(a)` is written by nothing in this
    // block, so it is a free variable, constant or preamble result.
    let size = match len_of_acc {
        Some(n) if n == cl.size => None,
        Some(_) => return None,
        None => Some(cl.size),
    };
    let vb = &gen.value;
    let [j] = vb.params[..] else { return None };
    let [ra, rb, bin] = &vb.instrs[..] else {
        return None;
    };
    let (x, y, op) = match (ra, rb, bin) {
        (
            Instr::ReadVI { dst: x, arr: a0, idx: i0 },
            Instr::ReadVI { dst: y, arr: a1, idx: i1 },
            Instr::BinI { op, dst, a, b },
        ) if (*a0, *a1, *i0, *i1) == (p0.idx, p1.idx, j.idx, j.idx)
            && vb.result == (Reg { class: Class::I, idx: *dst }) =>
        {
            ((*x, *a), (*y, *b), FastRed::I(*op))
        }
        (
            Instr::ReadVF { dst: x, arr: a0, idx: i0 },
            Instr::ReadVF { dst: y, arr: a1, idx: i1 },
            Instr::BinF { op, dst, a, b },
        ) if (*a0, *a1, *i0, *i1) == (p0.idx, p1.idx, j.idx, j.idx)
            && vb.result == (Reg { class: Class::F, idx: *dst }) =>
        {
            ((*x, *a), (*y, *b), FastRed::F(*op))
        }
        _ => return None,
    };
    (x.0 == x.1 && y.0 == y.1 && x.0 != y.0).then_some(LiftedRed { op, size })
}

// ---------------------------------------------------------------------------
// Kernel cache
// ---------------------------------------------------------------------------

/// Fast multiply-xor structural hasher (the FxHash recipe). These hashes
/// sit on per-run hot paths — the kernel-cache lookup hashes every executed
/// loop and the fusion hook hashes the whole program per run — and SipHash's
/// per-write overhead measurably taxes small programs. Collisions are
/// tolerated everywhere the hashes are used: the kernel cache verifies full
/// structural equality on hit, and the fusion identity memo treats a
/// collision as a missed optimization, never changed semantics.
struct FxHasher(u64);

impl FxHasher {
    fn new() -> FxHasher {
        FxHasher(0)
    }

    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        self.add(tail ^ (bytes.len() as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Structural hash of a multiloop: discriminants, symbols, operators and
/// constants, deep through nested blocks. Collisions are tolerated — cache
/// entries store the loop itself and verify with full structural equality.
fn structural_hash(ml: &Multiloop) -> u64 {
    let mut h = FxHasher::new();
    hash_multiloop(ml, &mut h);
    h.finish()
}

/// Structural hash of a whole program: inputs (symbol, name, layout) plus
/// the body, deep. The fuse-then-compile hook uses this both to key its
/// rewrite cache and as the rewrite fingerprint mixed into kernel cache
/// keys, so fused and unfused variants of one source loop never collide.
pub(crate) fn hash_program(p: &Program) -> u64 {
    let mut h = FxHasher::new();
    p.inputs.len().hash(&mut h);
    for i in &p.inputs {
        i.sym.0.hash(&mut h);
        i.name.hash(&mut h);
        i.layout.hash(&mut h);
    }
    hash_block(&p.body, &mut h);
    h.finish()
}

fn hash_multiloop(ml: &Multiloop, h: &mut impl Hasher) {
    hash_exp(&ml.size, h);
    ml.gens.len().hash(h);
    for g in &ml.gens {
        g.kind().hash(h);
        for b in g.blocks() {
            hash_block(b, h);
        }
        match g {
            Gen::Reduce { init, .. } | Gen::BucketReduce { init, .. } => {
                if let Some(e) = init {
                    1u8.hash(h);
                    hash_exp(e, h);
                } else {
                    0u8.hash(h);
                }
            }
            _ => 2u8.hash(h),
        }
    }
}

fn hash_block(b: &Block, h: &mut impl Hasher) {
    b.params.len().hash(h);
    for p in &b.params {
        p.0.hash(h);
    }
    b.stmts.len().hash(h);
    for stmt in &b.stmts {
        for s in &stmt.lhs {
            s.0.hash(h);
        }
        hash_def(&stmt.def, h);
    }
    hash_exp(&b.result, h);
}

fn hash_exp(e: &Exp, h: &mut impl Hasher) {
    match e {
        Exp::Sym(s) => {
            0u8.hash(h);
            s.0.hash(h);
        }
        Exp::Const(c) => {
            1u8.hash(h);
            c.hash(h);
        }
    }
}

fn hash_def(d: &Def, h: &mut impl Hasher) {
    match d {
        Def::Prim { op, args } => {
            0u8.hash(h);
            op.hash(h);
            for a in args {
                hash_exp(a, h);
            }
        }
        Def::Math { f, arg } => {
            1u8.hash(h);
            f.hash(h);
            hash_exp(arg, h);
        }
        Def::Cast { to, value } => {
            2u8.hash(h);
            to.hash(h);
            hash_exp(value, h);
        }
        Def::ArrayLen(e) => {
            3u8.hash(h);
            hash_exp(e, h);
        }
        Def::ArrayRead { arr, index } => {
            4u8.hash(h);
            hash_exp(arr, h);
            hash_exp(index, h);
        }
        Def::TupleNew(es) => {
            5u8.hash(h);
            es.len().hash(h);
            for e in es {
                hash_exp(e, h);
            }
        }
        Def::TupleGet { tuple, index } => {
            6u8.hash(h);
            hash_exp(tuple, h);
            index.hash(h);
        }
        Def::StructNew { ty, fields } => {
            7u8.hash(h);
            ty.hash(h);
            for e in fields {
                hash_exp(e, h);
            }
        }
        Def::StructGet { obj, field } => {
            8u8.hash(h);
            hash_exp(obj, h);
            field.hash(h);
        }
        Def::Flatten(e) => {
            9u8.hash(h);
            hash_exp(e, h);
        }
        Def::BucketValues(e) => {
            10u8.hash(h);
            hash_exp(e, h);
        }
        Def::BucketKeys(e) => {
            11u8.hash(h);
            hash_exp(e, h);
        }
        Def::BucketLen(e) => {
            12u8.hash(h);
            hash_exp(e, h);
        }
        Def::BucketGet {
            buckets,
            key,
            default,
        } => {
            13u8.hash(h);
            hash_exp(buckets, h);
            hash_exp(key, h);
            if let Some(d) = default {
                1u8.hash(h);
                hash_exp(d, h);
            } else {
                0u8.hash(h);
            }
        }
        Def::Loop(ml) => {
            14u8.hash(h);
            hash_multiloop(ml, h);
        }
        Def::Extern {
            name,
            args,
            ret,
            effectful,
            whitelisted,
        } => {
            15u8.hash(h);
            name.hash(h);
            for a in args {
                hash_exp(a, h);
            }
            ret.hash(h);
            effectful.hash(h);
            whitelisted.hash(h);
        }
    }
}

#[derive(PartialEq, Eq, Hash)]
struct CacheKey {
    hash: u64,
    /// Refined types of the loop's free variables, in `Sym` order. A kernel
    /// certified against `ArrayVal::F64` storage must not run against a
    /// `Boxed` array, so the refinement is part of the key.
    kinds: Vec<VTy>,
    /// Rewrite fingerprint of the program the loop came from: `0` for
    /// source programs the fuse hook left untouched, otherwise the fused
    /// program's structural hash. Two structurally-identical loops reached
    /// through different rewrites are different cache citizens — without
    /// this, a fused and an unfused variant that happen to hash and compare
    /// equal (same syms reused across `Program::clone`) could collide.
    fuse: u64,
}

enum Cached {
    Kernel(Arc<Kernel>),
    /// Negative entry: compilation was rejected; don't retry every call.
    Fallback,
}

struct CacheEntry {
    ml: Multiloop,
    cached: Cached,
    /// Logical timestamp of the entry's last hit (or its insertion); the
    /// entry with the smallest stamp is the LRU eviction victim.
    last_used: u64,
}

/// The kernel cache: hash-bucketed entries plus an LRU clock. `len` tracks
/// the total entry count across buckets so capacity checks are O(1).
#[derive(Default)]
struct KernelCache {
    map: HashMap<CacheKey, Vec<CacheEntry>>,
    tick: u64,
    len: usize,
}

impl KernelCache {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evict the least-recently-used entry (O(n) scan; eviction is rare and
    /// the cap is small, so a heap would cost more than it saves). Returns
    /// whether an entry was actually removed.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .map
            .iter()
            .flat_map(|(k, es)| es.iter().map(move |e| (e.last_used, k.hash)))
            .min();
        let Some((stamp, key_hash)) = victim else {
            return false;
        };
        let mut emptied = None;
        let mut evicted = false;
        for (k, es) in self.map.iter_mut() {
            if k.hash != key_hash {
                continue;
            }
            if let Some(pos) = es.iter().position(|e| e.last_used == stamp) {
                es.remove(pos);
                self.len -= 1;
                evicted = true;
                if es.is_empty() {
                    emptied = Some(k.hash);
                }
                break;
            }
        }
        if emptied.is_some() {
            self.map.retain(|_, es| !es.is_empty());
        }
        evicted
    }
}

/// Counter snapshot of one [`KernelCacheHandle`] view.
///
/// Counters belong to the *view*, not the store: two views sharing a store
/// (see [`KernelCacheHandle::view`]) account their own lookups separately,
/// which is how the service layer surfaces per-tenant hit rates over one
/// shared cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached kernel.
    pub hits: u64,
    /// Lookups that missed and compiled a new kernel.
    pub misses: u64,
    /// Lookups that hit a negative (rejected-compilation) entry.
    pub negative_hits: u64,
    /// Lookups that missed and were rejected by the compiler.
    pub rejections: u64,
    /// Entries this view evicted while inserting (LRU victims may have
    /// been inserted by any view of the store).
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over positive lookups (hits + misses), if any happened.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
    rejections: AtomicU64,
    evictions: AtomicU64,
}

/// An injectable handle to a kernel cache: a shared LRU store plus
/// view-local counters.
///
/// Historically the kernel cache was one process-global `static`, which
/// meant cross-test counter interference and no way for a long-lived
/// service to observe per-tenant hit rates. The handle decouples the two
/// concerns:
///
/// * [`KernelCacheHandle::global`] is the process-wide default every
///   un-configured run uses (so one-shot callers keep sharing compiles);
/// * [`KernelCacheHandle::with_capacity`] makes an isolated store (tests,
///   or a service that wants cache lifetime tied to its own);
/// * [`KernelCacheHandle::view`] makes a second handle onto the *same*
///   store with fresh counters — lookups through either handle hit the
///   shared entries, but each view's [`CacheStats`] count only its own
///   traffic.
///
/// `Clone` shares both the store and the counters (same view).
#[derive(Clone)]
pub struct KernelCacheHandle {
    store: Arc<Mutex<KernelCache>>,
    counters: Arc<CacheCounters>,
    cap: usize,
}

impl fmt::Debug for KernelCacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelCacheHandle")
            .field("cap", &self.cap)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for KernelCacheHandle {
    fn default() -> KernelCacheHandle {
        KernelCacheHandle::new()
    }
}

static GLOBAL_CACHE: OnceLock<KernelCacheHandle> = OnceLock::new();

/// Largest number of distinct (loop, refinement) entries kept; beyond this
/// the least-recently-used entry is evicted.
const CACHE_CAP: usize = 512;

impl KernelCacheHandle {
    /// A fresh, isolated cache with the default capacity.
    pub fn new() -> KernelCacheHandle {
        KernelCacheHandle::with_capacity(CACHE_CAP)
    }

    /// A fresh, isolated cache holding at most `cap` entries.
    pub fn with_capacity(cap: usize) -> KernelCacheHandle {
        KernelCacheHandle {
            store: Arc::new(Mutex::new(KernelCache::default())),
            counters: Arc::new(CacheCounters::default()),
            cap: cap.max(1),
        }
    }

    /// The process-global default cache (what un-injected runs use).
    pub fn global() -> KernelCacheHandle {
        GLOBAL_CACHE.get_or_init(KernelCacheHandle::new).clone()
    }

    /// A new view onto the same store with zeroed counters. Entries
    /// (including negative ones) are shared; statistics are not.
    pub fn view(&self) -> KernelCacheHandle {
        KernelCacheHandle {
            store: self.store.clone(),
            counters: Arc::new(CacheCounters::default()),
            cap: self.cap,
        }
    }

    /// Do two handles share one underlying store?
    pub fn shares_store_with(&self, other: &KernelCacheHandle) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    /// Entries currently cached (positive and negative).
    pub fn len(&self) -> usize {
        self.store.lock().expect("kernel cache poisoned").len
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot this view's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(AtomicOrdering::Relaxed),
            misses: self.counters.misses.load(AtomicOrdering::Relaxed),
            negative_hits: self.counters.negative_hits.load(AtomicOrdering::Relaxed),
            rejections: self.counters.rejections.load(AtomicOrdering::Relaxed),
            evictions: self.counters.evictions.load(AtomicOrdering::Relaxed),
        }
    }

    /// Look up or compile the kernel for `ml` under the refined types of
    /// `env`. Returns `None` when the loop must run on the tree-walker
    /// (free variable missing from the environment, or the compiler
    /// rejected the loop). Process-wide tier counters are mirrored for
    /// every handle so [`crate::tier_totals`] stays meaningful; the
    /// view-local counters additionally attribute the lookup to this
    /// handle.
    pub(crate) fn kernel_for(&self, ml: &Multiloop, env: &Env, fuse: u64) -> Option<Arc<Kernel>> {
        let mut kinds = Vec::new();
        for s in loop_free_syms(ml) {
            let v = env.get(s.0 as usize)?.as_ref()?;
            kinds.push(VTy::of(v, 0));
        }
        let key = CacheKey {
            hash: structural_hash(ml),
            kinds,
            fuse,
        };
        {
            let mut guard = self.store.lock().expect("kernel cache poisoned");
            let stamp = guard.touch();
            if let Some(entries) = guard.map.get_mut(&key) {
                for e in entries {
                    if e.ml == *ml {
                        e.last_used = stamp;
                        return match &e.cached {
                            Cached::Kernel(k) => {
                                stats::record_cache_hit();
                                self.counters.hits.fetch_add(1, AtomicOrdering::Relaxed);
                                Some(k.clone())
                            }
                            Cached::Fallback => {
                                stats::record_negative_hit();
                                self.counters
                                    .negative_hits
                                    .fetch_add(1, AtomicOrdering::Relaxed);
                                None
                            }
                        };
                    }
                }
            }
        }
        let t0 = Instant::now();
        let compiled = compile_multiloop(ml, env);
        let dt = t0.elapsed();
        let mut guard = self.store.lock().expect("kernel cache poisoned");
        while guard.len >= self.cap {
            if !guard.evict_lru() {
                break;
            }
            stats::record_eviction();
            self.counters.evictions.fetch_add(1, AtomicOrdering::Relaxed);
        }
        let stamp = guard.touch();
        let entries = guard.map.entry(key).or_default();
        let out = match compiled {
            Ok(k) => {
                let k = Arc::new(k);
                stats::record_compile(dt);
                self.counters.misses.fetch_add(1, AtomicOrdering::Relaxed);
                entries.push(CacheEntry {
                    ml: ml.clone(),
                    cached: Cached::Kernel(k.clone()),
                    last_used: stamp,
                });
                Some(k)
            }
            Err(_reject) => {
                stats::record_fallback();
                self.counters.rejections.fetch_add(1, AtomicOrdering::Relaxed);
                entries.push(CacheEntry {
                    ml: ml.clone(),
                    cached: Cached::Fallback,
                    last_used: stamp,
                });
                None
            }
        };
        guard.len += 1;
        out
    }
}

/// Look up or compile via the process-global cache (the un-injected
/// default). See [`KernelCacheHandle::kernel_for`].
pub(crate) fn kernel_for(ml: &Multiloop, env: &Env, fuse: u64) -> Option<Arc<Kernel>> {
    KernelCacheHandle::global().kernel_for(ml, env, fuse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmll_core::Stmt;

    fn env_with(bindings: Vec<(u32, Value)>) -> Env {
        let max = bindings.iter().map(|(s, _)| *s).max().unwrap_or(0) as usize;
        let mut env: Env = vec![None; max + 1];
        for (s, v) in bindings {
            env[s as usize] = Some(v);
        }
        env
    }

    /// sum of squares over a typed f64 array: free x10=arr.
    fn square_sum_loop() -> Multiloop {
        let value = Block {
            params: vec![Sym(0)],
            stmts: vec![
                Stmt::one(
                    Sym(1),
                    Def::ArrayRead {
                        arr: Exp::Sym(Sym(10)),
                        index: Exp::Sym(Sym(0)),
                    },
                ),
                Stmt::one(Sym(2), Def::prim2(PrimOp::Mul, Sym(1), Sym(1))),
            ],
            result: Exp::Sym(Sym(2)),
        };
        let reducer = Block {
            params: vec![Sym(3), Sym(4)],
            stmts: vec![Stmt::one(Sym(5), Def::prim2(PrimOp::Add, Sym(3), Sym(4)))],
            result: Exp::Sym(Sym(5)),
        };
        Multiloop::single(
            Exp::Sym(Sym(11)),
            Gen::Reduce {
                cond: None,
                value,
                reducer,
                init: None,
            },
        )
    }

    #[test]
    fn compiles_typed_reduce_with_fast_reducer() {
        let env = env_with(vec![(10, Value::f64_arr(vec![1.0, 2.0, 3.0]))]);
        let k = compile_multiloop(&square_sum_loop(), &env).expect("compiles");
        assert!(matches!(k.gens[0].fast_red, Some(FastRed::F(FOp::Add))));
        assert_eq!(k.gens[0].val_class as u8, Class::F as u8);
        let mut st = k.new_state(&env, &Externs::default()).unwrap();
        let accs = k.run_range(&mut st, 0, 3).unwrap();
        let vals = k.seal_values(accs, &mut st).unwrap();
        assert_eq!(vals, vec![Value::F64(14.0)]);
    }

    #[test]
    fn chunked_runs_merge_like_one_run() {
        let env = env_with(vec![(10, Value::f64_arr(vec![1.0, 2.0, 3.0, 4.0]))]);
        let k = compile_multiloop(&square_sum_loop(), &env).expect("compiles");
        let mut st = k.new_state(&env, &Externs::default()).unwrap();
        let a = k.run_range(&mut st, 0, 2).unwrap();
        let b = k.run_range(&mut st, 2, 4).unwrap();
        let merged: Vec<KAcc> = a
            .into_iter()
            .zip(b)
            .enumerate()
            .map(|(i, (x, y))| k.merge(i, x, y, &mut st, |_| {}).unwrap())
            .collect();
        let vals = k.seal_values(merged, &mut st).unwrap();
        assert_eq!(vals, vec![Value::F64(30.0)]);
    }

    #[test]
    fn empty_reduce_errors_without_init() {
        let env = env_with(vec![(10, Value::f64_arr(vec![1.0]))]);
        let k = compile_multiloop(&square_sum_loop(), &env).expect("compiles");
        let mut st = k.new_state(&env, &Externs::default()).unwrap();
        let accs = k.run_range(&mut st, 0, 0).unwrap();
        assert_eq!(
            k.seal_values(accs, &mut st).unwrap_err(),
            EvalError::EmptyReduce
        );
    }

    #[test]
    fn read_out_of_bounds_matches_walker_error() {
        let env = env_with(vec![(10, Value::f64_arr(vec![1.0, 2.0]))]);
        let k = compile_multiloop(&square_sum_loop(), &env).expect("compiles");
        let mut st = k.new_state(&env, &Externs::default()).unwrap();
        let err = k.run_range(&mut st, 0, 5).unwrap_err();
        assert_eq!(err, EvalError::IndexOutOfBounds { index: 2, len: 2 });
    }

    #[test]
    fn externs_are_rejected() {
        let value = Block {
            params: vec![Sym(0)],
            stmts: vec![Stmt::one(
                Sym(1),
                Def::Extern {
                    name: "rng".into(),
                    args: vec![],
                    ret: Ty::I64,
                    effectful: true,
                    whitelisted: false,
                },
            )],
            result: Exp::Sym(Sym(1)),
        };
        let ml = Multiloop::single(Exp::i64(3), Gen::Collect { cond: None, value });
        assert!(compile_multiloop(&ml, &Vec::new()).is_err());
    }

    #[test]
    fn cache_reuses_kernel_for_same_types() {
        let env = env_with(vec![(10, Value::f64_arr(vec![1.0]))]);
        let ml = square_sum_loop();
        let k1 = kernel_for(&ml, &env, 0).expect("compiled");
        let k2 = kernel_for(&ml, &env, 0).expect("cached");
        assert!(Arc::ptr_eq(&k1, &k2));
        // Different storage refinement → distinct kernel (not reused).
        let env2 = env_with(vec![(10, Value::i64_arr(vec![1, 2]))]);
        let k3 = kernel_for(&ml, &env2, 0).expect("recompiled");
        assert!(!Arc::ptr_eq(&k1, &k3));
    }

    /// argmin over `(key, index)` tuples: the key is element 0 of `x`, so
    /// the key's class follows `x`'s storage refinement — an `i64` array
    /// gives an integer-keyed selection, an `f64` array a float-keyed one.
    fn argmin_loop() -> Multiloop {
        let value = Block {
            params: vec![Sym(0)],
            stmts: vec![
                Stmt::one(
                    Sym(1),
                    Def::ArrayRead {
                        arr: Exp::Sym(Sym(10)),
                        index: Exp::Sym(Sym(0)),
                    },
                ),
                Stmt::one(Sym(2), Def::TupleNew(vec![Exp::Sym(Sym(1)), Exp::Sym(Sym(0))])),
            ],
            result: Exp::Sym(Sym(2)),
        };
        let reducer = Block {
            params: vec![Sym(3), Sym(4)],
            stmts: vec![
                Stmt::one(
                    Sym(5),
                    Def::TupleGet {
                        tuple: Exp::Sym(Sym(3)),
                        index: 0,
                    },
                ),
                Stmt::one(
                    Sym(6),
                    Def::TupleGet {
                        tuple: Exp::Sym(Sym(4)),
                        index: 0,
                    },
                ),
                Stmt::one(Sym(7), Def::prim2(PrimOp::Lt, Sym(5), Sym(6))),
                Stmt::one(
                    Sym(8),
                    Def::Prim {
                        op: PrimOp::Mux,
                        args: vec![Exp::Sym(Sym(7)), Exp::Sym(Sym(3)), Exp::Sym(Sym(4))],
                    },
                ),
            ],
            result: Exp::Sym(Sym(8)),
        };
        Multiloop::single(
            Exp::Sym(Sym(11)),
            Gen::Reduce {
                cond: None,
                value,
                reducer,
                init: None,
            },
        )
    }

    #[test]
    fn dnc_assoc_certifies_int_keyed_selection_only() {
        let env = env_with(vec![(10, Value::i64_arr(vec![5, 2, 9]))]);
        let k = compile_multiloop(&argmin_loop(), &env).expect("compiles");
        assert!(k.gens[0].fast_red.is_none(), "selection is not a fast-red");
        assert!(!k.exact_assoc(), "fast-red gate alone must not certify");
        assert!(k.dnc_assoc(), "i64-keyed argmin is D&C-associative");

        // Same IR, f64 keys: NaN breaks the total order, never certified.
        let envf = env_with(vec![(10, Value::f64_arr(vec![5.0, 2.0, 9.0]))]);
        let kf = compile_multiloop(&argmin_loop(), &envf).expect("compiles");
        assert!(!kf.dnc_assoc(), "float-keyed selection must decline");
    }

    #[test]
    fn dnc_assoc_certifies_direct_int_selection() {
        // r(a, b) = mux(a < b, a, b): min of the value itself via selection.
        let value = Block {
            params: vec![Sym(0)],
            stmts: vec![Stmt::one(
                Sym(1),
                Def::ArrayRead {
                    arr: Exp::Sym(Sym(10)),
                    index: Exp::Sym(Sym(0)),
                },
            )],
            result: Exp::Sym(Sym(1)),
        };
        let reducer = Block {
            params: vec![Sym(3), Sym(4)],
            stmts: vec![
                Stmt::one(Sym(5), Def::prim2(PrimOp::Lt, Sym(3), Sym(4))),
                Stmt::one(
                    Sym(6),
                    Def::Prim {
                        op: PrimOp::Mux,
                        args: vec![Exp::Sym(Sym(5)), Exp::Sym(Sym(3)), Exp::Sym(Sym(4))],
                    },
                ),
            ],
            result: Exp::Sym(Sym(6)),
        };
        let ml = Multiloop::single(
            Exp::Sym(Sym(11)),
            Gen::Reduce {
                cond: None,
                value,
                reducer,
                init: None,
            },
        );
        let env = env_with(vec![(10, Value::i64_arr(vec![5, 2, 9]))]);
        let k = compile_multiloop(&ml, &env).expect("compiles");
        assert!(k.dnc_assoc());

        // Subtraction in the same slot stays uncertified.
        let mut bad = ml.clone();
        if let Gen::Reduce { reducer, .. } = &mut bad.gens[0] {
            reducer.stmts = vec![Stmt::one(Sym(6), Def::prim2(PrimOp::Sub, Sym(3), Sym(4)))];
        }
        let kb = compile_multiloop(&bad, &env).expect("compiles");
        assert!(!kb.dnc_assoc());
    }

    #[test]
    fn cache_views_share_store_but_not_counters() {
        let env = env_with(vec![(10, Value::f64_arr(vec![1.0]))]);
        let ml = square_sum_loop();
        let cache = KernelCacheHandle::with_capacity(8);
        let tenant_a = cache.view();
        let tenant_b = cache.view();
        assert!(tenant_a.shares_store_with(&tenant_b));

        let k1 = tenant_a.kernel_for(&ml, &env, 0).expect("compiled");
        let k2 = tenant_b.kernel_for(&ml, &env, 0).expect("cached via shared store");
        assert!(Arc::ptr_eq(&k1, &k2), "views share compiled kernels");
        assert_eq!(tenant_a.stats().misses, 1, "A compiled");
        assert_eq!(tenant_a.stats().hits, 0);
        assert_eq!(tenant_b.stats().hits, 1, "B hit A's compile");
        assert_eq!(tenant_b.stats().misses, 0);
        assert_eq!(cache.stats(), CacheStats::default(), "root view untouched");
        assert_eq!(cache.len(), 1);

        // An isolated cache neither shares entries nor counters.
        let isolated = KernelCacheHandle::with_capacity(8);
        assert!(!isolated.shares_store_with(&cache));
        let k3 = isolated.kernel_for(&ml, &env, 0).expect("recompiled");
        assert!(!Arc::ptr_eq(&k1, &k3));
        assert_eq!(isolated.stats().misses, 1);
    }

    #[test]
    fn cache_handle_evictions_are_attributed_to_the_inserting_view() {
        // Capacity 1: every second distinct refinement evicts.
        let cache = KernelCacheHandle::with_capacity(1);
        let ml = square_sum_loop();
        let env_f = env_with(vec![(10, Value::f64_arr(vec![1.0]))]);
        let env_i = env_with(vec![(10, Value::i64_arr(vec![1]))]);
        cache.kernel_for(&ml, &env_f, 0).expect("compiles f64");
        let view = cache.view();
        view.kernel_for(&ml, &env_i, 0).expect("compiles i64, evicting");
        assert_eq!(view.stats().evictions, 1, "evicting view pays");
        assert_eq!(cache.stats().evictions, 0, "other view does not");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_keys_fused_and_unfused_variants_separately() {
        // Regression: before the rewrite fingerprint joined the cache key,
        // a loop appearing both in a fused program and an as-written one
        // (structurally identical, same refinements) would share one LRU
        // entry — so any variant-specific compilation would be silently
        // reused across variants. Distinct fingerprints must miss and
        // store separately; each variant then hits only its own entry.
        let cache = KernelCacheHandle::with_capacity(8);
        let env = env_with(vec![(10, Value::f64_arr(vec![1.0]))]);
        let ml = square_sum_loop();
        let unfused = cache.kernel_for(&ml, &env, 0).expect("compiled");
        let fused = cache.kernel_for(&ml, &env, 0xF00D).expect("compiled separately");
        assert!(!Arc::ptr_eq(&unfused, &fused), "fingerprints key distinct entries");
        assert_eq!(cache.stats().misses, 2, "no cross-fingerprint hit");
        assert_eq!(cache.len(), 2);
        let again = cache.kernel_for(&ml, &env, 0xF00D).expect("cached");
        assert!(Arc::ptr_eq(&fused, &again));
        assert_eq!(cache.stats().hits, 1);
    }

    /// Compile the first body statement (a loop whose free variables are
    /// all program inputs) of a staged program.
    fn first_loop_kernel(p: &Program, inputs: &[(&str, Value)]) -> (Kernel, Env) {
        let mut env: Env = vec![None; p.next_sym_id() as usize];
        for i in &p.inputs {
            let v = inputs.iter().find(|(n, _)| *n == i.name).expect("input bound");
            env[i.sym.0 as usize] = Some(v.1.clone());
        }
        let Def::Loop(ml) = &p.body.stmts[0].def else {
            panic!("first statement is a loop");
        };
        (compile_multiloop(ml, &env).expect("compiles"), env)
    }

    #[test]
    fn vector_valued_reduce_certifies_and_matches_the_element_loop() {
        use dmll_core::LayoutHint;
        let mut st = dmll_frontend::Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let n = st.input("n", Ty::I64, LayoutHint::Local);
        let t = st.input("t", Ty::I64, LayoutHint::Local);
        let sum = st.reduce(
            &n,
            |st, i| {
                let xi = st.read(&x, i);
                st.collect(&t, |st, j| {
                    let jf = st.i2f(j);
                    st.mul(&xi, &jf)
                })
            },
            |st, a, b| st.vec_add(a, b),
            None,
        );
        let p = st.finish(&sum);
        let len = 2 * batch::BLOCK as i64 + 5;
        let data: Vec<f64> = (0..len).map(|i| i as f64 / 7.0 - 100.0).collect();
        let inputs = [
            ("x", Value::f64_arr(data)),
            ("n", Value::I64(len)),
            ("t", Value::I64(3)),
        ];
        let (k, env) = first_loop_kernel(&p, &inputs);
        assert_eq!(k.batch_reject, None);
        assert_eq!(k.vec_trips.len(), 1, "one virtual vector, one trip register");
        let lift = k.gens[0].lifted_red.expect("vec_add is an element-wise lift");
        assert!(matches!(lift.op, FastRed::F(FOp::Add)) && lift.size.is_none());

        let mut bst = k.new_batched_state(&env, &Externs::default()).unwrap();
        let accs = k.run_range_batched(&mut bst, 0, len).unwrap();
        assert!(!bst.scalar.element_loop_ran);
        let batched = k.seal_values(accs, &mut bst.scalar).unwrap();
        let mut st = k.new_state(&env, &Externs::default()).unwrap();
        let accs = k.run_range(&mut st, 0, len).unwrap();
        assert!(st.element_loop_ran);
        assert_eq!(batched, k.seal_values(accs, &mut st).unwrap());
    }

    #[test]
    fn declines_name_the_offending_instruction() {
        use dmll_core::LayoutHint;
        // PageRank's second loop: a bucket read, then arithmetic on its
        // boxed result. The reason is the read, not the boxed result.
        let value = Block {
            params: vec![Sym(0)],
            stmts: vec![
                Stmt::one(
                    Sym(1),
                    Def::BucketGet {
                        buckets: Exp::Sym(Sym(10)),
                        key: Exp::Sym(Sym(0)),
                        default: Some(Exp::Const(Const::F64(0.0))),
                    },
                ),
                Stmt::one(
                    Sym(2),
                    Def::Prim {
                        op: PrimOp::Mul,
                        args: vec![Exp::Const(Const::F64(0.85)), Exp::Sym(Sym(1))],
                    },
                ),
            ],
            result: Exp::Sym(Sym(2)),
        };
        let ml = Multiloop::single(Exp::i64(4), Gen::Collect { cond: None, value });
        let buckets = BucketsVal::new(vec![Value::I64(1)], vec![Value::F64(2.0)]);
        let env = env_with(vec![(10, Value::Buckets(Arc::new(buckets)))]);
        let k = compile_multiloop(&ml, &env).expect("compiles");
        assert_eq!(k.batch_reject, Some(BatchIneligible::BucketOp));

        // A block that certifies (a virtual tuple) yet yields a boxed
        // element is what `boxed_gen_result` is left for.
        let mut st = dmll_frontend::Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let n = st.input("n", Ty::I64, LayoutHint::Local);
        let pairs = st.collect(&n, |st, i| {
            let xi = st.read(&x, i);
            st.tuple(&[&xi, i])
        });
        let p = st.finish(&pairs);
        let inputs = [("x", Value::i64_arr(vec![3, 1, 2])), ("n", Value::I64(3))];
        let (k, _) = first_loop_kernel(&p, &inputs);
        assert_eq!(k.batch_reject, Some(BatchIneligible::BoxedGenResult));
    }

    #[test]
    fn invariants_hoist_to_preamble() {
        // value = arr[i] * c where c = 2.0 const and arr free: the constant
        // load sits in the preamble; the read and multiply stay in the body.
        let value = Block {
            params: vec![Sym(0)],
            stmts: vec![
                Stmt::one(
                    Sym(1),
                    Def::ArrayRead {
                        arr: Exp::Sym(Sym(10)),
                        index: Exp::Sym(Sym(0)),
                    },
                ),
                Stmt::one(
                    Sym(2),
                    Def::Prim {
                        op: PrimOp::Mul,
                        args: vec![Exp::Sym(Sym(1)), Exp::Const(Const::F64(2.0))],
                    },
                ),
            ],
            result: Exp::Sym(Sym(2)),
        };
        let ml = Multiloop::single(Exp::Sym(Sym(11)), Gen::Collect { cond: None, value });
        let env = env_with(vec![(10, Value::f64_arr(vec![1.0, 2.5]))]);
        let k = compile_multiloop(&ml, &env).expect("compiles");
        assert_eq!(k.preamble.len(), 1, "const load hoisted");
        assert_eq!(k.gens[0].value.instrs.len(), 2, "read + mul in body");
        let mut st = k.new_state(&env, &Externs::default()).unwrap();
        let accs = k.run_range(&mut st, 0, 2).unwrap();
        let vals = k.seal_values(accs, &mut st).unwrap();
        assert_eq!(vals[0], Value::f64_arr(vec![2.0, 5.0]));
    }
}




