//! Batched (block-at-a-time) execution for compiled kernels.
//!
//! The scalar bytecode loop in [`super`] still pays one dispatch `match` per
//! instruction *per element*. This module executes each instruction over a
//! fixed-width block of [`BLOCK`] elements instead: every `i64`/`f64`/`bool`
//! register becomes a column (`Vec<i64>` / `Vec<f64>` / `Vec<bool>`), the
//! per-element blocks run as straight-line loops over those columns (which
//! the compiler can autovectorize), and `Collect`/`Reduce` conditions become
//! **selection vectors** — sorted lane lists that let predicated generators
//! skip dead lanes without a per-element branch in the value block.
//!
//! Bit-identity rules (the tier contract from DESIGN.md §8 still binds):
//!
//! * **Certification.** Only kernels whose per-element blocks (cond, key,
//!   value) consist entirely of typed, column-executable instructions are
//!   batchable ([`batch_certify`] reports no reason); everything else
//!   runs the scalar bytecode loop and carries the typed rejection reason.
//!   Reducer blocks are exempt — they execute on the embedded scalar state
//!   per element, so any compilable reducer batches.
//! * **Deferred errors.** A fallible instruction (division, bounds-checked
//!   read) may fault at some lane; the scalar loop would have stopped there.
//!   The batched executor records the first faulting lane, truncates the
//!   active lanes to those *before* it, finishes the block, and reports the
//!   winning error: minimum by (lane, generator index) — exactly the error
//!   the element-at-a-time loop would have raised first.
//! * **Float folds stay in lane order.** Wrapping integer arithmetic is
//!   associative, so integer block reducers may be tree-folded/vectorized by
//!   the compiler; float reduction order is observable in the bits, so float
//!   folds run sequentially in lane order (and no FMA) — exact-merge
//!   semantics allow nothing else.
//! * **Scalar tail.** A range's final `len % BLOCK` elements run through the
//!   scalar `exec_gens` loop against the same accumulators.
//!
//! Bucket generators keep their per-lane key lookups, but typed `i64` keys
//! get a dense epoch-stamped directory ([`DenseDir`]) in front of the
//! authoritative first-seen-order [`KeyIx`], turning the per-element hash
//! into an array index for the small key domains real workloads have
//! (quantiles of group-bys: flags, barcodes, vertex ids).
//!
//! **Nested loops and virtual tuples.** A nested `Reduce` loop whose trip
//! count is loop-invariant (preamble-only size register) runs columnar too:
//! iteration-major, with one accumulator *column* per lane, so the fuse-
//! then-compile pipeline's flagship shapes — k-means' per-row argmin over
//! `k` centroids — stay on the batched tier instead of falling back to
//! scalar bytecode. Per-lane folds apply the reducer lane-wise (never
//! across lanes), so float bits match the element-at-a-time loop exactly.
//! Small tuples of typed components (`(dist, idx)` accumulators) become
//! **virtual tuple columns**: `TupleNewV`/`TupleGet*`/`MuxV` over them
//! execute as per-component column ops, and certification tracks which
//! `V` registers are virtual so nothing ever boxes.
//!
//! **Virtual vectors.** The array counterpart: a nested unconditional
//! `Collect` with a loop-invariant trip count `T` and a typed element runs
//! iteration-major into a `T x BLOCK` slab ([`VVec`]) instead of boxing one
//! array per lane. `len`, typed reads at any index register and all four
//! generator kinds consume the slab directly, so the loops Column-to-Row
//! Reduce produces — a reduce whose element is a whole row vector — stay
//! on this tier. A reducer that lifts a [`FastRed`] op element-wise
//! ([`LiftedRed`]) folds each component over the active lanes in lane
//! order, in place in the ordinary `KAcc::RedV` / `RedBuf::V` accumulator:
//! component `j`'s chain sees the same operands in the same order as the
//! element loop's `a(j) ⊕ b(j)`, so float bits cannot differ. Every other
//! reducer, and any length disagreement, runs the reducer block per lane on
//! a materialised lane vector.

use super::{
    apply_f, apply_i, bounds, read_array, stats, ArrayVal, CBlock, CGen, CLoop, Class, ColBuf,
    EvalError, FastRed, GenKind, Instr, KAcc, KState, Kernel, KeyIx, LiftedRed, RedBuf, Reg,
    Scalar, Value,
};
use crate::eval::{check_extern_ret, eval_math, Env, Externs};
use std::sync::Arc;

/// Lanes per block. Wide enough to amortize dispatch and fill vector units;
/// small enough that per-worker column files stay cache-resident.
pub(crate) const BLOCK: usize = 1024;

/// SIMD lane-chunk width for the full-block column loops: every full-width
/// column op runs as `BLOCK / LANES` fixed-trip inner loops of `LANES`
/// elements (`chunks_exact` proves the bound to the optimizer), which is
/// the shape LLVM reliably turns into vector code — 8×`i64`/`f64` fills a
/// 512-bit register and two AVX2 registers. `BLOCK % LANES == 0` (checked
/// below), so the chunked path has no remainder.
pub(crate) const LANES: usize = 8;

const _: () = assert!(BLOCK.is_multiple_of(LANES), "full blocks must chunk evenly");

/// Keys `0 <= k < DENSE_KEY_CAP` use the dense bucket directory.
const DENSE_KEY_CAP: usize = 1 << 20;

/// Longest virtual vector the batch executor keeps columnar. A slab is
/// `T x BLOCK` elements per virtual register per worker (2 MB of `f64` at
/// the cap); a loop whose vectors are longer runs the scalar loop, where a
/// vector is one allocation per element instead of `BLOCK` at once.
pub(crate) const VEC_TRIP_CAP: usize = 256;

// ---------------------------------------------------------------------------
// Certification
// ---------------------------------------------------------------------------

/// Why a compiled kernel cannot run on the batched tier. A closed, typed
/// taxonomy — not free-form text — so fallback reasons aggregate stably
/// across runs and the bench JSON key set ([`BatchIneligible::key`]) never
/// shifts when a human-facing message is reworded.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum BatchIneligible {
    /// A read from a boxed or dynamically-typed array.
    BoxedArrayRead,
    /// A boxed (`V`-class) operand outside the virtual-tuple cases.
    BoxedOperand,
    /// A dynamic coercion (`CastDyn`, collection size of a dynamic value).
    DynamicCoercion,
    /// `len` of an operand whose array type is not statically known.
    DynamicLength,
    /// A fallback primitive over boxed operands.
    FallbackPrimitive,
    /// Tuple construction or projection outside the virtual-tuple cases.
    TupleOp,
    /// Struct construction or field read.
    StructOp,
    /// A bucket operation inside a generator body.
    BucketOp,
    /// Any other instruction outside the batched whitelist.
    OutsideWhitelist,
    /// A nested loop whose trip count varies per element.
    NestedTripCountVaries,
    /// A nested loop shape the columnar executor does not run
    /// (non-`Reduce` generator or a conditioned nested generator).
    NestedLoopInBody,
    /// A nested reduce over boxed values.
    NestedBoxedReduce,
    /// A generator whose blocks certify but whose element (or key) is still
    /// a boxed (`V`-class) value: a virtual tuple, or an array the nested
    /// columnar path does not produce.
    BoxedGenResult,
    /// A variable-trip nested loop whose body produces or consumes boxed
    /// (or virtual-tuple) values; the segmented executor is scalar-typed.
    SegmentedBoxedValue,
    /// A variable-trip nested loop whose block reducer reads per-element
    /// state beyond its own parameters, so per-lane folds cannot run on
    /// the shared scalar register file.
    SegmentedReducerVaries,
    /// Run-time decline of a kernel that certifies: a virtual vector's trip
    /// count exceeds [`VEC_TRIP_CAP`], so this run took the scalar loop
    /// rather than allocate the slab.
    VectorTooWide,
}

impl BatchIneligible {
    /// The stable snake_case identifier used as the JSON key in bench
    /// artifacts. Renaming one of these is a breaking schema change.
    pub fn key(self) -> &'static str {
        match self {
            BatchIneligible::BoxedArrayRead => "boxed_array_read",
            BatchIneligible::BoxedOperand => "boxed_operand",
            BatchIneligible::DynamicCoercion => "dynamic_coercion",
            BatchIneligible::DynamicLength => "dynamic_length",
            BatchIneligible::FallbackPrimitive => "fallback_primitive",
            BatchIneligible::TupleOp => "tuple_op",
            BatchIneligible::StructOp => "struct_op",
            BatchIneligible::BucketOp => "bucket_op",
            BatchIneligible::OutsideWhitelist => "outside_whitelist",
            BatchIneligible::NestedTripCountVaries => "nested_trip_count_varies",
            BatchIneligible::NestedLoopInBody => "nested_loop_in_body",
            BatchIneligible::NestedBoxedReduce => "nested_boxed_reduce",
            BatchIneligible::BoxedGenResult => "boxed_gen_result",
            BatchIneligible::SegmentedBoxedValue => "segmented_boxed_value",
            BatchIneligible::SegmentedReducerVaries => "segmented_reducer_varies",
            BatchIneligible::VectorTooWide => "vector_too_wide",
        }
    }
}

impl std::fmt::Display for BatchIneligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            BatchIneligible::BoxedArrayRead => "boxed or dynamically-typed array read",
            BatchIneligible::BoxedOperand => "boxed (V-class) operand",
            BatchIneligible::DynamicCoercion => "dynamic coercion",
            BatchIneligible::DynamicLength => "array length of a dynamic operand",
            BatchIneligible::FallbackPrimitive => "fallback primitive (boxed operands)",
            BatchIneligible::TupleOp => "tuple construction or projection",
            BatchIneligible::StructOp => "struct construction or field read",
            BatchIneligible::BucketOp => "bucket operation in generator body",
            BatchIneligible::OutsideWhitelist => "instruction outside the batched whitelist",
            BatchIneligible::NestedTripCountVaries => "nested loop with per-element trip count",
            BatchIneligible::NestedLoopInBody => "nested loop in generator body",
            BatchIneligible::NestedBoxedReduce => "nested reduce over boxed values",
            BatchIneligible::BoxedGenResult => "generator element or key stays boxed",
            BatchIneligible::SegmentedBoxedValue => {
                "boxed value in a variable-trip (segmented) nested loop"
            }
            BatchIneligible::SegmentedReducerVaries => {
                "segmented nested reducer reads per-element state"
            }
            BatchIneligible::VectorTooWide => "vector-valued element wider than the slab bound",
        };
        f.write_str(msg)
    }
}

/// Instructions the column executor implements. Everything here is typed
/// (no `V`-class destinations) and loop-free, so a block made only of these
/// runs as straight-line column loops.
fn instr_batchable(ins: &Instr) -> bool {
    matches!(
        ins,
        Instr::ConstI { .. }
            | Instr::ConstF { .. }
            | Instr::ConstB { .. }
            | Instr::BinI { .. }
            | Instr::DivI { .. }
            | Instr::RemI { .. }
            | Instr::BinF { .. }
            | Instr::NegI { .. }
            | Instr::NegF { .. }
            | Instr::CmpI { .. }
            | Instr::CmpF { .. }
            | Instr::CmpB { .. }
            | Instr::AndB { .. }
            | Instr::OrB { .. }
            | Instr::NotB { .. }
            | Instr::MuxI { .. }
            | Instr::MuxF { .. }
            | Instr::MuxB { .. }
            | Instr::MathF { .. }
            | Instr::CastIF { .. }
            | Instr::CastFI { .. }
            | Instr::ReadVI { .. }
            | Instr::ReadVF { .. }
            | Instr::ReadVB { .. }
    )
}

/// The typed rejection reason for an instruction outside the whitelist
/// (and outside the virtual-tuple/nested-loop cases the certifier handles
/// separately).
fn reject_reason(ins: &Instr) -> BatchIneligible {
    match ins {
        Instr::ReadVV { .. } | Instr::ReadDyn { .. } => BatchIneligible::BoxedArrayRead,
        Instr::ConstV { .. } | Instr::MuxV { .. } | Instr::MathV { .. } => {
            BatchIneligible::BoxedOperand
        }
        Instr::CastDyn { .. } | Instr::SizeI { .. } | Instr::CondB { .. } => {
            BatchIneligible::DynamicCoercion
        }
        Instr::LenA { .. } => BatchIneligible::DynamicLength,
        Instr::PrimV { .. } => BatchIneligible::FallbackPrimitive,
        Instr::TupleNewV { .. }
        | Instr::TupleGetI { .. }
        | Instr::TupleGetF { .. }
        | Instr::TupleGetB { .. }
        | Instr::TupleGetV { .. }
        | Instr::TupleGetDyn { .. } => BatchIneligible::TupleOp,
        Instr::StructNewV { .. } | Instr::StructGetIdx { .. } | Instr::StructGetDyn { .. } => {
            BatchIneligible::StructOp
        }
        Instr::FlattenV { .. }
        | Instr::BucketValuesV { .. }
        | Instr::BucketKeysV { .. }
        | Instr::BucketLenV { .. }
        | Instr::BucketGetV { .. } => BatchIneligible::BucketOp,
        _ => BatchIneligible::OutsideWhitelist,
    }
}

/// The per-class slot in the lane-varying bitmaps (`V` registers are never
/// tracked: boxed values cannot hold trip counts and are never gathered).
fn class_slot(c: Class) -> Option<usize> {
    match c {
        Class::I => Some(0),
        Class::F => Some(1),
        Class::B => Some(2),
        Class::V => None,
    }
}

/// The typed scalar register an instruction writes, if any — used to prove
/// a nested loop's size register preamble-only, and to track which
/// registers vary per element (so segmented bodies know what to gather).
/// `V`-class destinations return `None`.
fn instr_dst_reg(ins: &Instr) -> Option<Reg> {
    let r = |class: Class, idx: u16| Some(Reg { class, idx });
    match ins {
        Instr::ConstI { dst, .. }
        | Instr::BinI { dst, .. }
        | Instr::DivI { dst, .. }
        | Instr::RemI { dst, .. }
        | Instr::NegI { dst, .. }
        | Instr::MuxI { dst, .. }
        | Instr::CastFI { dst, .. }
        | Instr::ReadVI { dst, .. }
        | Instr::TupleGetI { dst, .. }
        | Instr::SizeI { dst, .. }
        | Instr::LenA { dst, .. }
        | Instr::BucketLenV { dst, .. } => r(Class::I, *dst),
        Instr::ConstF { dst, .. }
        | Instr::BinF { dst, .. }
        | Instr::NegF { dst, .. }
        | Instr::MuxF { dst, .. }
        | Instr::MathF { dst, .. }
        | Instr::MathV { dst, .. }
        | Instr::CastIF { dst, .. }
        | Instr::ReadVF { dst, .. }
        | Instr::TupleGetF { dst, .. } => r(Class::F, *dst),
        Instr::ConstB { dst, .. }
        | Instr::CmpI { dst, .. }
        | Instr::CmpF { dst, .. }
        | Instr::CmpB { dst, .. }
        | Instr::AndB { dst, .. }
        | Instr::OrB { dst, .. }
        | Instr::NotB { dst, .. }
        | Instr::MuxB { dst, .. }
        | Instr::CondB { dst, .. }
        | Instr::ReadVB { dst, .. }
        | Instr::TupleGetB { dst, .. } => r(Class::B, *dst),
        Instr::CastDyn { dst, .. }
        | Instr::PrimV { dst, .. }
        | Instr::StructGetIdx { dst, .. }
        | Instr::CallExtern { dst, .. } => (dst.class != Class::V).then_some(*dst),
        Instr::ConstV { .. }
        | Instr::ReadDyn { .. }
        | Instr::MuxV { .. }
        | Instr::ReadVV { .. }
        | Instr::TupleNewV { .. }
        | Instr::TupleGetV { .. }
        | Instr::TupleGetDyn { .. }
        | Instr::StructNewV { .. }
        | Instr::StructGetDyn { .. }
        | Instr::FlattenV { .. }
        | Instr::BucketValuesV { .. }
        | Instr::BucketKeysV { .. }
        | Instr::BucketGetV { .. }
        | Instr::Loop(_) => None,
    }
}

/// Visit every typed register a certified *segmented-body* instruction
/// reads. Only whitelist instructions and `CallExtern` reach this —
/// segmented certification rejects everything else first.
fn seg_instr_reads(ins: &Instr, mut f: impl FnMut(Reg)) {
    let i = |idx: u16| Reg {
        class: Class::I,
        idx,
    };
    let fl = |idx: u16| Reg {
        class: Class::F,
        idx,
    };
    let b = |idx: u16| Reg {
        class: Class::B,
        idx,
    };
    let v = |idx: u16| Reg {
        class: Class::V,
        idx,
    };
    match ins {
        Instr::ConstI { .. } | Instr::ConstF { .. } | Instr::ConstB { .. } => {}
        Instr::BinI { a, b: y, .. } | Instr::DivI { a, b: y, .. } | Instr::RemI { a, b: y, .. } => {
            f(i(*a));
            f(i(*y));
        }
        Instr::BinF { a, b: y, .. } => {
            f(fl(*a));
            f(fl(*y));
        }
        Instr::NegI { a, .. } => f(i(*a)),
        Instr::NegF { a, .. } | Instr::MathF { a, .. } => f(fl(*a)),
        Instr::CmpI { a, b: y, .. } => {
            f(i(*a));
            f(i(*y));
        }
        Instr::CmpF { a, b: y, .. } => {
            f(fl(*a));
            f(fl(*y));
        }
        Instr::CmpB { a, b: y, .. } | Instr::AndB { a, b: y, .. } | Instr::OrB { a, b: y, .. } => {
            f(b(*a));
            f(b(*y));
        }
        Instr::NotB { a, .. } => f(b(*a)),
        Instr::MuxI { c, a, b: y, .. } => {
            f(b(*c));
            f(i(*a));
            f(i(*y));
        }
        Instr::MuxF { c, a, b: y, .. } => {
            f(b(*c));
            f(fl(*a));
            f(fl(*y));
        }
        Instr::MuxB { c, a, b: y, .. } => {
            f(b(*c));
            f(b(*a));
            f(b(*y));
        }
        Instr::CastIF { a, .. } => f(i(*a)),
        Instr::CastFI { a, .. } => f(fl(*a)),
        Instr::ReadVI { arr, idx, .. }
        | Instr::ReadVF { arr, idx, .. }
        | Instr::ReadVB { arr, idx, .. } => {
            f(v(*arr));
            f(i(*idx));
        }
        Instr::CallExtern { args, .. } => {
            for a in args {
                f(*a);
            }
        }
        other => unreachable!("segmented bodies only contain whitelist instructions: {other:?}"),
    }
}

/// Visit each register `b` reads before any write inside `b` — its free
/// reads, the values it pulls from the enclosing (outer) block. Only valid
/// on certified segmented blocks.
fn free_seg_reads(b: &CBlock, mut f: impl FnMut(Reg)) {
    let mut written: Vec<Reg> = b.params.clone();
    for ins in &b.instrs {
        seg_instr_reads(ins, |r| {
            if !written.contains(&r) {
                f(r);
            }
        });
        if let Some(d) = instr_dst_reg(ins) {
            written.push(d);
        }
    }
}

fn note_gen_writes(gens: &[CGen], varying: &mut [Vec<bool>; 3]) {
    for g in gens {
        let blocks = [
            Some(&g.value),
            g.cond.as_ref(),
            g.key.as_ref(),
            g.reducer.as_ref(),
        ];
        for b in blocks.into_iter().flatten() {
            for p in &b.params {
                if let Some(s) = class_slot(p.class) {
                    varying[s][p.idx as usize] = true;
                }
            }
            for ins in &b.instrs {
                if let Some(d) = instr_dst_reg(ins) {
                    if let Some(s) = class_slot(d.class) {
                        varying[s][d.idx as usize] = true;
                    }
                }
            }
        }
    }
}

/// Certifier state: walks the kernel's per-element blocks in execution
/// order, tracking which `V` registers hold *virtual tuples* (tuples of
/// typed components kept as per-component columns) or *virtual vectors*
/// (invariant-length typed arrays kept as slabs), and which `I` registers
/// vary per element (so nested loop sizes can be proven invariant).
struct Cert<'a> {
    k: &'a Kernel,
    /// Component classes per virtual-tuple `V` register.
    virt: Vec<Option<Vec<Class>>>,
    /// Element class per virtual-vector `V` register.
    vecs: Vec<Option<Class>>,
    /// Trip-count registers of the loops that produce virtual vectors.
    vec_trips: Vec<u16>,
    /// Typed registers written inside any per-element block, per class
    /// (`I`/`F`/`B`). A batched nested loop shares one trip count across
    /// lanes, so its size register must not be among the `I` entries; a
    /// *segmented* nested loop gathers exactly these registers from its
    /// owner lane into the flattened iteration space.
    varying: [Vec<bool>; 3],
    /// Execution plans for segmented nested loops, parallel to `k.loops`
    /// (`None` = invariant-trip, runs the columnar nested path).
    seg_plans: Vec<Option<SegPlan>>,
}

impl<'a> Cert<'a> {
    fn new(k: &'a Kernel) -> Cert<'a> {
        let mut varying = [
            vec![false; k.n_regs[0]],
            vec![false; k.n_regs[1]],
            vec![false; k.n_regs[2]],
        ];
        note_gen_writes(&k.gens, &mut varying);
        for cl in &k.loops {
            note_gen_writes(&cl.gens, &mut varying);
            for d in &cl.dsts {
                if let Some(s) = class_slot(d.class) {
                    varying[s][d.idx as usize] = true;
                }
            }
        }
        Cert {
            k,
            virt: vec![None; k.n_regs[3]],
            vecs: vec![None; k.n_regs[3]],
            vec_trips: Vec::new(),
            varying,
            seg_plans: (0..k.loops.len()).map(|_| None).collect(),
        }
    }

    fn is_varying(&self, r: Reg) -> bool {
        class_slot(r.class).is_some_and(|s| self.varying[s][r.idx as usize])
    }

    /// True for a `V` register with no boxed value behind it (its content
    /// lives in columns), which per-lane scalar code must not read.
    fn is_virtual(&self, r: Reg) -> bool {
        r.class == Class::V
            && (self.virt[r.idx as usize].is_some() || self.vecs[r.idx as usize].is_some())
    }

    /// True for a typed read out of a virtual vector. A slab is indexed by
    /// owner lane, so segmented bodies (flat positions) and their reducers
    /// (the scalar register file) cannot serve one.
    fn reads_virtual_vec(&self, ins: &Instr) -> bool {
        match ins {
            Instr::ReadVI { arr, .. } | Instr::ReadVF { arr, .. } | Instr::ReadVB { arr, .. } => {
                self.vecs[*arr as usize].is_some()
            }
            _ => false,
        }
    }

    fn comps_of(&self, t: u16) -> Option<&Vec<Class>> {
        self.virt[t as usize].as_ref()
    }

    fn expect_comp(&self, t: u16, idx: u32, class: Class) -> Result<(), BatchIneligible> {
        match self.comps_of(t) {
            Some(comps) if comps.get(idx as usize) == Some(&class) => Ok(()),
            _ => Err(BatchIneligible::TupleOp),
        }
    }

    fn certify_block(&mut self, b: &CBlock) -> Result<(), BatchIneligible> {
        for ins in &b.instrs {
            if instr_batchable(ins) {
                continue;
            }
            match ins {
                Instr::TupleNewV { dst, args } => {
                    if args.iter().any(|r| r.class == Class::V) {
                        return Err(BatchIneligible::TupleOp);
                    }
                    self.virt[*dst as usize] = Some(args.iter().map(|r| r.class).collect());
                }
                Instr::TupleGetI { t, idx, .. } => self.expect_comp(*t, *idx, Class::I)?,
                Instr::TupleGetF { t, idx, .. } => self.expect_comp(*t, *idx, Class::F)?,
                Instr::TupleGetB { t, idx, .. } => self.expect_comp(*t, *idx, Class::B)?,
                Instr::MuxV { dst, a, b, .. } => {
                    match (self.comps_of(*a), self.comps_of(*b)) {
                        (Some(x), Some(y)) if x == y => {
                            let comps = x.clone();
                            self.virt[*dst as usize] = Some(comps);
                        }
                        _ => return Err(BatchIneligible::BoxedOperand),
                    }
                }
                Instr::CallExtern { args, .. } => {
                    // Per-lane scalar calls: every typed operand has a
                    // column, and a `V` operand must be a real boxed value
                    // in `scalar.rv` (invariant), not a virtual one.
                    if args.iter().any(|r| self.is_virtual(*r)) {
                        return Err(BatchIneligible::BoxedOperand);
                    }
                }
                Instr::LenA { a, .. } if self.vecs[a.idx as usize].is_some() => {}
                Instr::Loop(li) => self.certify_cloop(*li)?,
                ins => return Err(reject_reason(ins)),
            }
        }
        Ok(())
    }

    /// Certify a nested loop: invariant trip count, unconditional `Reduce`
    /// and `Collect` generators, batchable value blocks, typed `Collect`
    /// elements (the result is a virtual vector), and reducers that either
    /// fast-fold or certify columnar themselves (typed or over matching
    /// virtual tuples). Loops whose trip count *varies* per lane take the
    /// segmented path instead of rejecting outright.
    fn certify_cloop(&mut self, li: u32) -> Result<(), BatchIneligible> {
        let k = self.k;
        let cl = &k.loops[li as usize];
        if self.varying[0][cl.size as usize] {
            return self.certify_cloop_segmented(li, cl);
        }
        for (gen, dst) in cl.gens.iter().zip(&cl.dsts) {
            let collect = gen.kind == GenKind::Collect;
            if !(collect || gen.kind == GenKind::Reduce) || gen.cond.is_some() {
                return Err(BatchIneligible::NestedLoopInBody);
            }
            self.certify_block(&gen.value)?;
            let res = gen.value.result;
            if collect {
                if res.class == Class::V {
                    return Err(BatchIneligible::BoxedGenResult);
                }
                self.vecs[dst.idx as usize] = Some(res.class);
                if !self.vec_trips.contains(&cl.size) {
                    self.vec_trips.push(cl.size);
                }
            } else if res.class == Class::V {
                let Some(comps) = self.comps_of(res.idx).cloned() else {
                    return Err(BatchIneligible::BoxedGenResult);
                };
                if gen.init.is_some() {
                    return Err(BatchIneligible::NestedBoxedReduce);
                }
                let rb = gen
                    .reducer
                    .as_ref()
                    .ok_or(BatchIneligible::NestedBoxedReduce)?;
                if rb.params.len() != 2 || rb.params.iter().any(|p| p.class != Class::V) {
                    return Err(BatchIneligible::NestedBoxedReduce);
                }
                self.virt[rb.params[0].idx as usize] = Some(comps.clone());
                self.virt[rb.params[1].idx as usize] = Some(comps.clone());
                self.certify_block(rb)?;
                if rb.result.class != Class::V
                    || self.comps_of(rb.result.idx) != Some(&comps)
                    || dst.class != Class::V
                {
                    return Err(BatchIneligible::NestedBoxedReduce);
                }
                self.virt[dst.idx as usize] = Some(comps);
            } else if gen.fast_red.is_none() {
                let rb = gen
                    .reducer
                    .as_ref()
                    .ok_or(BatchIneligible::NestedBoxedReduce)?;
                if rb.params.len() != 2
                    || rb.params.iter().any(|p| p.class != res.class)
                    || rb.result.class != res.class
                {
                    return Err(BatchIneligible::NestedBoxedReduce);
                }
                self.certify_block(rb)?;
            }
        }
        Ok(())
    }

    /// Certify a nested loop whose trip count is lane-varying for the
    /// *segmented* executor: flatten the per-lane iteration spaces
    /// CSR-style into [`BLOCK`]-wide chunks, run the value blocks over the
    /// flat space, and fold back per owner lane. Requirements: `Reduce`-
    /// only unconditional generators with typed (non-boxed) results, value
    /// blocks of whitelist instructions (plus `CallExtern`; no third
    /// nesting level), and reducers that fast-fold or read nothing
    /// lane-varying beyond their parameters (the fold runs on the shared
    /// scalar register file).
    fn certify_cloop_segmented(&mut self, li: u32, cl: &CLoop) -> Result<(), BatchIneligible> {
        for (gen, dst) in cl.gens.iter().zip(&cl.dsts) {
            if gen.kind != GenKind::Reduce || gen.cond.is_some() {
                return Err(BatchIneligible::NestedLoopInBody);
            }
            let res = gen.value.result;
            if res.class == Class::V || dst.class == Class::V {
                return Err(BatchIneligible::SegmentedBoxedValue);
            }
            self.certify_seg_block(&gen.value)?;
            if gen.fast_red.is_none() {
                let rb = gen
                    .reducer
                    .as_ref()
                    .ok_or(BatchIneligible::NestedBoxedReduce)?;
                if rb.params.len() != 2
                    || rb.params.iter().any(|p| p.class != res.class)
                    || rb.result.class != res.class
                {
                    return Err(BatchIneligible::NestedBoxedReduce);
                }
                self.certify_seg_reducer(rb)?;
            }
        }
        // Gather set: lane-varying outer registers the flattened bodies
        // read, deduped in first-read order.
        let mut gather: Vec<Reg> = Vec::new();
        for gen in &cl.gens {
            free_seg_reads(&gen.value, |r| {
                if self.is_varying(r) && !gather.contains(&r) {
                    gather.push(r);
                }
            });
        }
        self.seg_plans[li as usize] = Some(SegPlan { gather });
        Ok(())
    }

    /// A segmented value block: whitelist instructions plus per-lane
    /// `CallExtern`. No nested `Instr::Loop` (a third, data-dependent
    /// nesting level falls back with a typed reason) and nothing virtual
    /// or boxed-producing.
    fn certify_seg_block(&self, b: &CBlock) -> Result<(), BatchIneligible> {
        for ins in &b.instrs {
            match ins {
                Instr::Loop(_) => return Err(BatchIneligible::NestedLoopInBody),
                Instr::CallExtern { args, .. } => {
                    if args.iter().any(|r| self.is_virtual(*r)) {
                        return Err(BatchIneligible::BoxedOperand);
                    }
                }
                ins if self.reads_virtual_vec(ins) => {
                    return Err(BatchIneligible::SegmentedBoxedValue)
                }
                ins if instr_batchable(ins) => {}
                ins => {
                    return Err(match reject_reason(ins) {
                        BatchIneligible::TupleOp => BatchIneligible::SegmentedBoxedValue,
                        r => r,
                    })
                }
            }
        }
        Ok(())
    }

    /// A segmented block reducer folds per flat element on the shared
    /// scalar register file, so beyond its two parameters it may only read
    /// lane-invariant registers (whose true values the scalar state holds).
    fn certify_seg_reducer(&self, rb: &CBlock) -> Result<(), BatchIneligible> {
        for ins in &rb.instrs {
            match ins {
                Instr::CallExtern { args, .. } => {
                    if args.iter().any(|r| self.is_virtual(*r)) {
                        return Err(BatchIneligible::BoxedOperand);
                    }
                }
                ins if self.reads_virtual_vec(ins) => {
                    return Err(BatchIneligible::SegmentedBoxedValue)
                }
                ins if instr_batchable(ins) => {}
                _ => return Err(BatchIneligible::NestedBoxedReduce),
            }
        }
        let mut varies = false;
        free_seg_reads(rb, |r| varies = varies || self.is_varying(r));
        if varies {
            return Err(BatchIneligible::SegmentedReducerVaries);
        }
        Ok(())
    }
}

/// Execution plan for a *segmented* nested loop (lane-varying trip count):
/// the lane-varying outer registers its flattened bodies read, gathered
/// from the saved outer column into each flat position by owner lane.
#[derive(Debug)]
pub(crate) struct SegPlan {
    pub gather: Vec<Reg>,
}

/// Certify a kernel for the batched tier: the first non-certifying
/// instruction mapped to a stable, typed reason (`None` = the kernel
/// certifies) — or [`BatchIneligible::BoxedGenResult`] for a block that
/// certifies yet yields a boxed value the accumulators cannot take
/// columnar — plus the segmented execution plans for any lane-varying
/// nested loops and the trip-count registers of the virtual vectors.
/// Surfaced through the per-loop fallback counters so "batched_loops: 0"
/// is never an unexplained miss.
pub(crate) fn batch_certify(
    k: &Kernel,
) -> (Option<BatchIneligible>, Vec<Option<SegPlan>>, Vec<u16>) {
    let mut cert = Cert::new(k);
    let reject = |r| (Some(r), Vec::new(), Vec::new());
    for g in &k.gens {
        if let Err(r) = cert.certify_block(&g.value) {
            return reject(r);
        }
        // A value may be a virtual vector (materialised per lane into the
        // boxed accumulators); conditions and keys must be typed.
        let res = g.value.result;
        if res.class == Class::V && cert.vecs[res.idx as usize].is_none() {
            return reject(BatchIneligible::BoxedGenResult);
        }
        for b in [g.cond.as_ref(), g.key.as_ref()].into_iter().flatten() {
            if let Err(r) = cert.certify_block(b) {
                return reject(r);
            }
            if b.result.class == Class::V {
                return reject(BatchIneligible::BoxedGenResult);
            }
        }
    }
    (None, cert.seg_plans, cert.vec_trips)
}

// ---------------------------------------------------------------------------
// Columnar state
// ---------------------------------------------------------------------------

/// Dense `i64`-key → bucket-slot directory, epoch-stamped so reusing a
/// worker state across tasks never requires clearing the table: entries
/// from an older epoch simply read as misses.
struct DenseDir {
    epoch: u64,
    slots: Vec<(u64, u32)>,
}

impl DenseDir {
    fn new() -> DenseDir {
        DenseDir {
            epoch: 0,
            slots: Vec::new(),
        }
    }
}

/// Typed column storage for virtual values: one component column of a
/// virtual tuple, or the whole slab of a virtual vector.
#[derive(Clone)]
enum VCol {
    I(Vec<i64>),
    F(Vec<f64>),
    B(Vec<bool>),
}

/// A virtual vector: every lane's `len`-element array, stored iteration-
/// major — row `j` (`slab[j * BLOCK..][..BLOCK]`) holds element `j` of all
/// lanes, exactly the column the producing loop's iteration `j` computed.
struct VVec {
    len: usize,
    slab: VCol,
}

impl VVec {
    /// Lane `l` as the array the scalar loop's nested `Collect` seals:
    /// typed storage when non-empty, `Boxed` when empty (`seal_array`).
    fn lane_value(&self, l: usize) -> Value {
        fn lane<T: Copy>(slab: &[T], len: usize, l: usize) -> Arc<Vec<T>> {
            Arc::new((0..len).map(|j| slab[j * BLOCK + l]).collect())
        }
        Value::Arr(match &self.slab {
            _ if self.len == 0 => ArrayVal::Boxed(Arc::new(Vec::new())),
            VCol::I(s) => ArrayVal::I64(lane(s, self.len, l)),
            VCol::F(s) => ArrayVal::F64(lane(s, self.len, l)),
            VCol::B(s) => ArrayVal::Bool(lane(s, self.len, l)),
        })
    }
}

/// Batched register files: one [`BLOCK`]-wide column per typed register,
/// plus the embedded scalar state that holds `V` registers (all invariant
/// under certification), runs the preamble, reducer blocks, and the tail.
pub(crate) struct BState {
    ci: Vec<Vec<i64>>,
    cf: Vec<Vec<f64>>,
    cb: Vec<Vec<bool>>,
    /// Virtual tuple columns per `V` register (`None` = a real boxed value
    /// living in `scalar.rv`; certification keeps the two disjoint).
    cv: Vec<Option<Vec<VCol>>>,
    /// Virtual vector slabs per `V` register (empty when the kernel has
    /// none), allocated by the first run of the producing loop and reused
    /// (overwritten) by every later one.
    vv: Vec<Option<VVec>>,
    /// One dense key directory per top-level generator.
    dense: Vec<DenseDir>,
    /// Per-element block executions since the last flush that ran the
    /// full-width lane-chunked (SIMD) path; drained into the process-wide
    /// counter once per `run_range_batched` call.
    simd_blocks: u64,
    /// Flattened-chunk executions of segmented nested loops since the last
    /// flush; drained alongside `simd_blocks`.
    segmented_blocks: u64,
    pub(crate) scalar: KState,
}

impl Kernel {
    /// Bind free variables, run the preamble on the scalar state, then
    /// splat every scalar register into its column: invariant registers get
    /// their true value in every lane; varying registers hold junk that is
    /// always overwritten before it is read (every non-invariant register
    /// is a block param or an instruction destination, written over the
    /// active lanes before any use in the same block run).
    pub(crate) fn new_batched_state(&self, env: &Env, externs: &Externs) -> Result<BState, EvalError> {
        let scalar = self.new_state(env, externs)?;
        Ok(BState {
            ci: scalar.ri.iter().map(|&v| vec![v; BLOCK]).collect(),
            cf: scalar.rf.iter().map(|&v| vec![v; BLOCK]).collect(),
            cb: scalar.rb.iter().map(|&v| vec![v; BLOCK]).collect(),
            cv: vec![None; scalar.rv.len()],
            // Most kernels have no virtual vector; theirs stays unallocated
            // (a state is built per small loop on the service's hot path).
            vv: if self.vec_trips.is_empty() {
                Vec::new()
            } else {
                scalar.rv.iter().map(|_| None).collect()
            },
            dense: self.gens.iter().map(|_| DenseDir::new()).collect(),
            simd_blocks: 0,
            segmented_blocks: 0,
            scalar,
        })
    }
}

/// Active lanes of one block, in increasing order.
#[derive(Clone)]
enum Lanes {
    /// All `0..BLOCK` lanes.
    Full,
    /// An explicit selection vector.
    Sel(Vec<u32>),
}

impl Lanes {
    /// Drop every lane `>= lane` (a fallible instruction faulted there).
    fn truncate_before(&mut self, lane: usize) {
        match self {
            Lanes::Full => *self = Lanes::Sel((0..lane as u32).collect()),
            Lanes::Sel(s) => {
                let cut = s.partition_point(|&l| (l as usize) < lane);
                s.truncate(cut);
            }
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, Lanes::Sel(s) if s.is_empty())
    }

    /// The lowest active lane.
    fn first(&self) -> Option<usize> {
        match self {
            Lanes::Full => Some(0),
            Lanes::Sel(s) => s.first().map(|&l| l as usize),
        }
    }
}

/// Run `f` over every active lane; the first `Err` is tagged with its lane.
fn each_lane(
    lanes: &Lanes,
    mut f: impl FnMut(usize) -> Result<(), EvalError>,
) -> Result<(), (usize, EvalError)> {
    match lanes {
        Lanes::Full => {
            for l in 0..BLOCK {
                f(l).map_err(|e| (l, e))?;
            }
        }
        Lanes::Sel(s) => {
            for &l in s {
                let l = l as usize;
                f(l).map_err(|e| (l, e))?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Column loops
// ---------------------------------------------------------------------------
//
// Destination columns are `mem::take`n out of the register file before the
// operand columns are borrowed (instruction destinations are always freshly
// allocated registers, so `dst` never aliases an operand), which gives the
// optimizer clean, bounds-check-free inner loops over the `Full` lane set.

fn unop<T: Copy, U: Copy>(d: &mut [U], a: &[T], lanes: &Lanes, f: impl Fn(T) -> U) {
    match lanes {
        Lanes::Full => {
            let (d, a) = (&mut d[..BLOCK], &a[..BLOCK]);
            for (dc, ac) in d.chunks_exact_mut(LANES).zip(a.chunks_exact(LANES)) {
                for l in 0..LANES {
                    dc[l] = f(ac[l]);
                }
            }
        }
        Lanes::Sel(s) => {
            for &l in s {
                let l = l as usize;
                d[l] = f(a[l]);
            }
        }
    }
}

fn binop<T: Copy, U: Copy>(d: &mut [U], a: &[T], b: &[T], lanes: &Lanes, f: impl Fn(T, T) -> U) {
    match lanes {
        Lanes::Full => {
            let (d, a, b) = (&mut d[..BLOCK], &a[..BLOCK], &b[..BLOCK]);
            for ((dc, ac), bc) in d
                .chunks_exact_mut(LANES)
                .zip(a.chunks_exact(LANES))
                .zip(b.chunks_exact(LANES))
            {
                for l in 0..LANES {
                    dc[l] = f(ac[l], bc[l]);
                }
            }
        }
        Lanes::Sel(s) => {
            for &l in s {
                let l = l as usize;
                d[l] = f(a[l], b[l]);
            }
        }
    }
}

fn try_binop<T: Copy, U: Copy>(
    d: &mut [U],
    a: &[T],
    b: &[T],
    lanes: &Lanes,
    f: impl Fn(T, T) -> Result<U, EvalError>,
) -> Result<(), (usize, EvalError)> {
    each_lane(lanes, |l| {
        d[l] = f(a[l], b[l])?;
        Ok(())
    })
}

fn muxop<T: Copy>(d: &mut [T], c: &[bool], a: &[T], b: &[T], lanes: &Lanes) {
    match lanes {
        Lanes::Full => {
            let (d, c, a, b) = (&mut d[..BLOCK], &c[..BLOCK], &a[..BLOCK], &b[..BLOCK]);
            for (((dc, cc), ac), bc) in d
                .chunks_exact_mut(LANES)
                .zip(c.chunks_exact(LANES))
                .zip(a.chunks_exact(LANES))
                .zip(b.chunks_exact(LANES))
            {
                for l in 0..LANES {
                    dc[l] = if cc[l] { ac[l] } else { bc[l] };
                }
            }
        }
        Lanes::Sel(s) => {
            for &l in s {
                let l = l as usize;
                d[l] = if c[l] { a[l] } else { b[l] };
            }
        }
    }
}

/// Blend `b` into `d` (which holds `a`'s values) where the condition is
/// false — the in-place half of a `MuxV` over virtual tuple components.
fn blend<T: Copy>(d: &mut [T], c: &[bool], b: &[T], lanes: &Lanes) {
    match lanes {
        Lanes::Full => {
            let (d, c, b) = (&mut d[..BLOCK], &c[..BLOCK], &b[..BLOCK]);
            for ((dc, cc), bc) in d
                .chunks_exact_mut(LANES)
                .zip(c.chunks_exact(LANES))
                .zip(b.chunks_exact(LANES))
            {
                for l in 0..LANES {
                    // Branchless select keeps the chunk vectorizable.
                    dc[l] = if cc[l] { dc[l] } else { bc[l] };
                }
            }
        }
        Lanes::Sel(s) => {
            for &l in s {
                let l = l as usize;
                if !c[l] {
                    d[l] = b[l];
                }
            }
        }
    }
}

/// Fold `col` into `acc` lane-wise. Per-lane chains are independent, so
/// float folds here never reassociate across lanes.
fn fold_lanes<T: Copy>(acc: &mut [T], col: &[T], lanes: &Lanes, f: impl Fn(T, T) -> T) {
    match lanes {
        Lanes::Full => {
            let (a, c) = (&mut acc[..BLOCK], &col[..BLOCK]);
            for (ac, cc) in a.chunks_exact_mut(LANES).zip(c.chunks_exact(LANES)) {
                for l in 0..LANES {
                    ac[l] = f(ac[l], cc[l]);
                }
            }
        }
        Lanes::Sel(s) => {
            for &l in s {
                let l = l as usize;
                acc[l] = f(acc[l], col[l]);
            }
        }
    }
}

/// Gather `f(idx[l])` into `d` over the active lanes.
fn try_gather<T: Copy>(
    d: &mut [T],
    idx: &[i64],
    lanes: &Lanes,
    f: impl Fn(i64) -> Result<T, EvalError>,
) -> Result<(), (usize, EvalError)> {
    each_lane(lanes, |l| {
        d[l] = f(idx[l])?;
        Ok(())
    })
}

/// The virtual vector in `V` register `r`, if that register holds one.
fn vvec_at(vv: &[Option<VVec>], r: u16) -> Option<&VVec> {
    vv.get(r as usize).and_then(Option::as_ref)
}

/// Gather lane `l`'s element `idx[l]` of a virtual vector into `d`.
fn gather_slab<T: Copy>(
    d: &mut [T],
    slab: &[T],
    len: usize,
    idx: &[i64],
    lanes: &Lanes,
) -> Result<(), (usize, EvalError)> {
    each_lane(lanes, |l| {
        d[l] = slab[bounds(idx[l], len)? * BLOCK + l];
        Ok(())
    })
}

macro_rules! take_col {
    ($st:expr, $file:ident, $r:expr) => {
        std::mem::take(&mut $st.$file[$r as usize])
    };
}

impl Kernel {
    /// Execute one certified instruction over the active lanes.
    #[allow(clippy::too_many_lines)]
    fn bstep(&self, ins: &Instr, st: &mut BState, lanes: &Lanes) -> Result<(), (usize, EvalError)> {
        match ins {
            Instr::ConstI { dst, v } => st.ci[*dst as usize].fill(*v),
            Instr::ConstF { dst, v } => st.cf[*dst as usize].fill(*v),
            Instr::ConstB { dst, v } => st.cb[*dst as usize].fill(*v),
            Instr::BinI { op, dst, a, b } => {
                let mut d = take_col!(st, ci, *dst);
                let op = *op;
                binop(
                    &mut d,
                    &st.ci[*a as usize],
                    &st.ci[*b as usize],
                    lanes,
                    |x, y| apply_i(op, x, y),
                );
                st.ci[*dst as usize] = d;
            }
            Instr::DivI { dst, a, b } => {
                let mut d = take_col!(st, ci, *dst);
                let r = try_binop(
                    &mut d,
                    &st.ci[*a as usize],
                    &st.ci[*b as usize],
                    lanes,
                    |x, y| {
                        if y == 0 {
                            Err(EvalError::DivisionByZero)
                        } else {
                            Ok(x / y)
                        }
                    },
                );
                st.ci[*dst as usize] = d;
                r?;
            }
            Instr::RemI { dst, a, b } => {
                let mut d = take_col!(st, ci, *dst);
                let r = try_binop(
                    &mut d,
                    &st.ci[*a as usize],
                    &st.ci[*b as usize],
                    lanes,
                    |x, y| {
                        if y == 0 {
                            Err(EvalError::DivisionByZero)
                        } else {
                            Ok(x % y)
                        }
                    },
                );
                st.ci[*dst as usize] = d;
                r?;
            }
            Instr::BinF { op, dst, a, b } => {
                let mut d = take_col!(st, cf, *dst);
                let op = *op;
                binop(
                    &mut d,
                    &st.cf[*a as usize],
                    &st.cf[*b as usize],
                    lanes,
                    |x, y| apply_f(op, x, y),
                );
                st.cf[*dst as usize] = d;
            }
            Instr::NegI { dst, a } => {
                let mut d = take_col!(st, ci, *dst);
                unop(&mut d, &st.ci[*a as usize], lanes, |x: i64| -x);
                st.ci[*dst as usize] = d;
            }
            Instr::NegF { dst, a } => {
                let mut d = take_col!(st, cf, *dst);
                unop(&mut d, &st.cf[*a as usize], lanes, |x: f64| -x);
                st.cf[*dst as usize] = d;
            }
            Instr::CmpI { op, dst, a, b } => {
                let mut d = take_col!(st, cb, *dst);
                let op = *op;
                binop(
                    &mut d,
                    &st.ci[*a as usize],
                    &st.ci[*b as usize],
                    lanes,
                    |x, y| super::apply_cmp(op, x, y),
                );
                st.cb[*dst as usize] = d;
            }
            Instr::CmpF { op, dst, a, b } => {
                let mut d = take_col!(st, cb, *dst);
                let op = *op;
                binop(
                    &mut d,
                    &st.cf[*a as usize],
                    &st.cf[*b as usize],
                    lanes,
                    |x, y| super::apply_cmp(op, x, y),
                );
                st.cb[*dst as usize] = d;
            }
            Instr::CmpB { op, dst, a, b } => {
                let mut d = take_col!(st, cb, *dst);
                let eq = matches!(op, super::CmpOp::Eq);
                binop(
                    &mut d,
                    &st.cb[*a as usize],
                    &st.cb[*b as usize],
                    lanes,
                    |x, y| if eq { x == y } else { x != y },
                );
                st.cb[*dst as usize] = d;
            }
            Instr::AndB { dst, a, b } => {
                let mut d = take_col!(st, cb, *dst);
                binop(
                    &mut d,
                    &st.cb[*a as usize],
                    &st.cb[*b as usize],
                    lanes,
                    |x, y| x && y,
                );
                st.cb[*dst as usize] = d;
            }
            Instr::OrB { dst, a, b } => {
                let mut d = take_col!(st, cb, *dst);
                binop(
                    &mut d,
                    &st.cb[*a as usize],
                    &st.cb[*b as usize],
                    lanes,
                    |x, y| x || y,
                );
                st.cb[*dst as usize] = d;
            }
            Instr::NotB { dst, a } => {
                let mut d = take_col!(st, cb, *dst);
                unop(&mut d, &st.cb[*a as usize], lanes, |x: bool| !x);
                st.cb[*dst as usize] = d;
            }
            Instr::MuxI { dst, c, a, b } => {
                let mut d = take_col!(st, ci, *dst);
                muxop(
                    &mut d,
                    &st.cb[*c as usize],
                    &st.ci[*a as usize],
                    &st.ci[*b as usize],
                    lanes,
                );
                st.ci[*dst as usize] = d;
            }
            Instr::MuxF { dst, c, a, b } => {
                let mut d = take_col!(st, cf, *dst);
                muxop(
                    &mut d,
                    &st.cb[*c as usize],
                    &st.cf[*a as usize],
                    &st.cf[*b as usize],
                    lanes,
                );
                st.cf[*dst as usize] = d;
            }
            Instr::MuxB { dst, c, a, b } => {
                let mut d = take_col!(st, cb, *dst);
                muxop(
                    &mut d,
                    &st.cb[*c as usize],
                    &st.cb[*a as usize],
                    &st.cb[*b as usize],
                    lanes,
                );
                st.cb[*dst as usize] = d;
            }
            Instr::MathF { f, dst, a } => {
                let mut d = take_col!(st, cf, *dst);
                let f = *f;
                unop(&mut d, &st.cf[*a as usize], lanes, |x| eval_math(f, x));
                st.cf[*dst as usize] = d;
            }
            Instr::CastIF { dst, a } => {
                let mut d = take_col!(st, cf, *dst);
                unop(&mut d, &st.ci[*a as usize], lanes, |x: i64| x as f64);
                st.cf[*dst as usize] = d;
            }
            Instr::CastFI { dst, a } => {
                let mut d = take_col!(st, ci, *dst);
                unop(&mut d, &st.cf[*a as usize], lanes, |x: f64| x as i64);
                st.ci[*dst as usize] = d;
            }
            Instr::ReadVI { dst, arr, idx } => {
                let mut d = take_col!(st, ci, *dst);
                let ic = &st.ci[*idx as usize];
                let r = match (vvec_at(&st.vv, *arr), &st.scalar.rv[*arr as usize]) {
                    (Some(VVec { len, slab: VCol::I(s) }), _) => {
                        gather_slab(&mut d, s, *len, ic, lanes)
                    }
                    (Some(_), _) => unreachable!("certified virtual vector class"),
                    (None, Value::Arr(ArrayVal::I64(v))) => try_gather(&mut d, ic, lanes, |i| {
                        let p = bounds(i, v.len())?;
                        Ok(v[p])
                    }),
                    (None, other) => try_gather(&mut d, ic, lanes, |i| {
                        read_array(other, &Value::I64(i))?
                            .as_i64()
                            .ok_or_else(|| EvalError::TypeMismatch("typed array read".into()))
                    }),
                };
                st.ci[*dst as usize] = d;
                r?;
            }
            Instr::ReadVF { dst, arr, idx } => {
                let mut d = take_col!(st, cf, *dst);
                let ic = &st.ci[*idx as usize];
                let r = match (vvec_at(&st.vv, *arr), &st.scalar.rv[*arr as usize]) {
                    (Some(VVec { len, slab: VCol::F(s) }), _) => {
                        gather_slab(&mut d, s, *len, ic, lanes)
                    }
                    (Some(_), _) => unreachable!("certified virtual vector class"),
                    (None, Value::Arr(ArrayVal::F64(v))) => try_gather(&mut d, ic, lanes, |i| {
                        let p = bounds(i, v.len())?;
                        Ok(v[p])
                    }),
                    (None, other) => try_gather(&mut d, ic, lanes, |i| {
                        read_array(other, &Value::I64(i))?
                            .as_f64()
                            .ok_or_else(|| EvalError::TypeMismatch("typed array read".into()))
                    }),
                };
                st.cf[*dst as usize] = d;
                r?;
            }
            Instr::ReadVB { dst, arr, idx } => {
                let mut d = take_col!(st, cb, *dst);
                let ic = &st.ci[*idx as usize];
                let r = match (vvec_at(&st.vv, *arr), &st.scalar.rv[*arr as usize]) {
                    (Some(VVec { len, slab: VCol::B(s) }), _) => {
                        gather_slab(&mut d, s, *len, ic, lanes)
                    }
                    (Some(_), _) => unreachable!("certified virtual vector class"),
                    (None, Value::Arr(ArrayVal::Bool(v))) => try_gather(&mut d, ic, lanes, |i| {
                        let p = bounds(i, v.len())?;
                        Ok(v[p])
                    }),
                    (None, other) => try_gather(&mut d, ic, lanes, |i| {
                        read_array(other, &Value::I64(i))?
                            .as_bool()
                            .ok_or_else(|| EvalError::TypeMismatch("typed array read".into()))
                    }),
                };
                st.cb[*dst as usize] = d;
                r?;
            }
            Instr::LenA { dst, a } => {
                let v = st.vv[a.idx as usize].as_ref().expect("virtual vector register");
                st.ci[*dst as usize].fill(v.len as i64);
            }
            Instr::TupleNewV { dst, args } => {
                let comps = args
                    .iter()
                    .map(|r| match r.class {
                        Class::I => VCol::I(st.ci[r.idx as usize].clone()),
                        Class::F => VCol::F(st.cf[r.idx as usize].clone()),
                        Class::B => VCol::B(st.cb[r.idx as usize].clone()),
                        Class::V => unreachable!("certified tuple components are typed"),
                    })
                    .collect();
                st.cv[*dst as usize] = Some(comps);
            }
            Instr::TupleGetI { dst, t, idx } => {
                let mut d = take_col!(st, ci, *dst);
                match &st.cv[*t as usize].as_ref().expect("virtual tuple register")
                    [*idx as usize]
                {
                    VCol::I(c) => unop(&mut d, c, lanes, |x| x),
                    _ => unreachable!("certified tuple component class"),
                }
                st.ci[*dst as usize] = d;
            }
            Instr::TupleGetF { dst, t, idx } => {
                let mut d = take_col!(st, cf, *dst);
                match &st.cv[*t as usize].as_ref().expect("virtual tuple register")
                    [*idx as usize]
                {
                    VCol::F(c) => unop(&mut d, c, lanes, |x| x),
                    _ => unreachable!("certified tuple component class"),
                }
                st.cf[*dst as usize] = d;
            }
            Instr::TupleGetB { dst, t, idx } => {
                let mut d = take_col!(st, cb, *dst);
                match &st.cv[*t as usize].as_ref().expect("virtual tuple register")
                    [*idx as usize]
                {
                    VCol::B(c) => unop(&mut d, c, lanes, |x| x),
                    _ => unreachable!("certified tuple component class"),
                }
                st.cb[*dst as usize] = d;
            }
            Instr::MuxV { dst, c, a, b } => {
                let mut out = st.cv[*a as usize].clone().expect("virtual tuple register");
                {
                    let bv = st.cv[*b as usize].as_ref().expect("virtual tuple register");
                    let cc = &st.cb[*c as usize];
                    for (oc, bc) in out.iter_mut().zip(bv) {
                        match (oc, bc) {
                            (VCol::I(o), VCol::I(bb)) => blend(o, cc, bb, lanes),
                            (VCol::F(o), VCol::F(bb)) => blend(o, cc, bb, lanes),
                            (VCol::B(o), VCol::B(bb)) => blend(o, cc, bb, lanes),
                            _ => unreachable!("certified tuple component class"),
                        }
                    }
                }
                st.cv[*dst as usize] = Some(out);
            }
            Instr::CallExtern { dst, ext, args } => {
                // Per-lane scalar calls in lane order: handlers are opaque,
                // so there is no columnar form, but certification guarantees
                // every operand marshals from a column (or an invariant
                // boxed value) and the checked return lands in a column.
                let decl = &self.externs[*ext as usize];
                let Some(f) = st.scalar.ext[*ext as usize].clone() else {
                    return Err((
                        lanes.first().unwrap_or(0),
                        EvalError::UnknownExtern(decl.name.clone()),
                    ));
                };
                let marshal = |st: &BState, l: usize| -> Vec<Value> {
                    args.iter()
                        .map(|a| match a.class {
                            Class::I => Value::I64(st.ci[a.idx as usize][l]),
                            Class::F => Value::F64(st.cf[a.idx as usize][l]),
                            Class::B => Value::Bool(st.cb[a.idx as usize][l]),
                            Class::V => st.scalar.rv[a.idx as usize].clone(),
                        })
                        .collect()
                };
                let call = |st: &BState, l: usize| -> Result<Value, EvalError> {
                    let v = f(&marshal(st, l))?;
                    check_extern_ret(&decl.name, &decl.ret, &v)?;
                    Ok(v)
                };
                match dst.class {
                    Class::I => {
                        let mut d = take_col!(st, ci, dst.idx);
                        let r = each_lane(lanes, |l| {
                            d[l] = call(st, l)?.as_i64().expect("checked extern return");
                            Ok(())
                        });
                        st.ci[dst.idx as usize] = d;
                        r?;
                    }
                    Class::F => {
                        let mut d = take_col!(st, cf, dst.idx);
                        let r = each_lane(lanes, |l| {
                            d[l] = call(st, l)?.as_f64().expect("checked extern return");
                            Ok(())
                        });
                        st.cf[dst.idx as usize] = d;
                        r?;
                    }
                    Class::B => {
                        let mut d = take_col!(st, cb, dst.idx);
                        let r = each_lane(lanes, |l| {
                            d[l] = call(st, l)?.as_bool().expect("checked extern return");
                            Ok(())
                        });
                        st.cb[dst.idx as usize] = d;
                        r?;
                    }
                    Class::V => unreachable!("extern returns are scalar-typed"),
                }
            }
            Instr::Loop(li) => {
                let cl = &self.loops[*li as usize];
                return match self.seg_plans.get(*li as usize).and_then(Option::as_ref) {
                    Some(plan) => self.run_cloop_segmented(cl, plan, st, lanes),
                    None => self.run_cloop_batched(cl, st, lanes),
                };
            }
            other => unreachable!("instruction not certified for batched execution: {other:?}"),
        }
        Ok(())
    }

    /// Run a straight-line instruction sequence over the active lanes,
    /// surviving faults: a fault truncates the lanes to those before it and
    /// execution continues for the survivors (the scalar loop runs earlier
    /// elements to completion before a later element ever faults, so a
    /// survivor's own later fault must still be discovered — it wins).
    /// Returns the minimum-lane fault.
    fn run_instrs_resilient(
        &self,
        instrs: &[Instr],
        st: &mut BState,
        lanes: &mut Lanes,
    ) -> Option<(usize, EvalError)> {
        let mut pend: Option<(usize, EvalError)> = None;
        for ins in instrs {
            if lanes.is_empty() {
                break;
            }
            if let Err((lane, e)) = self.bstep(ins, st, lanes) {
                lanes.truncate_before(lane);
                if pend.as_ref().is_none_or(|(pl, _)| lane < *pl) {
                    pend = Some((lane, e));
                }
            }
        }
        pend
    }

    /// Write the index-parameter column and run `b`'s instructions over the
    /// active lanes. On faults, truncates `lanes` to the lanes before the
    /// earliest one, finishes the block for the survivors, and returns the
    /// winning (lane, error) pair.
    fn run_cblock_batched(
        &self,
        b: &CBlock,
        st: &mut BState,
        base: i64,
        lanes: &mut Lanes,
    ) -> Option<(usize, EvalError)> {
        debug_assert_eq!(b.params.len(), 1);
        debug_assert_eq!(b.params[0].class, Class::I);
        if matches!(lanes, Lanes::Full) {
            st.simd_blocks += 1;
        }
        let col = &mut st.ci[b.params[0].idx as usize];
        for (l, c) in col.iter_mut().enumerate() {
            *c = base + l as i64;
        }
        self.run_instrs_resilient(&b.instrs, st, lanes)
    }
}

// ---------------------------------------------------------------------------
// Nested loops
// ---------------------------------------------------------------------------

/// A nested loop accumulator: one lane-wide column (or virtual tuple of
/// columns) holding every lane's running reduction, or the slab a nested
/// `Collect` fills one row per iteration.
enum NAcc {
    I(Vec<i64>),
    F(Vec<f64>),
    B(Vec<bool>),
    V(Vec<VCol>),
    Slab(VVec),
}

/// Record `new` into `pend` if it is the earliest-lane fault seen so far.
fn note_fault(pend: &mut Option<(usize, EvalError)>, new: Option<(usize, EvalError)>) {
    if let Some((lane, e)) = new {
        if pend.as_ref().is_none_or(|(pl, _)| lane < *pl) {
            *pend = Some((lane, e));
        }
    }
}

impl Kernel {
    /// Execute a certified nested loop columnar: iteration-major over the
    /// active lanes, folding each iteration's value column into per-lane
    /// accumulators. Per-lane fold chains run in iteration order (the
    /// scalar loop's order), so float bits match exactly; faults truncate
    /// the local lane set and the earliest lane's error wins, matching the
    /// element-major scalar loop.
    fn run_cloop_batched(
        &self,
        cl: &CLoop,
        st: &mut BState,
        lanes: &Lanes,
    ) -> Result<(), (usize, EvalError)> {
        // Certification proved the size register preamble-only, so the
        // scalar state holds its (lane-invariant) value.
        let size = st.scalar.ri[cl.size as usize];
        let mut local = lanes.clone();
        let mut pend: Option<(usize, EvalError)> = None;
        // An explicit identity seeds the accumulator with its column, so
        // iteration 0 folds reduce(init, x0) exactly like the scalar loop;
        // a `Collect` starts from its (recycled) slab.
        let mut accs: Vec<Option<NAcc>> = cl
            .gens
            .iter()
            .zip(&cl.dsts)
            .map(|(g, dst)| match g.kind {
                GenKind::Collect => Some(NAcc::Slab(take_slab(*dst, g.val_class, size, st))),
                _ => g.init.map(|r| init_nacc(r, st)),
            })
            .collect();
        for it in 0..size.max(0) {
            if local.is_empty() {
                break;
            }
            for (gen, acc) in cl.gens.iter().zip(accs.iter_mut()) {
                if local.is_empty() {
                    break;
                }
                note_fault(
                    &mut pend,
                    self.run_nested_value(&gen.value, st, it, &mut local),
                );
                if local.is_empty() {
                    break;
                }
                if let Some(NAcc::Slab(v)) = acc {
                    write_slab_row(v, it as usize, gen.value.result, st);
                } else {
                    note_fault(&mut pend, self.nested_fold(gen, acc, st, &mut local));
                }
            }
        }
        for (dst, acc) in cl.dsts.iter().zip(accs) {
            match acc {
                Some(a) => write_nacc(*dst, a, st),
                None => {
                    // No iterations ran and no identity: every surviving
                    // element's reduce is empty; the element-major scalar
                    // loop faults at the first of them.
                    if let Some(l) = local.first() {
                        note_fault(&mut pend, Some((l, EvalError::EmptyReduce)));
                    }
                    break;
                }
            }
        }
        match pend {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }

    /// Run a nested value block for one iteration: the index parameter is
    /// the iteration number, identical in every lane.
    fn run_nested_value(
        &self,
        b: &CBlock,
        st: &mut BState,
        it: i64,
        lanes: &mut Lanes,
    ) -> Option<(usize, EvalError)> {
        debug_assert_eq!(b.params.len(), 1);
        debug_assert_eq!(b.params[0].class, Class::I);
        if matches!(lanes, Lanes::Full) {
            st.simd_blocks += 1;
        }
        st.ci[b.params[0].idx as usize].fill(it);
        self.run_instrs_resilient(&b.instrs, st, lanes)
    }

    /// Fold the value column of one nested iteration into the per-lane
    /// accumulator (seeding it from the first iteration when there is no
    /// explicit identity).
    fn nested_fold(
        &self,
        gen: &CGen,
        acc: &mut Option<NAcc>,
        st: &mut BState,
        lanes: &mut Lanes,
    ) -> Option<(usize, EvalError)> {
        let res = gen.value.result;
        let Some(a) = acc else {
            *acc = Some(match res.class {
                Class::I => NAcc::I(st.ci[res.idx as usize].clone()),
                Class::F => NAcc::F(st.cf[res.idx as usize].clone()),
                Class::B => NAcc::B(st.cb[res.idx as usize].clone()),
                Class::V => NAcc::V(
                    st.cv[res.idx as usize]
                        .as_ref()
                        .expect("virtual tuple register")
                        .clone(),
                ),
            });
            return None;
        };
        match (&mut *a, gen.fast_red) {
            (NAcc::I(av), Some(FastRed::I(op))) => {
                fold_lanes(av, &st.ci[res.idx as usize], lanes, |x, y| apply_i(op, x, y));
                None
            }
            (NAcc::F(av), Some(FastRed::F(op))) => {
                fold_lanes(av, &st.cf[res.idx as usize], lanes, |x, y| apply_f(op, x, y));
                None
            }
            (NAcc::Slab(_), _) => unreachable!("collect rows are written, not folded"),
            _ => self.nested_fold_reducer(gen, a, st, lanes),
        }
    }

    /// Apply a block reducer columnar: bind the accumulator and value
    /// columns to the parameter registers, run the block over the active
    /// lanes, and read the result column back as the new accumulator.
    fn nested_fold_reducer(
        &self,
        gen: &CGen,
        acc: &mut NAcc,
        st: &mut BState,
        lanes: &mut Lanes,
    ) -> Option<(usize, EvalError)> {
        let rb = gen.reducer.as_ref().expect("reduce gen has reducer");
        let (p0, p1) = (rb.params[0], rb.params[1]);
        let res = gen.value.result;
        match acc {
            NAcc::I(av) => {
                st.ci[p0.idx as usize].clone_from(av);
                if p1.idx != res.idx {
                    let mut d = take_col!(st, ci, p1.idx);
                    d.clone_from(&st.ci[res.idx as usize]);
                    st.ci[p1.idx as usize] = d;
                }
                let pend = self.run_instrs_resilient(&rb.instrs, st, lanes);
                av.clone_from(&st.ci[rb.result.idx as usize]);
                pend
            }
            NAcc::F(av) => {
                st.cf[p0.idx as usize].clone_from(av);
                if p1.idx != res.idx {
                    let mut d = take_col!(st, cf, p1.idx);
                    d.clone_from(&st.cf[res.idx as usize]);
                    st.cf[p1.idx as usize] = d;
                }
                let pend = self.run_instrs_resilient(&rb.instrs, st, lanes);
                av.clone_from(&st.cf[rb.result.idx as usize]);
                pend
            }
            NAcc::B(av) => {
                st.cb[p0.idx as usize].clone_from(av);
                if p1.idx != res.idx {
                    let mut d = take_col!(st, cb, p1.idx);
                    d.clone_from(&st.cb[res.idx as usize]);
                    st.cb[p1.idx as usize] = d;
                }
                let pend = self.run_instrs_resilient(&rb.instrs, st, lanes);
                av.clone_from(&st.cb[rb.result.idx as usize]);
                pend
            }
            NAcc::V(comps) => {
                st.cv[p0.idx as usize] = Some(std::mem::take(comps));
                if p1.idx != res.idx {
                    let val = st.cv[res.idx as usize]
                        .as_ref()
                        .expect("virtual tuple register")
                        .clone();
                    st.cv[p1.idx as usize] = Some(val);
                }
                let pend = self.run_instrs_resilient(&rb.instrs, st, lanes);
                *comps = st.cv[rb.result.idx as usize]
                    .clone()
                    .expect("virtual reducer result");
                pend
            }
            NAcc::Slab(_) => unreachable!("collect rows are written, not folded"),
        }
    }
}

/// The slab a nested `Collect` into `dst` fills this run: the register's
/// previous slab resized to `size` rows (a no-op after the first block).
/// `run_range_batched` bounds `size` by [`VEC_TRIP_CAP`] before any block.
fn take_slab(dst: Reg, class: Class, size: i64, st: &mut BState) -> VVec {
    let len = size.max(0) as usize;
    let mut slab = match st.vv[dst.idx as usize].take() {
        Some(v) => v.slab,
        None => match class {
            Class::I => VCol::I(Vec::new()),
            Class::F => VCol::F(Vec::new()),
            Class::B => VCol::B(Vec::new()),
            Class::V => unreachable!("certified collect element is typed"),
        },
    };
    match &mut slab {
        VCol::I(s) => s.resize(len * BLOCK, 0),
        VCol::F(s) => s.resize(len * BLOCK, 0.0),
        VCol::B(s) => s.resize(len * BLOCK, false),
    }
    VVec { len, slab }
}

/// Copy iteration `it`'s value column into row `it` of the slab. All lanes
/// are copied: inactive ones hold junk nothing downstream reads.
fn write_slab_row(v: &mut VVec, it: usize, res: Reg, st: &BState) {
    let row = it * BLOCK..(it + 1) * BLOCK;
    match &mut v.slab {
        VCol::I(s) => s[row].copy_from_slice(&st.ci[res.idx as usize][..BLOCK]),
        VCol::F(s) => s[row].copy_from_slice(&st.cf[res.idx as usize][..BLOCK]),
        VCol::B(s) => s[row].copy_from_slice(&st.cb[res.idx as usize][..BLOCK]),
    }
}

/// Seed an accumulator from an explicit identity register's column.
fn init_nacc(r: Reg, st: &BState) -> NAcc {
    match r.class {
        Class::I => NAcc::I(st.ci[r.idx as usize].clone()),
        Class::F => NAcc::F(st.cf[r.idx as usize].clone()),
        Class::B => NAcc::B(st.cb[r.idx as usize].clone()),
        Class::V => unreachable!("certified nested reduce identity is typed"),
    }
}

/// Write a sealed accumulator into its destination register's column.
fn write_nacc(dst: Reg, a: NAcc, st: &mut BState) {
    match a {
        NAcc::I(v) => st.ci[dst.idx as usize] = v,
        NAcc::F(v) => st.cf[dst.idx as usize] = v,
        NAcc::B(v) => st.cb[dst.idx as usize] = v,
        NAcc::V(comps) => st.cv[dst.idx as usize] = Some(comps),
        NAcc::Slab(v) => st.vv[dst.idx as usize] = Some(v),
    }
}

// ---------------------------------------------------------------------------
// Segmented nested loops
// ---------------------------------------------------------------------------
//
// A nested loop whose trip count *varies* per lane cannot run iteration-major
// (lanes disagree on when to stop). The segmented executor flattens the
// per-lane iteration spaces CSR-style instead: walking the active lanes in
// order, each lane contributes `trips[lane]` flat positions, and the flat
// space executes in [`BLOCK`]-wide chunks — the value blocks run columnar
// over the chunk with the iteration number in the index-parameter column and
// every lane-varying outer register *gathered* from its owner lane. Results
// fold back per owner with the same reducers the scalar loop uses.
//
// Bit-identity: lane-major flat order IS the element-at-a-time execution
// order (element `l` runs all its iterations before element `l+1`), so
// per-owner fold chains see values in exactly the scalar sequence — float
// bits match — and the minimum faulting flat position (ties broken by
// generator order) is exactly the scalar loop's first error. On a chunk
// fault the remaining chunks are abandoned: they only hold positions of
// lanes at or after the faulting owner, and the caller truncates those
// lanes anyway.

/// Per-lane running reductions of one segmented generator (typed only —
/// certification rejects boxed/virtual segmented accumulators).
enum SegAcc {
    I(Vec<i64>),
    F(Vec<f64>),
    B(Vec<bool>),
}

/// An outer column displaced for the duration of a segmented loop: the
/// original (per-lane) values, read by owner when gathering, while the
/// register file holds a scratch column of gathered per-position values.
enum SegSaved {
    I(u16, Vec<i64>),
    F(u16, Vec<f64>),
    B(u16, Vec<bool>),
}

/// Fold one chunk's value column into the per-owner accumulators, in flat
/// position order. Positions whose owner has no running value yet seed it
/// (matching the scalar loop's first-iteration seeding); the rest fold
/// through `red`. Returns the first faulting position and its error.
fn seg_fold_col<T: Copy>(
    av: &mut [T],
    started: &mut [bool],
    col: &[T],
    owner: &[u32],
    lanes: &Lanes,
    mut red: impl FnMut(T, T) -> Result<T, EvalError>,
) -> Option<(usize, EvalError)> {
    let mut go = |j: usize| -> Result<(), EvalError> {
        let o = owner[j] as usize;
        if started[o] {
            av[o] = red(av[o], col[j])?;
        } else {
            av[o] = col[j];
            started[o] = true;
        }
        Ok(())
    };
    match lanes {
        Lanes::Full => {
            for j in 0..BLOCK {
                if let Err(e) = go(j) {
                    return Some((j, e));
                }
            }
        }
        Lanes::Sel(s) => {
            for &j in s {
                let j = j as usize;
                if let Err(e) = go(j) {
                    return Some((j, e));
                }
            }
        }
    }
    None
}

impl Kernel {
    /// Fold the surviving chunk positions of `gen`'s value column into its
    /// accumulator. Block reducers run per position on the embedded scalar
    /// state (certification proved their free reads lane-invariant); the
    /// value column is displaced around the fold so the scalar state can be
    /// borrowed mutably.
    fn seg_fold(
        &self,
        gen: &CGen,
        acc: &mut SegAcc,
        started: &mut [bool],
        owner: &[u32],
        st: &mut BState,
        lanes: &Lanes,
    ) -> Option<(usize, EvalError)> {
        let res = gen.value.result;
        match acc {
            SegAcc::I(av) => {
                let col = take_col!(st, ci, res.idx);
                let pend = seg_fold_col(av, started, &col, owner, lanes, |a, b| {
                    self.reduce_i(gen, a, b, &mut st.scalar)
                });
                st.ci[res.idx as usize] = col;
                pend
            }
            SegAcc::F(av) => {
                let col = take_col!(st, cf, res.idx);
                let pend = seg_fold_col(av, started, &col, owner, lanes, |a, b| {
                    self.reduce_f(gen, a, b, &mut st.scalar)
                });
                st.cf[res.idx as usize] = col;
                pend
            }
            SegAcc::B(av) => {
                let col = take_col!(st, cb, res.idx);
                let pend = seg_fold_col(av, started, &col, owner, lanes, |a, b| {
                    self.reduce_b(gen, a, b, &mut st.scalar)
                });
                st.cb[res.idx as usize] = col;
                pend
            }
        }
    }

    /// Execute a lane-varying nested loop segmented (see the module note
    /// above): flatten lane-major, run the value blocks chunk-at-a-time
    /// over the flat space, fold back per owner lane, and reconstruct the
    /// exact scalar error (earliest flat position, then generator order,
    /// with `EmptyReduce` surfacing at its owner's element position).
    #[allow(clippy::too_many_lines)]
    fn run_cloop_segmented(
        &self,
        cl: &CLoop,
        plan: &SegPlan,
        st: &mut BState,
        lanes: &Lanes,
    ) -> Result<(), (usize, EvalError)> {
        let active: Vec<u32> = match lanes {
            Lanes::Full => (0..BLOCK as u32).collect(),
            Lanes::Sel(s) => s.clone(),
        };
        // Per-active-lane trip counts, read before any column is displaced.
        let trips: Vec<i64> = active
            .iter()
            .map(|&l| st.ci[cl.size as usize][l as usize].max(0))
            .collect();
        // An explicit identity seeds every lane's accumulator — including
        // zero-trip lanes, whose reduce seals to the identity exactly as
        // the scalar loop's `seal_gen` does.
        let mut accs: Vec<SegAcc> = Vec::with_capacity(cl.gens.len());
        let mut started: Vec<Vec<bool>> = Vec::with_capacity(cl.gens.len());
        for gen in &cl.gens {
            let res = gen.value.result;
            match gen.init {
                Some(r) => {
                    debug_assert_eq!(r.class, res.class);
                    accs.push(match res.class {
                        Class::I => SegAcc::I(st.ci[r.idx as usize].clone()),
                        Class::F => SegAcc::F(st.cf[r.idx as usize].clone()),
                        Class::B => SegAcc::B(st.cb[r.idx as usize].clone()),
                        Class::V => unreachable!("segmented accumulators are typed"),
                    });
                    started.push(vec![true; BLOCK]);
                }
                None => {
                    accs.push(match res.class {
                        Class::I => SegAcc::I(vec![0; BLOCK]),
                        Class::F => SegAcc::F(vec![0.0; BLOCK]),
                        Class::B => SegAcc::B(vec![false; BLOCK]),
                        Class::V => unreachable!("segmented accumulators are typed"),
                    });
                    started.push(vec![false; BLOCK]);
                }
            }
        }
        // Displace the gathered outer columns: the originals feed the
        // per-position gathers; scratch columns take their register slots.
        let saved: Vec<SegSaved> = plan
            .gather
            .iter()
            .map(|r| match r.class {
                Class::I => SegSaved::I(
                    r.idx,
                    std::mem::replace(&mut st.ci[r.idx as usize], vec![0; BLOCK]),
                ),
                Class::F => SegSaved::F(
                    r.idx,
                    std::mem::replace(&mut st.cf[r.idx as usize], vec![0.0; BLOCK]),
                ),
                Class::B => SegSaved::B(
                    r.idx,
                    std::mem::replace(&mut st.cb[r.idx as usize], vec![false; BLOCK]),
                ),
                Class::V => unreachable!("gathered registers are typed"),
            })
            .collect();
        let mut owner = vec![0u32; BLOCK];
        let mut itbuf = vec![0i64; BLOCK];
        // During the chunk loop `pend` holds (flat chunk position, error);
        // it is remapped to (owner lane, error) once the loop exits.
        let mut pend: Option<(usize, EvalError)> = None;
        let (mut ai, mut it) = (0usize, 0i64);
        while ai < active.len() {
            // Fill the next chunk lane-major: lane `active[ai]` contributes
            // iterations `it..trips[ai]`, then the cursor moves on.
            let mut m = 0usize;
            while m < BLOCK && ai < active.len() {
                if it >= trips[ai] {
                    ai += 1;
                    it = 0;
                    continue;
                }
                owner[m] = active[ai];
                itbuf[m] = it;
                it += 1;
                m += 1;
            }
            if m == 0 {
                break;
            }
            st.segmented_blocks += 1;
            let mut chunk_lanes = if m == BLOCK {
                Lanes::Full
            } else {
                Lanes::Sel((0..m as u32).collect())
            };
            for s in &saved {
                match s {
                    SegSaved::I(idx, outer) => {
                        let col = &mut st.ci[*idx as usize];
                        for j in 0..m {
                            col[j] = outer[owner[j] as usize];
                        }
                    }
                    SegSaved::F(idx, outer) => {
                        let col = &mut st.cf[*idx as usize];
                        for j in 0..m {
                            col[j] = outer[owner[j] as usize];
                        }
                    }
                    SegSaved::B(idx, outer) => {
                        let col = &mut st.cb[*idx as usize];
                        for j in 0..m {
                            col[j] = outer[owner[j] as usize];
                        }
                    }
                }
            }
            for (gen, (acc, strt)) in cl.gens.iter().zip(accs.iter_mut().zip(started.iter_mut())) {
                if chunk_lanes.is_empty() {
                    break;
                }
                let p = gen.value.params[0];
                debug_assert_eq!(gen.value.params.len(), 1);
                debug_assert_eq!(p.class, Class::I);
                st.ci[p.idx as usize][..m].copy_from_slice(&itbuf[..m]);
                if matches!(chunk_lanes, Lanes::Full) {
                    st.simd_blocks += 1;
                }
                note_fault(
                    &mut pend,
                    self.run_instrs_resilient(&gen.value.instrs, st, &mut chunk_lanes),
                );
                if chunk_lanes.is_empty() {
                    break;
                }
                let fault = self.seg_fold(gen, acc, strt, &owner, st, &chunk_lanes);
                if let Some((j, _)) = fault {
                    chunk_lanes.truncate_before(j);
                }
                note_fault(&mut pend, fault);
            }
            if pend.is_some() {
                // Every remaining position belongs to the faulting owner or
                // a later lane; the caller drops those lanes regardless.
                break;
            }
        }
        for s in saved {
            match s {
                SegSaved::I(idx, outer) => st.ci[idx as usize] = outer,
                SegSaved::F(idx, outer) => st.cf[idx as usize] = outer,
                SegSaved::B(idx, outer) => st.cb[idx as usize] = outer,
            }
        }
        let mut pend = pend.map(|(j, e)| (owner[j] as usize, e));
        // A zero-trip lane with no identity seals to `EmptyReduce` at its
        // element position — which beats any fault at a *later* owner lane
        // (the element-major loop reaches the seal first). `note_fault`'s
        // strict minimum also keeps unstarted lanes at or after a faulting
        // owner (whose chunks never ran) from masking the real error.
        'seal: for &l in &active {
            let l = l as usize;
            for strt in &started {
                if !strt[l] {
                    note_fault(&mut pend, Some((l, EvalError::EmptyReduce)));
                    break 'seal;
                }
            }
        }
        for (dst, acc) in cl.dsts.iter().zip(accs) {
            match acc {
                SegAcc::I(v) => st.ci[dst.idx as usize] = v,
                SegAcc::F(v) => st.cf[dst.idx as usize] = v,
                SegAcc::B(v) => st.cb[dst.idx as usize] = v,
            }
        }
        match pend {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Accumulation
// ---------------------------------------------------------------------------

/// The virtual vector in `V` register `res` (certification guarantees a
/// `V`-class generator result is one).
fn vvec(st: &BState, res: Reg) -> &VVec {
    st.vv[res.idx as usize].as_ref().expect("virtual vector register")
}

/// Append column lane `l` of register `res` to a collect buffer.
fn push_lane(buf: &mut ColBuf, st: &BState, res: Reg, l: usize) {
    match (buf, res.class) {
        (ColBuf::I(v), Class::I) => v.push(st.ci[res.idx as usize][l]),
        (ColBuf::F(v), Class::F) => v.push(st.cf[res.idx as usize][l]),
        (ColBuf::B(v), Class::B) => v.push(st.cb[res.idx as usize][l]),
        (ColBuf::V(v), Class::V) => v.push(vvec(st, res).lane_value(l)),
        _ => unreachable!("batched collect register class"),
    }
}

/// Box column lane `l` of register `res` as a [`Scalar`].
fn lane_scalar(st: &BState, res: Reg, l: usize) -> Scalar {
    match res.class {
        Class::I => Scalar::I(st.ci[res.idx as usize][l]),
        Class::F => Scalar::F(st.cf[res.idx as usize][l]),
        Class::B => Scalar::B(st.cb[res.idx as usize][l]),
        Class::V => Scalar::V(vvec(st, res).lane_value(l)),
    }
}

/// The in-place target of a lifted reducer step: the accumulated array's
/// elements and the slab to fold into them.
enum LiftAcc<'a> {
    I(super::IOp, &'a mut [i64], &'a [i64]),
    F(super::FOp, &'a mut [f64], &'a [f64]),
}

/// `Some` when folding `v`'s lanes into `cur` component-wise is exactly
/// what the lifted reducer block computes: `cur` is a typed array of the
/// slab's class whose length, the slab's, and the reducer's collect size
/// all agree (so every `a(j)`/`b(j)` is in bounds and the result keeps its
/// length and storage), and the arrays are non-empty (an empty collect
/// seals `Boxed`, which in-place storage would not reproduce).
fn lift_acc<'a>(
    lift: LiftedRed,
    cur: &'a mut Value,
    v: &'a VVec,
    scalar: &KState,
) -> Option<LiftAcc<'a>> {
    let Value::Arr(arr) = cur else { return None };
    let n = arr.len();
    let size = lift.size.map_or(n as i64, |r| scalar.ri[r as usize]);
    if n == 0 || n != v.len || size != n as i64 {
        return None;
    }
    match (lift.op, arr, &v.slab) {
        (FastRed::I(op), ArrayVal::I64(a), VCol::I(s)) => {
            Some(LiftAcc::I(op, Arc::make_mut(a).as_mut_slice(), s))
        }
        (FastRed::F(op), ArrayVal::F64(a), VCol::F(s)) => {
            Some(LiftAcc::F(op, Arc::make_mut(a).as_mut_slice(), s))
        }
        _ => None,
    }
}

impl LiftAcc<'_> {
    /// Fold lanes `lanes[from..]` of every slab row into its component of
    /// the accumulator, each component strictly in lane order.
    fn fold_rows(self, lanes: &Lanes, from: usize) {
        fn go<T: Copy>(acc: &mut [T], slab: &[T], lanes: &Lanes, from: usize, f: impl Fn(T, T) -> T) {
            for (a, row) in acc.iter_mut().zip(slab.chunks_exact(BLOCK)) {
                *a = match lanes {
                    Lanes::Full => fold_slice(*a, &row[from..], &f),
                    Lanes::Sel(s) => s[from..].iter().fold(*a, |c, &l| f(c, row[l as usize])),
                };
            }
        }
        match self {
            LiftAcc::I(op, acc, slab) => go(acc, slab, lanes, from, |x, y| apply_i(op, x, y)),
            LiftAcc::F(op, acc, slab) => go(acc, slab, lanes, from, |x, y| apply_f(op, x, y)),
        }
    }

    /// Fold lane `l` of every slab row into its component.
    fn fold_lane(self, l: usize) {
        fn go<T: Copy>(acc: &mut [T], slab: &[T], l: usize, f: impl Fn(T, T) -> T) {
            for (a, row) in acc.iter_mut().zip(slab.chunks_exact(BLOCK)) {
                *a = f(*a, row[l]);
            }
        }
        match self {
            LiftAcc::I(op, acc, slab) => go(acc, slab, l, |x, y| apply_i(op, x, y)),
            LiftAcc::F(op, acc, slab) => go(acc, slab, l, |x, y| apply_f(op, x, y)),
        }
    }
}

/// The authoritative slot lookup for an `i64` key (updates the first-seen
/// key order and the hash index exactly like the scalar path).
fn keyix_slot_i64(kx: &mut KeyIx, k: i64) -> Result<usize, usize> {
    match kx {
        KeyIx::I { keys, ix } => match ix.get(&k) {
            Some(&s) => Ok(s),
            None => {
                let s = keys.len();
                ix.insert(k, s);
                keys.push(k);
                Err(s)
            }
        },
        KeyIx::V { .. } => kx.slot_of_value(&Value::I64(k)),
    }
}

/// Dense-directory slot lookup: an epoch-valid entry answers without
/// touching the hash index; misses fall through to [`keyix_slot_i64`] and
/// are cached. Out-of-range keys always use the authoritative index.
fn slot_dense(kx: &mut KeyIx, dir: &mut DenseDir, k: i64) -> Result<usize, usize> {
    if k >= 0 && (k as usize) < DENSE_KEY_CAP {
        let ki = k as usize;
        if ki >= dir.slots.len() {
            dir.slots.resize(ki + 1, (0, 0));
        }
        let (ep, slot) = dir.slots[ki];
        if ep == dir.epoch {
            return Ok(slot as usize);
        }
        let r = keyix_slot_i64(kx, k);
        let s = match r {
            Ok(s) | Err(s) => s,
        };
        dir.slots[ki] = (dir.epoch, s as u32);
        r
    } else {
        keyix_slot_i64(kx, k)
    }
}

/// Fold a column slice with a monomorphized combiner, strictly in lane
/// order — the only legal shape for floats, whose rounding makes the fold
/// order observable in the bits.
fn fold_slice<T: Copy>(cur: T, col: &[T], f: impl Fn(T, T) -> T) -> T {
    let mut c = cur;
    for &x in col {
        c = f(c, x);
    }
    c
}

/// Tree-fold an integer column through [`LANES`] independent partial
/// accumulators — the explicitly SIMD-shaped reduction. Exact for any
/// associative-and-commutative combiner with identity `id` (wrapping
/// `+`/`*`, `min`/`max`): regrouping wrapping arithmetic cannot change the
/// result, so this matches the sequential lane-order fold bit-for-bit.
fn tree_fold_i(cur: i64, col: &[i64], id: i64, f: impl Fn(i64, i64) -> i64) -> i64 {
    let mut part = [id; LANES];
    let mut chunks = col.chunks_exact(LANES);
    for ch in chunks.by_ref() {
        for l in 0..LANES {
            part[l] = f(part[l], ch[l]);
        }
    }
    let mut acc = cur;
    for p in part {
        acc = f(acc, p);
    }
    for &x in chunks.remainder() {
        acc = f(acc, x);
    }
    acc
}

fn fold_i(op: super::IOp, cur: i64, col: &[i64]) -> i64 {
    use super::IOp;
    match op {
        IOp::Add => tree_fold_i(cur, col, 0, |a, b| a.wrapping_add(b)),
        // Subtraction is not associative: the running difference must walk
        // the lanes in order.
        IOp::Sub => fold_slice(cur, col, |a, b| a.wrapping_sub(b)),
        IOp::Mul => tree_fold_i(cur, col, 1, |a, b| a.wrapping_mul(b)),
        IOp::Min => tree_fold_i(cur, col, i64::MAX, |a, b| a.min(b)),
        IOp::Max => tree_fold_i(cur, col, i64::MIN, |a, b| a.max(b)),
    }
}

impl Kernel {
    /// Accumulate the value (and key) columns of one generator over the
    /// active lanes; faults (from reducer blocks) are lane-tagged.
    fn baccumulate(
        &self,
        gi: usize,
        gen: &CGen,
        acc: &mut KAcc,
        bst: &mut BState,
        lanes: &Lanes,
    ) -> Result<(), (usize, EvalError)> {
        // Faults in the value or key block may have emptied the lane set
        // before the block finished: nothing to accumulate, and a virtual
        // vector result may not exist yet.
        if lanes.is_empty() {
            return Ok(());
        }
        let res = gen.value.result;
        match acc {
            KAcc::Col(buf) => {
                match lanes {
                    Lanes::Full => match (buf, res.class) {
                        (ColBuf::I(v), Class::I) => {
                            v.extend_from_slice(&bst.ci[res.idx as usize][..BLOCK]);
                        }
                        (ColBuf::F(v), Class::F) => {
                            v.extend_from_slice(&bst.cf[res.idx as usize][..BLOCK]);
                        }
                        (ColBuf::B(v), Class::B) => {
                            v.extend_from_slice(&bst.cb[res.idx as usize][..BLOCK]);
                        }
                        (ColBuf::V(v), Class::V) => {
                            let vec = vvec(bst, res);
                            v.extend((0..BLOCK).map(|l| vec.lane_value(l)));
                        }
                        _ => unreachable!("batched collect register class"),
                    },
                    Lanes::Sel(s) => {
                        for &l in s {
                            push_lane(buf, bst, res, l as usize);
                        }
                    }
                }
                Ok(())
            }
            KAcc::RedI(state) => {
                if let Some(FastRed::I(op)) = gen.fast_red {
                    let col = &bst.ci[res.idx as usize];
                    match lanes {
                        Lanes::Full => {
                            let col = &col[..BLOCK];
                            let (cur, start) = self.seed_i(gen, state.take(), col[0], bst);
                            *state = Some(fold_i(op, cur, &col[start..]));
                        }
                        Lanes::Sel(s) => {
                            if s.is_empty() {
                                return Ok(());
                            }
                            let (mut cur, start) =
                                self.seed_i(gen, state.take(), col[s[0] as usize], bst);
                            for &l in &s[start..] {
                                cur = apply_i(op, cur, col[l as usize]);
                            }
                            *state = Some(cur);
                        }
                    }
                    return Ok(());
                }
                each_lane(lanes, |l| {
                    let x = bst.ci[res.idx as usize][l];
                    let next = match state.take() {
                        Some(cur) => self.reduce_i(gen, cur, x, &mut bst.scalar)?,
                        None => match gen.init {
                            Some(r) => {
                                let i0 = bst.scalar.ri[r.idx as usize];
                                self.reduce_i(gen, i0, x, &mut bst.scalar)?
                            }
                            None => x,
                        },
                    };
                    *state = Some(next);
                    Ok(())
                })
            }
            KAcc::RedF(state) => {
                if let Some(FastRed::F(op)) = gen.fast_red {
                    // Float folds must stay in lane order: reassociating (or
                    // fusing) would change the bits vs the scalar loop.
                    let col = &bst.cf[res.idx as usize];
                    match lanes {
                        Lanes::Full => {
                            let col = &col[..BLOCK];
                            let (cur, start) = self.seed_f(gen, state.take(), col[0], bst);
                            *state = Some(fold_slice(cur, &col[start..], |a, b| apply_f(op, a, b)));
                        }
                        Lanes::Sel(s) => {
                            if s.is_empty() {
                                return Ok(());
                            }
                            let (mut cur, start) =
                                self.seed_f(gen, state.take(), col[s[0] as usize], bst);
                            for &l in &s[start..] {
                                cur = apply_f(op, cur, col[l as usize]);
                            }
                            *state = Some(cur);
                        }
                    }
                    return Ok(());
                }
                each_lane(lanes, |l| {
                    let x = bst.cf[res.idx as usize][l];
                    let next = match state.take() {
                        Some(cur) => self.reduce_f(gen, cur, x, &mut bst.scalar)?,
                        None => match gen.init {
                            Some(r) => {
                                let i0 = bst.scalar.rf[r.idx as usize];
                                self.reduce_f(gen, i0, x, &mut bst.scalar)?
                            }
                            None => x,
                        },
                    };
                    *state = Some(next);
                    Ok(())
                })
            }
            KAcc::RedB(state) => each_lane(lanes, |l| {
                let x = bst.cb[res.idx as usize][l];
                let next = match state.take() {
                    Some(cur) => self.reduce_b(gen, cur, x, &mut bst.scalar)?,
                    None => match gen.init {
                        Some(r) => {
                            let i0 = bst.scalar.rb[r.idx as usize];
                            self.reduce_b(gen, i0, x, &mut bst.scalar)?
                        }
                        None => x,
                    },
                };
                *state = Some(next);
                Ok(())
            }),
            KAcc::RedV(state) => {
                let v = bst.vv[res.idx as usize].as_ref().expect("virtual vector register");
                self.reduce_vec_lanes(gen, state, v, &mut bst.scalar, lanes)
            }
            KAcc::BCol { keys, vals } => {
                let kb = gen.key.as_ref().expect("bucket gen has key");
                let kres = kb.result;
                each_lane(lanes, |l| {
                    let slot = if kres.class == Class::I {
                        slot_dense(keys, &mut bst.dense[gi], bst.ci[kres.idx as usize][l])
                    } else {
                        keys.slot_of_value(&super::scalar_value(lane_scalar(bst, kres, l)))
                    };
                    match slot {
                        Ok(s) => push_lane(&mut vals[s], bst, res, l),
                        Err(_new) => {
                            let mut buf = ColBuf::new(gen.val_class, 1);
                            push_lane(&mut buf, bst, res, l);
                            vals.push(buf);
                        }
                    }
                    Ok(())
                })
            }
            KAcc::BRed { keys, vals } => {
                let kb = gen.key.as_ref().expect("bucket gen has key");
                let kres = kb.result;
                let lifted = gen.lifted_red;
                each_lane(lanes, |l| {
                    let slot = if kres.class == Class::I {
                        slot_dense(keys, &mut bst.dense[gi], bst.ci[kres.idx as usize][l])
                    } else {
                        keys.slot_of_value(&super::scalar_value(lane_scalar(bst, kres, l)))
                    };
                    match slot {
                        Ok(s) => match (&mut *vals, res.class) {
                            (RedBuf::I(v), Class::I) => {
                                let x = bst.ci[res.idx as usize][l];
                                v[s] = self.reduce_i(gen, v[s], x, &mut bst.scalar)?;
                            }
                            (RedBuf::F(v), Class::F) => {
                                let x = bst.cf[res.idx as usize][l];
                                v[s] = self.reduce_f(gen, v[s], x, &mut bst.scalar)?;
                            }
                            // A lifted reducer folds in place when the
                            // lengths agree; otherwise its block runs.
                            (RedBuf::V(v), Class::V) => {
                                let vec = vvec(bst, res);
                                match lifted.and_then(|lr| lift_acc(lr, &mut v[s], vec, &bst.scalar)) {
                                    Some(acc) => acc.fold_lane(l),
                                    None => {
                                        let (cur, x) = (v[s].clone(), vec.lane_value(l));
                                        v[s] = self.reduce_v(gen, cur, x, &mut bst.scalar)?;
                                    }
                                }
                            }
                            _ => {
                                let cur = vals.get(s);
                                let x = lane_scalar(bst, res, l);
                                let next = self.reduce_scalar(gen, cur, x, &mut bst.scalar)?;
                                vals.set(s, next)?;
                            }
                        },
                        Err(_new) => vals.push(lane_scalar(bst, res, l))?,
                    }
                    Ok(())
                })
            }
        }
    }

    /// Fold the active lanes (at least one) of virtual vector `v` into a
    /// `Reduce` generator's boxed state, lane by lane like the scalar loop:
    /// seed from the carried state, else the explicit identity, else the
    /// first lane; then each step either runs the reducer block on that
    /// lane's materialised array or — from the first step at which a
    /// lifted reducer's lengths agree, after which they keep agreeing —
    /// folds all remaining lanes component-wise in place.
    fn reduce_vec_lanes(
        &self,
        gen: &CGen,
        state: &mut Option<Value>,
        v: &VVec,
        scalar: &mut KState,
        lanes: &Lanes,
    ) -> Result<(), (usize, EvalError)> {
        let (n, lane_at) = match lanes {
            Lanes::Full => (BLOCK, None),
            Lanes::Sel(s) => (s.len(), Some(s)),
        };
        let lane_at = |p: usize| lane_at.map_or(p, |s| s[p] as usize);
        let mut pos = 0;
        let mut cur = match (state.take(), gen.init) {
            (Some(c), _) => c,
            (None, Some(r)) => scalar.value_of(r),
            (None, None) => {
                pos = 1;
                v.lane_value(lane_at(0))
            }
        };
        while pos < n {
            if let Some(acc) = gen.lifted_red.and_then(|lr| lift_acc(lr, &mut cur, v, scalar)) {
                acc.fold_rows(lanes, pos);
                break;
            }
            let l = lane_at(pos);
            cur = self
                .reduce_v(gen, cur, v.lane_value(l), scalar)
                .map_err(|e| (l, e))?;
            pos += 1;
        }
        *state = Some(cur);
        Ok(())
    }

    /// Seed an integer fold exactly like the scalar loop: carry-over state,
    /// or the explicit identity combined with the first element, or the
    /// first element itself. Returns the seed and how many leading lanes it
    /// consumed.
    fn seed_i(&self, gen: &CGen, state: Option<i64>, x0: i64, bst: &BState) -> (i64, usize) {
        match state {
            Some(c) => (c, 0),
            None => match gen.init {
                Some(r) => {
                    let fr = match gen.fast_red {
                        Some(FastRed::I(op)) => op,
                        _ => unreachable!("seed_i on fast integer reducer"),
                    };
                    (apply_i(fr, bst.scalar.ri[r.idx as usize], x0), 1)
                }
                None => (x0, 1),
            },
        }
    }

    /// Float analogue of [`Kernel::seed_i`].
    fn seed_f(&self, gen: &CGen, state: Option<f64>, x0: f64, bst: &BState) -> (f64, usize) {
        match state {
            Some(c) => (c, 0),
            None => match gen.init {
                Some(r) => {
                    let fr = match gen.fast_red {
                        Some(FastRed::F(op)) => op,
                        _ => unreachable!("seed_f on fast float reducer"),
                    };
                    (apply_f(fr, bst.scalar.rf[r.idx as usize], x0), 1)
                }
                None => (x0, 1),
            },
        }
    }

    /// Run one generator over one full block. Returns this generator's
    /// earliest fault, if any; the caller picks the block-wide winner.
    fn exec_gen_block(
        &self,
        gi: usize,
        gen: &CGen,
        acc: &mut KAcc,
        bst: &mut BState,
        base: i64,
    ) -> Option<(usize, EvalError)> {
        let mut pend: Option<(usize, EvalError)> = None;
        let mut lanes = Lanes::Full;
        if let Some(c) = &gen.cond {
            if let Some(x) = self.run_cblock_batched(c, bst, base, &mut lanes) {
                pend = Some(x);
            }
            let col = &bst.cb[c.result.idx as usize];
            let sel: Vec<u32> = match &lanes {
                // Branch-free cursor compaction: write every lane id at the
                // cursor, advance the cursor by the condition bit. No
                // per-lane branch, so the dense full-block case compacts at
                // memory speed regardless of the predicate's selectivity.
                Lanes::Full => {
                    let col = &col[..BLOCK];
                    let mut sel = vec![0u32; BLOCK];
                    let mut n = 0usize;
                    for (l, &keep) in col.iter().enumerate() {
                        sel[n] = l as u32;
                        n += keep as usize;
                    }
                    sel.truncate(n);
                    sel
                }
                Lanes::Sel(s) => s.iter().copied().filter(|&l| col[l as usize]).collect(),
            };
            lanes = Lanes::Sel(sel);
        }
        if !lanes.is_empty() {
            if let Some(x) = self.run_cblock_batched(&gen.value, bst, base, &mut lanes) {
                pend = Some(x);
            }
            if let Some(kb) = &gen.key {
                if let Some(x) = self.run_cblock_batched(kb, bst, base, &mut lanes) {
                    pend = Some(x);
                }
            }
            if let Err(x) = self.baccumulate(gi, gen, acc, bst, &lanes) {
                pend = Some(x);
            }
        }
        pend
    }

    /// Execute all generators over the full block starting at `base`. The
    /// stage-truncation inside each generator guarantees a later stage's
    /// fault has a strictly smaller lane, so per-generator the last recorded
    /// fault is the earliest; across generators the winner is the minimum
    /// by (lane, generator index) — generator order breaks lane ties because
    /// the scalar loop runs generators in order within one element.
    fn exec_block_batched(
        &self,
        bst: &mut BState,
        accs: &mut [KAcc],
        base: i64,
    ) -> Result<(), EvalError> {
        let mut pend: Option<(usize, EvalError)> = None;
        for (gi, (gen, acc)) in self.gens.iter().zip(accs.iter_mut()).enumerate() {
            if let Some((lane, e)) = self.exec_gen_block(gi, gen, acc, bst, base) {
                if pend.as_ref().is_none_or(|(pl, _)| lane < *pl) {
                    pend = Some((lane, e));
                }
            }
        }
        match pend {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Run the top-level generators over `[start, end)` block-at-a-time,
    /// with the final `len % BLOCK` elements on the scalar tail. Returns the
    /// same raw accumulators as [`Kernel::run_range`], bit-identically.
    pub(crate) fn run_range_batched(
        &self,
        bst: &mut BState,
        start: i64,
        end: i64,
    ) -> Result<Vec<KAcc>, EvalError> {
        // Trip counts are loop-invariant, so the preamble already fixed how
        // wide this run's virtual vectors are; an over-wide one declines
        // the run before any slab exists.
        if self
            .vec_trips
            .iter()
            .any(|&r| bst.scalar.ri[r as usize] > VEC_TRIP_CAP as i64)
        {
            return self.run_range(&mut bst.scalar, start, end);
        }
        for d in bst.dense.iter_mut() {
            d.epoch += 1;
        }
        let hint = (end - start).max(0) as usize;
        let mut accs: Vec<KAcc> = self.gens.iter().map(|g| KAcc::for_gen(g, hint)).collect();
        let mut blocks = 0u64;
        let mut i = start;
        while i + (BLOCK as i64) <= end {
            self.exec_block_batched(bst, &mut accs, i)?;
            blocks += 1;
            i += BLOCK as i64;
        }
        let tail = (end - i).max(0) as u64;
        if i < end {
            self.exec_gens(&self.gens, &mut accs, &mut bst.scalar, i, end)?;
        }
        stats::record_batched_range(blocks, tail);
        stats::record_simd_blocks(std::mem::take(&mut bst.simd_blocks));
        stats::record_segmented_blocks(std::mem::take(&mut bst.segmented_blocks));
        Ok(accs)
    }
}
