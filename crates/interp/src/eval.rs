//! The sequential evaluator: a direct implementation of Figure 2.

use crate::error::EvalError;
use crate::value::{ArrayVal, BucketsVal, Key, StructVal, Value};
use crate::{compile, fuse, stats, task};
use dmll_core::{Block, Const, Def, Exp, Gen, MathFn, Multiloop, PrimOp, Program};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A handler for [`Def::Extern`] operations.
pub type ExternFn = Arc<dyn Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync>;

/// A named registry of [`ExternFn`] handlers, shared between the
/// sequential interpreter, the compiled kernel tiers (which resolve
/// handlers by name when a kernel state is built), and the parallel
/// executor.
#[derive(Clone, Default)]
pub struct Externs(HashMap<String, ExternFn>);

impl Externs {
    /// An empty registry.
    pub fn new() -> Externs {
        Externs(HashMap::new())
    }

    /// Register a handler under `name` (replacing any previous one).
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    ) {
        self.0.insert(name.into(), Arc::new(f));
    }

    pub(crate) fn insert_fn(&mut self, name: String, f: ExternFn) {
        self.0.insert(name, f);
    }

    pub(crate) fn get(&self, name: &str) -> Option<&ExternFn> {
        self.0.get(name)
    }
}

impl std::fmt::Debug for Externs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.0.keys()).finish()
    }
}

/// Enforce an extern's declared scalar return type at the call site, so
/// every tier (tree-walker, scalar kernel, batched kernel) raises the same
/// error for a handler that violates its declaration. Non-scalar
/// declarations are not checked: the walker stores whatever the handler
/// returned, and the compiler declines such externs anyway.
pub(crate) fn check_extern_ret(
    name: &str,
    ret: &dmll_core::Ty,
    v: &Value,
) -> Result<(), EvalError> {
    let ok = match ret {
        dmll_core::Ty::I64 => matches!(v, Value::I64(_)),
        dmll_core::Ty::F64 => matches!(v, Value::F64(_)),
        dmll_core::Ty::Bool => matches!(v, Value::Bool(_)),
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(EvalError::TypeMismatch(format!(
            "extern {name} returned {v:?} but declares {ret}"
        )))
    }
}

/// An interpreter instance bound to one program.
pub struct Interp<'p> {
    program: &'p Program,
    externs: Externs,
    /// Whether top-level multiloops may run on the compiled kernel tier.
    /// Loops the compiler rejects fall back to the tree-walker either way.
    use_compiled: bool,
    /// Whether batchable kernels may run block-at-a-time. Off means every
    /// compiled loop uses the scalar bytecode loop (benches use this to
    /// isolate the batched tier's contribution).
    use_batched: bool,
    /// Whether certified kernels may run on the native (compiled C) tier.
    /// Off by default: the native tier needs a system C++ compiler and is
    /// opted into explicitly; ineligible or uncompilable loops fall back to
    /// the batched tier with a typed, counted reason.
    use_native: bool,
    /// Kernel cache used by the compiled tier; `None` = the process-global
    /// default store.
    kernel_cache: Option<crate::KernelCacheHandle>,
    /// Whether to run the fuse-then-compile rewrite before execution.
    fuse: bool,
    /// Rewrite fingerprint of `program` (0 = as-written / identity rewrite).
    /// Participates in kernel-cache keys so fused and unfused variants of a
    /// loop never share an entry.
    fuse_fingerprint: u64,
    /// Per-instance memo of the fusion outcome. Sound because `program` is
    /// borrowed immutably for this interpreter's whole lifetime — repeat
    /// `run` calls on one `Interp` skip even the global memo's hash lookup.
    fused_memo: std::sync::OnceLock<Arc<fuse::FusedProgram>>,
}

/// Per-run execution-tier accounting: how many top-level multiloops ran on
/// each tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Top-level loops executed as compiled kernels.
    pub compiled_loops: u64,
    /// Top-level loops executed by the tree-walker.
    pub treewalk_loops: u64,
    /// Compiled loops that ran block-at-a-time on the batched executor (a
    /// subset of `compiled_loops`).
    pub batched_loops: u64,
}

/// Which tier ran one top-level loop's whole range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LoopTier {
    TreeWalk,
    /// A compiled kernel off the batched executor: scalar bytecode, the
    /// scatter path, or native code.
    Compiled,
    /// A compiled kernel on the batched executor.
    Batched,
}

/// Environment: one slot per symbol. Symbols are globally unique within a
/// program, so a flat vector indexed by symbol id is both simple and fast.
pub(crate) type Env = Vec<Option<Value>>;

impl<'p> Interp<'p> {
    /// Create an interpreter for `program`.
    pub fn new(program: &'p Program) -> Interp<'p> {
        Interp {
            program,
            externs: Externs::new(),
            use_compiled: true,
            use_batched: true,
            use_native: false,
            kernel_cache: None,
            fuse: true,
            fuse_fingerprint: 0,
            fused_memo: std::sync::OnceLock::new(),
        }
    }

    /// Compile kernels through `cache` instead of the process-global store
    /// (long-lived services inject a shared cache so concurrent queries
    /// reuse each other's compiles and hit rates are observable per view).
    pub fn with_kernel_cache(mut self, cache: crate::KernelCacheHandle) -> Self {
        self.kernel_cache = Some(cache);
        self
    }

    /// Disable the compiled kernel tier: every loop tree-walks. Benches use
    /// this to measure the baseline; differential tests use it as the
    /// reference semantics.
    pub fn without_compiled_tier(mut self) -> Self {
        self.use_compiled = false;
        self
    }

    /// Keep the compiled tier but force the scalar (element-at-a-time)
    /// bytecode loop, never the batched executor.
    pub fn without_batched_tier(mut self) -> Self {
        self.use_batched = false;
        self
    }

    /// Enable the native tier: certified batchable kernels are lowered to
    /// C, compiled with the system C++ compiler, and `dlopen`ed. Loops that
    /// fail certification or compilation fall back to the batched tier
    /// with a typed, counted reason — never an error.
    pub fn with_native(mut self) -> Self {
        self.use_native = true;
        self
    }

    /// Skip the fuse-then-compile rewrite: execute the program exactly as
    /// written. Benches use this to measure the unfused tiers; differential
    /// tests use it to pin fused against unfused results.
    pub fn without_fusion(mut self) -> Self {
        self.fuse = false;
        self
    }

    /// Register a handler for an extern operation.
    pub fn with_extern(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    ) -> Self {
        self.externs.insert(name, f);
        self
    }

    /// Install a whole extern registry (replacing the current one). The
    /// parallel executor and benches use this to thread a shared registry
    /// into worker interpreters.
    pub fn with_externs(mut self, externs: Externs) -> Self {
        self.externs = externs;
        self
    }

    /// The extern registry this interpreter resolves [`Def::Extern`] calls
    /// against.
    pub(crate) fn externs(&self) -> &Externs {
        &self.externs
    }

    /// The program being interpreted.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Bind this interpreter to an already-fused program: skip the rewrite
    /// hook and key kernels under `fingerprint`. The parallel executor does
    /// its own program swap and uses this to thread the fingerprint through.
    pub(crate) fn with_fuse_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fuse = false;
        self.fuse_fingerprint = fingerprint;
        self
    }

    /// The rewrite fingerprint kernels are keyed under (0 = as-written).
    pub(crate) fn fuse_fingerprint(&self) -> u64 {
        self.fuse_fingerprint
    }

    /// Run the program with named inputs, returning its result value.
    ///
    /// # Errors
    ///
    /// Fails when an input is missing or evaluation raises (out-of-bounds
    /// read, empty reduce without identity, unknown extern, …).
    pub fn run(&self, inputs: &[(&str, Value)]) -> Result<Value, EvalError> {
        self.run_report(inputs).map(|(v, _)| v)
    }

    /// Like [`Interp::run`], also reporting which execution tier each
    /// top-level multiloop ran on.
    ///
    /// # Errors
    ///
    /// See [`Interp::run`].
    pub fn run_report(&self, inputs: &[(&str, Value)]) -> Result<(Value, RunReport), EvalError> {
        if self.fuse {
            let fused = self
                .fused_memo
                .get_or_init(|| fuse::fused_program(self.program))
                .clone();
            stats::record_fusion(fused.applied, fused.rejected);
            if let Some(fp) = &fused.program {
                // Delegate to a sub-interpreter bound to the fused body,
                // carrying the fingerprint into kernel-cache keys.
                let sub = Interp {
                    program: fp,
                    externs: self.externs.clone(),
                    use_compiled: self.use_compiled,
                    use_batched: self.use_batched,
                    use_native: self.use_native,
                    kernel_cache: self.kernel_cache.clone(),
                    fuse: false,
                    fuse_fingerprint: fused.fingerprint,
                    fused_memo: std::sync::OnceLock::new(),
                };
                // Rewrites preserve values but can shift *which* error a
                // faulting program raises (e.g. Conditional Reduce turns
                // an empty-cluster EmptyReduce into a MissingBucket).
                // On error, re-running the program as written keeps error
                // identity exact, and costs nothing on the non-error path.
                if let ok @ Ok(_) = sub.run_report(inputs) {
                    return ok;
                }
            }
        }
        let mut env: Env = vec![None; self.program.next_sym_id() as usize];
        for input in &self.program.inputs {
            let v = inputs
                .iter()
                .find(|(n, _)| *n == input.name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| EvalError::MissingInput(input.name.clone()))?;
            env[input.sym.0 as usize] = Some(v);
        }
        let mut report = RunReport::default();
        let b = &self.program.body;
        for stmt in &b.stmts {
            let vals = match &stmt.def {
                Def::Loop(ml) => self.eval_top_loop(ml, &mut env, &mut report)?,
                d => self.eval_def_internal(d, &mut env)?,
            };
            debug_assert_eq!(vals.len(), stmt.lhs.len());
            for (s, v) in stmt.lhs.iter().zip(vals) {
                env[s.0 as usize] = Some(v);
            }
        }
        let out = self.eval_exp(&b.result, &env)?;
        Ok((out, report))
    }

    /// Evaluate a top-level multiloop on the fastest applicable tier.
    /// Nested loops run inside whichever tier owns the enclosing loop.
    fn eval_top_loop(
        &self,
        ml: &Multiloop,
        env: &mut Env,
        report: &mut RunReport,
    ) -> Result<Vec<Value>, EvalError> {
        let (vals, tier) =
            self.eval_loop_tiered(ml, env, self.use_compiled, self.use_batched, self.use_native)?;
        match tier {
            LoopTier::TreeWalk => report.treewalk_loops += 1,
            LoopTier::Compiled => report.compiled_loops += 1,
            LoopTier::Batched => {
                report.compiled_loops += 1;
                report.batched_loops += 1;
            }
        }
        Ok(vals)
    }

    /// Run one top-level multiloop over its full range, compiled when
    /// `use_compiled` and the loop compiles, tree-walking otherwise. The
    /// returned tier says what ran. Shared with the parallel executor's
    /// small-loop path.
    pub(crate) fn eval_loop_tiered(
        &self,
        ml: &Multiloop,
        env: &mut Env,
        use_compiled: bool,
        use_batched: bool,
        use_native: bool,
    ) -> Result<(Vec<Value>, LoopTier), EvalError> {
        if use_compiled {
            let kernel = match &self.kernel_cache {
                Some(cache) => cache.kernel_for(ml, env, self.fuse_fingerprint),
                None => compile::kernel_for(ml, env, self.fuse_fingerprint),
            };
            if let Some(kernel) = kernel {
                let size = self
                    .eval_exp(&ml.size, env)?
                    .as_i64()
                    .ok_or_else(|| EvalError::TypeMismatch("loop size".into()))?;
                let t0 = Instant::now();
                // The whole range is one task: the same ladder and the same
                // finish as the chunked executors, without their isolation.
                let batched = use_batched && kernel.batchable;
                let native = task::native_for(&kernel, ml, env, use_native && batched);
                let tally = task::ChunkTally::default();
                let mut state = None;
                let accs = task::run_task(
                    &kernel,
                    env,
                    &self.externs,
                    &mut state,
                    batched,
                    native,
                    &tally,
                    (0, size),
                );
                tally.note_ineligible(&kernel, use_batched);
                let accs = accs?;
                // A natively served loop built no state; sealing needs one.
                let mut fresh;
                let st = match &mut state {
                    Some(state) => state.scalar_mut(),
                    None => {
                        fresh = kernel.new_state(env, &self.externs)?;
                        &mut fresh
                    }
                };
                let vals = accs
                    .into_iter()
                    .enumerate()
                    .map(|(gi, acc)| task::finish_gen(&kernel, gi, std::iter::once(acc), st))
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok((vals, tally.record_served(batched, size, t0.elapsed())));
            }
        }
        let elements = self
            .eval_exp(&ml.size, env)
            .ok()
            .and_then(|v| v.as_i64())
            .map_or(0, |s| s.max(0) as u64);
        let t0 = Instant::now();
        let vals = self.eval_loop(ml, env, 0, None)?;
        stats::record_treewalk(elements, t0.elapsed());
        Ok((vals, LoopTier::TreeWalk))
    }

    pub(crate) fn eval_block(
        &self,
        b: &Block,
        args: &[Value],
        env: &mut Env,
    ) -> Result<Value, EvalError> {
        debug_assert_eq!(b.params.len(), args.len());
        for (p, a) in b.params.iter().zip(args) {
            env[p.0 as usize] = Some(a.clone());
        }
        match self.drive(Frame::Block(BlockFrame { block: b, si: 0 }), env)? {
            Driven::Value(v) => Ok(v),
            Driven::Accs(_) => unreachable!("root block yields a value"),
        }
    }

    pub(crate) fn eval_exp(&self, e: &Exp, env: &Env) -> Result<Value, EvalError> {
        match e {
            Exp::Const(c) => Ok(const_value(c)),
            Exp::Sym(s) => env[s.0 as usize]
                .clone()
                .ok_or_else(|| EvalError::TypeMismatch(format!("unset symbol {s}"))),
        }
    }

    pub(crate) fn eval_def_internal(
        &self,
        d: &Def,
        env: &mut Env,
    ) -> Result<Vec<Value>, EvalError> {
        let one = |v: Value| Ok(vec![v]);
        match d {
            Def::Prim { op, args } => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval_exp(a, env)?);
                }
                one(eval_prim(*op, &vs)?)
            }
            Def::Math { f, arg } => {
                let v = self.eval_exp(arg, env)?;
                let x = v
                    .as_f64()
                    .ok_or_else(|| EvalError::TypeMismatch("math on non-float".into()))?;
                one(Value::F64(eval_math(*f, x)))
            }
            Def::Cast { to, value } => {
                let v = self.eval_exp(value, env)?;
                one(match (to, v) {
                    (dmll_core::Ty::F64, Value::I64(i)) => Value::F64(i as f64),
                    (dmll_core::Ty::F64, Value::F64(f)) => Value::F64(f),
                    (dmll_core::Ty::I64, Value::F64(f)) => Value::I64(f as i64),
                    (dmll_core::Ty::I64, Value::I64(i)) => Value::I64(i),
                    (t, v) => return Err(EvalError::TypeMismatch(format!("cast {v:?} to {t}"))),
                })
            }
            Def::ArrayLen(e) => {
                let v = self.eval_exp(e, env)?;
                let a = v
                    .as_arr()
                    .ok_or_else(|| EvalError::TypeMismatch("len of non-array".into()))?;
                one(Value::I64(a.len() as i64))
            }
            Def::ArrayRead { arr, index } => {
                let av = self.eval_exp(arr, env)?;
                let iv = self.eval_exp(index, env)?;
                one(read_array(&av, &iv)?)
            }
            Def::TupleNew(es) => {
                let mut vs = Vec::with_capacity(es.len());
                for e in es {
                    vs.push(self.eval_exp(e, env)?);
                }
                one(Value::Tuple(Arc::new(vs)))
            }
            Def::TupleGet { tuple, index } => {
                let v = self.eval_exp(tuple, env)?;
                match v {
                    Value::Tuple(vs) => vs
                        .get(*index)
                        .cloned()
                        .map(|v| vec![v])
                        .ok_or_else(|| EvalError::TypeMismatch("tuple index".into())),
                    other => Err(EvalError::TypeMismatch(format!(
                        "tuple projection from {other:?}"
                    ))),
                }
            }
            Def::StructNew { ty, fields } => {
                let mut vs = Vec::with_capacity(fields.len());
                for e in fields {
                    vs.push(self.eval_exp(e, env)?);
                }
                one(Value::Struct(Arc::new(StructVal {
                    ty: Arc::new(ty.clone()),
                    fields: vs,
                })))
            }
            Def::StructGet { obj, field } => {
                let v = self.eval_exp(obj, env)?;
                match v {
                    Value::Struct(s) => s
                        .field(field)
                        .cloned()
                        .map(|v| vec![v])
                        .ok_or_else(|| EvalError::TypeMismatch(format!("no field {field}"))),
                    other => Err(EvalError::TypeMismatch(format!(
                        "field read from {other:?}"
                    ))),
                }
            }
            Def::Flatten(e) => {
                let v = self.eval_exp(e, env)?;
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
                one(Value::Arr(seal_array(out)))
            }
            Def::BucketValues(e) => {
                let v = self.eval_exp(e, env)?;
                match v {
                    Value::Buckets(b) => one(Value::Arr(seal_array(b.vals.clone()))),
                    other => Err(EvalError::TypeMismatch(format!(
                        "bucketValues of {other:?}"
                    ))),
                }
            }
            Def::BucketKeys(e) => {
                let v = self.eval_exp(e, env)?;
                match v {
                    Value::Buckets(b) => one(Value::Arr(seal_array(b.keys.clone()))),
                    other => Err(EvalError::TypeMismatch(format!("bucketKeys of {other:?}"))),
                }
            }
            Def::BucketLen(e) => {
                let v = self.eval_exp(e, env)?;
                match v {
                    Value::Buckets(b) => one(Value::I64(b.len() as i64)),
                    other => Err(EvalError::TypeMismatch(format!("bucketLen of {other:?}"))),
                }
            }
            Def::BucketGet {
                buckets,
                key,
                default,
            } => {
                let bv = self.eval_exp(buckets, env)?;
                let kv = self.eval_exp(key, env)?;
                match bv {
                    Value::Buckets(b) => match b.get(&kv) {
                        Some(v) => one(v.clone()),
                        None => match default {
                            Some(d) => one(self.eval_exp(d, env)?),
                            None => Err(EvalError::MissingBucket(kv.to_string())),
                        },
                    },
                    other => Err(EvalError::TypeMismatch(format!("bucketGet of {other:?}"))),
                }
            }
            Def::Loop(ml) => self.eval_loop(ml, env, 0, None),
            Def::Extern {
                name, args, ret, ..
            } => {
                let f = self
                    .externs
                    .get(name)
                    .ok_or_else(|| EvalError::UnknownExtern(name.clone()))?
                    .clone();
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval_exp(a, env)?);
                }
                let v = f(&vs)?;
                check_extern_ret(name, ret, &v)?;
                one(v)
            }
        }
    }

    /// Evaluate a multiloop over `[start, end)` where `end` defaults to the
    /// loop's size. Sub-range evaluation is what the hierarchical runtime
    /// uses to split loops over hardware resources.
    pub(crate) fn eval_loop(
        &self,
        ml: &Multiloop,
        env: &mut Env,
        start: i64,
        end: Option<i64>,
    ) -> Result<Vec<Value>, EvalError> {
        let accs = self.eval_loop_accs(ml, env, start, end)?;
        ml.gens
            .iter()
            .zip(accs)
            .map(|(gen, acc)| self.seal_acc(gen, acc, env))
            .collect()
    }

    /// Evaluate a multiloop over a sub-range, returning the raw per-generator
    /// accumulators (unsealed). The parallel executor merges accumulators
    /// from several sub-ranges before sealing.
    pub(crate) fn eval_loop_accs(
        &self,
        ml: &Multiloop,
        env: &mut Env,
        start: i64,
        end: Option<i64>,
    ) -> Result<Vec<Acc>, EvalError> {
        let root = self.loop_frame(ml, env, start, end, None)?;
        match self.drive(Frame::Loop(root), env)? {
            Driven::Accs(accs) => Ok(accs),
            Driven::Value(_) => unreachable!("root loop yields accumulators"),
        }
    }

    /// Build a suspended frame for one multiloop activation, evaluating its
    /// size bound eagerly (exactly where the recursive walker evaluated it).
    fn loop_frame<'a>(
        &self,
        ml: &'a Multiloop,
        env: &Env,
        start: i64,
        end: Option<i64>,
        lhs: Option<&'a [dmll_core::Sym]>,
    ) -> Result<LoopFrame<'a>, EvalError> {
        let size = self
            .eval_exp(&ml.size, env)?
            .as_i64()
            .ok_or_else(|| EvalError::TypeMismatch("loop size".into()))?;
        let end = end.unwrap_or(size).min(size);
        Ok(LoopFrame {
            ml,
            lhs,
            i: start,
            end,
            gi: 0,
            accs: ml.gens.iter().map(Acc::for_gen).collect(),
            phase: Phase::NextGen,
        })
    }

    /// The stackless driver: runs the frame machine to completion starting
    /// from `root`. Loop nesting lives on the explicit frame stack — only
    /// straight-line work (expressions, non-loop defs) touches the native
    /// stack — so IR depth is bounded by the heap, not by thread stack size.
    fn drive<'a>(&self, root: Frame<'a>, env: &mut Env) -> Result<Driven, EvalError> {
        let mut frames: Vec<Frame<'a>> = vec![root];
        // Results of completed sub-blocks, consumed by the loop frame that
        // pushed them.
        let mut vals: Vec<Value> = Vec::new();
        loop {
            let top = frames.last_mut().expect("machine has a frame");
            match top {
                Frame::Block(bf) => {
                    if let Some(stmt) = bf.block.stmts.get(bf.si) {
                        bf.si += 1;
                        if let Def::Loop(ml) = &stmt.def {
                            let lf =
                                self.loop_frame(ml, env, 0, None, Some(stmt.lhs.as_slice()))?;
                            frames.push(Frame::Loop(lf));
                        } else {
                            let out = self.eval_def_internal(&stmt.def, env)?;
                            debug_assert_eq!(out.len(), stmt.lhs.len());
                            for (s, v) in stmt.lhs.iter().zip(out) {
                                env[s.0 as usize] = Some(v);
                            }
                        }
                    } else {
                        let v = self.eval_exp(&bf.block.result, env)?;
                        frames.pop();
                        if frames.is_empty() {
                            return Ok(Driven::Value(v));
                        }
                        vals.push(v);
                    }
                }
                Frame::Loop(lf) => {
                    if let Some(block) = self.step_loop(lf, env, &mut vals)? {
                        frames.push(Frame::Block(BlockFrame { block, si: 0 }));
                    } else {
                        let Some(Frame::Loop(lf)) = frames.pop() else {
                            unreachable!("loop frame on top");
                        };
                        match lf.lhs {
                            Some(lhs) => {
                                debug_assert_eq!(lhs.len(), lf.ml.gens.len());
                                for ((gen, acc), s) in
                                    lf.ml.gens.iter().zip(lf.accs).zip(lhs)
                                {
                                    let v = self.seal_acc(gen, acc, env)?;
                                    env[s.0 as usize] = Some(v);
                                }
                            }
                            None => {
                                debug_assert!(frames.is_empty());
                                return Ok(Driven::Accs(lf.accs));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Advance one loop frame until it either needs a sub-block evaluated
    /// (returns the block, with its parameters already bound in `env`) or
    /// has consumed its whole range (returns `None`; the driver seals).
    /// State transitions mirror the recursive walker's per-element,
    /// per-generator order exactly: cond → value → (bucket key) → fold.
    fn step_loop<'a>(
        &self,
        lf: &mut LoopFrame<'a>,
        env: &mut Env,
        vals: &mut Vec<Value>,
    ) -> Result<Option<&'a Block>, EvalError> {
        let ml = lf.ml;
        loop {
            match std::mem::replace(&mut lf.phase, Phase::NextGen) {
                Phase::NextGen => {
                    if ml.gens.is_empty() {
                        // Generator-free loop: nothing to do per element.
                        return Ok(None);
                    }
                    if lf.gi >= ml.gens.len() {
                        lf.gi = 0;
                        lf.i += 1;
                    }
                    if lf.i >= lf.end {
                        return Ok(None);
                    }
                    let gen = &ml.gens[lf.gi];
                    match gen.cond() {
                        Some(c) => {
                            bind_params(env, c, &[Value::I64(lf.i)]);
                            lf.phase = Phase::AwaitCond;
                            return Ok(Some(c));
                        }
                        None => {
                            let b = gen.value();
                            bind_params(env, b, &[Value::I64(lf.i)]);
                            lf.phase = Phase::AwaitValue;
                            return Ok(Some(b));
                        }
                    }
                }
                Phase::AwaitCond => {
                    let pass = vals
                        .pop()
                        .expect("cond result")
                        .as_bool()
                        .ok_or_else(|| EvalError::TypeMismatch("condition".into()))?;
                    if pass {
                        let b = ml.gens[lf.gi].value();
                        bind_params(env, b, &[Value::I64(lf.i)]);
                        lf.phase = Phase::AwaitValue;
                        return Ok(Some(b));
                    }
                    lf.gi += 1;
                }
                Phase::AwaitValue => {
                    let v = vals.pop().expect("value result");
                    match (&ml.gens[lf.gi], &mut lf.accs[lf.gi]) {
                        (Gen::Collect { .. }, Acc::Collect(out)) => {
                            out.push(v);
                            lf.gi += 1;
                        }
                        (Gen::Reduce { reducer, init, .. }, Acc::Reduce(state)) => {
                            match state.take() {
                                Some(cur) => {
                                    bind_params(env, reducer, &[cur, v]);
                                    lf.phase = Phase::AwaitReduce;
                                    return Ok(Some(reducer));
                                }
                                None => match init {
                                    Some(ie) => {
                                        let i0 = self.eval_exp(ie, env)?;
                                        bind_params(env, reducer, &[i0, v]);
                                        lf.phase = Phase::AwaitReduce;
                                        return Ok(Some(reducer));
                                    }
                                    None => {
                                        *state = Some(v);
                                        lf.gi += 1;
                                    }
                                },
                            }
                        }
                        (Gen::BucketCollect { key, .. }, _) | (Gen::BucketReduce { key, .. }, _) => {
                            bind_params(env, key, &[Value::I64(lf.i)]);
                            lf.phase = Phase::AwaitKey { v };
                            return Ok(Some(key));
                        }
                        _ => unreachable!("accumulator matches generator"),
                    }
                }
                Phase::AwaitReduce => {
                    let next = vals.pop().expect("reducer result");
                    match &mut lf.accs[lf.gi] {
                        Acc::Reduce(state) => *state = Some(next),
                        _ => unreachable!("reduce accumulator"),
                    }
                    lf.gi += 1;
                }
                Phase::AwaitKey { v } => {
                    let k = vals.pop().expect("key result");
                    match (&ml.gens[lf.gi], &mut lf.accs[lf.gi]) {
                        (
                            Gen::BucketCollect { .. },
                            Acc::BucketCollect { keys, vals: bvals, index },
                        ) => {
                            let slot = *index.entry(Key(k.clone())).or_insert_with(|| {
                                keys.push(k);
                                bvals.push(Vec::new());
                                keys.len() - 1
                            });
                            bvals[slot].push(v);
                            lf.gi += 1;
                        }
                        (
                            Gen::BucketReduce { reducer, .. },
                            Acc::BucketReduce { keys, vals: bvals, index },
                        ) => match index.get(&Key(k.clone())) {
                            Some(&slot) => {
                                let cur = bvals[slot].clone();
                                bind_params(env, reducer, &[cur, v]);
                                lf.phase = Phase::AwaitBucketReduce { slot };
                                return Ok(Some(reducer));
                            }
                            None => {
                                index.insert(Key(k.clone()), keys.len());
                                keys.push(k);
                                bvals.push(v);
                                lf.gi += 1;
                            }
                        },
                        _ => unreachable!("accumulator matches generator"),
                    }
                }
                Phase::AwaitBucketReduce { slot } => {
                    let r = vals.pop().expect("bucket reducer result");
                    match &mut lf.accs[lf.gi] {
                        Acc::BucketReduce { vals: bvals, .. } => bvals[slot] = r,
                        _ => unreachable!("bucket reduce accumulator"),
                    }
                    lf.gi += 1;
                }
            }
        }
    }

    pub(crate) fn seal_acc(&self, gen: &Gen, acc: Acc, env: &mut Env) -> Result<Value, EvalError> {
        Ok(match acc {
            Acc::Collect(out) => Value::Arr(seal_array(out)),
            Acc::Reduce(state) => match state {
                Some(v) => v,
                None => match gen {
                    Gen::Reduce { init: Some(i), .. } => self.eval_exp(i, env)?,
                    _ => return Err(EvalError::EmptyReduce),
                },
            },
            Acc::BucketCollect { keys, vals, .. } => Value::Buckets(Arc::new(BucketsVal::new(
                keys,
                vals.into_iter()
                    .map(|v| Value::Arr(seal_array(v)))
                    .collect(),
            ))),
            Acc::BucketReduce { keys, vals, .. } => {
                Value::Buckets(Arc::new(BucketsVal::new(keys, vals)))
            }
        })
    }
}

/// One suspended activation of the stackless frame machine. The tree-walker
/// used to recurse Rust-natively through nested [`Def::Loop`]s, so deep IR
/// could overflow the native stack; the machine keeps loop and block
/// continuations on an explicit heap stack instead.
enum Frame<'a> {
    Block(BlockFrame<'a>),
    Loop(LoopFrame<'a>),
}

/// A block mid-execution: statements before `si` have run.
struct BlockFrame<'a> {
    block: &'a Block,
    si: usize,
}

/// A multiloop mid-execution.
struct LoopFrame<'a> {
    ml: &'a Multiloop,
    /// Destination symbols in the enclosing block; `None` marks the root
    /// frame of an accumulator-level entry ([`Interp::eval_loop_accs`]),
    /// whose accumulators are returned unsealed.
    lhs: Option<&'a [dmll_core::Sym]>,
    /// Current element, in `[start, end)`.
    i: i64,
    end: i64,
    /// Current generator index for element `i`.
    gi: usize,
    accs: Vec<Acc>,
    phase: Phase,
}

/// What the loop frame is waiting on from the sub-block it last pushed.
enum Phase {
    /// Not waiting: dispatch the next generator (or element).
    NextGen,
    /// A condition block's result is on the value stack.
    AwaitCond,
    /// The generator's value block result is on the value stack.
    AwaitValue,
    /// A bucket generator's key block result is on the value stack;
    /// `v` is the already-evaluated element value.
    AwaitKey { v: Value },
    /// A reducer block's result is on the value stack.
    AwaitReduce,
    /// A bucket reducer's result is on the value stack, destined for `slot`.
    AwaitBucketReduce { slot: usize },
}

/// What the machine's root frame produced.
enum Driven {
    Value(Value),
    Accs(Vec<Acc>),
}

/// Bind a block's parameters in the environment. Symbols are globally
/// unique within a program, so binding at push time (rather than keeping
/// per-frame scopes) cannot clobber an outer frame's live slots.
fn bind_params(env: &mut Env, b: &Block, args: &[Value]) {
    debug_assert_eq!(b.params.len(), args.len());
    for (p, a) in b.params.iter().zip(args) {
        env[p.0 as usize] = Some(a.clone());
    }
}

/// Per-generator accumulator state (shared with the parallel executor).
pub(crate) enum Acc {
    Collect(Vec<Value>),
    Reduce(Option<Value>),
    BucketCollect {
        keys: Vec<Value>,
        vals: Vec<Vec<Value>>,
        index: HashMap<Key, usize>,
    },
    BucketReduce {
        keys: Vec<Value>,
        vals: Vec<Value>,
        index: HashMap<Key, usize>,
    },
}

impl Acc {
    pub(crate) fn for_gen(gen: &Gen) -> Acc {
        match gen {
            Gen::Collect { .. } => Acc::Collect(Vec::new()),
            Gen::Reduce { .. } => Acc::Reduce(None),
            Gen::BucketCollect { .. } => Acc::BucketCollect {
                keys: Vec::new(),
                vals: Vec::new(),
                index: HashMap::new(),
            },
            Gen::BucketReduce { .. } => Acc::BucketReduce {
                keys: Vec::new(),
                vals: Vec::new(),
                index: HashMap::new(),
            },
        }
    }
}

/// Specialize a boxed value vector to unboxed storage when homogeneous.
pub(crate) fn seal_array(vals: Vec<Value>) -> ArrayVal {
    match vals.first() {
        Some(Value::I64(_)) if vals.iter().all(|v| matches!(v, Value::I64(_))) => ArrayVal::I64(
            Arc::new(vals.iter().map(|v| v.as_i64().expect("i64")).collect()),
        ),
        Some(Value::F64(_)) if vals.iter().all(|v| matches!(v, Value::F64(_))) => ArrayVal::F64(
            Arc::new(vals.iter().map(|v| v.as_f64().expect("f64")).collect()),
        ),
        Some(Value::Bool(_)) if vals.iter().all(|v| matches!(v, Value::Bool(_))) => ArrayVal::Bool(
            Arc::new(vals.iter().map(|v| v.as_bool().expect("bool")).collect()),
        ),
        _ => ArrayVal::Boxed(Arc::new(vals)),
    }
}

pub(crate) fn read_array(arr: &Value, index: &Value) -> Result<Value, EvalError> {
    let a = arr
        .as_arr()
        .ok_or_else(|| EvalError::TypeMismatch("read of non-array".into()))?;
    let i = index
        .as_i64()
        .ok_or_else(|| EvalError::TypeMismatch("non-integer index".into()))?;
    if i < 0 || i as usize >= a.len() {
        return Err(EvalError::IndexOutOfBounds {
            index: i,
            len: a.len(),
        });
    }
    Ok(a.get(i as usize).expect("in range"))
}

fn const_value(c: &Const) -> Value {
    match c {
        Const::I64(v) => Value::I64(*v),
        Const::F64(v) => Value::F64(*v),
        Const::Bool(v) => Value::Bool(*v),
        Const::Str(s) => Value::Str(s.clone()),
        Const::Unit => Value::Unit,
    }
}

pub(crate) fn eval_math(f: MathFn, x: f64) -> f64 {
    match f {
        MathFn::Exp => x.exp(),
        MathFn::Log => x.ln(),
        MathFn::Sqrt => x.sqrt(),
        MathFn::Abs => x.abs(),
        MathFn::Sin => x.sin(),
        MathFn::Cos => x.cos(),
        MathFn::Tanh => x.tanh(),
        MathFn::Floor => x.floor(),
        MathFn::Ceil => x.ceil(),
    }
}

pub(crate) fn eval_prim(op: PrimOp, args: &[Value]) -> Result<Value, EvalError> {
    use PrimOp::*;
    use Value::*;
    let type_err = || EvalError::TypeMismatch(format!("{op} applied to {args:?}"));
    Ok(match (op, args) {
        (Add, [I64(a), I64(b)]) => I64(a.wrapping_add(*b)),
        (Add, [F64(a), F64(b)]) => F64(a + b),
        (Sub, [I64(a), I64(b)]) => I64(a.wrapping_sub(*b)),
        (Sub, [F64(a), F64(b)]) => F64(a - b),
        (Mul, [I64(a), I64(b)]) => I64(a.wrapping_mul(*b)),
        (Mul, [F64(a), F64(b)]) => F64(a * b),
        (Div, [I64(a), I64(b)]) => {
            if *b == 0 {
                return Err(EvalError::DivisionByZero);
            }
            I64(a / b)
        }
        (Div, [F64(a), F64(b)]) => F64(a / b),
        (Rem, [I64(a), I64(b)]) => {
            if *b == 0 {
                return Err(EvalError::DivisionByZero);
            }
            I64(a % b)
        }
        (Min, [I64(a), I64(b)]) => I64(*a.min(b)),
        (Min, [F64(a), F64(b)]) => F64(a.min(*b)),
        (Max, [I64(a), I64(b)]) => I64(*a.max(b)),
        (Max, [F64(a), F64(b)]) => F64(a.max(*b)),
        (Neg, [I64(a)]) => I64(-a),
        (Neg, [F64(a)]) => F64(-a),
        (Eq, [a, b]) => Bool(a == b),
        (Ne, [a, b]) => Bool(a != b),
        (Lt, [I64(a), I64(b)]) => Bool(a < b),
        (Lt, [F64(a), F64(b)]) => Bool(a < b),
        (Le, [I64(a), I64(b)]) => Bool(a <= b),
        (Le, [F64(a), F64(b)]) => Bool(a <= b),
        (Gt, [I64(a), I64(b)]) => Bool(a > b),
        (Gt, [F64(a), F64(b)]) => Bool(a > b),
        (Ge, [I64(a), I64(b)]) => Bool(a >= b),
        (Ge, [F64(a), F64(b)]) => Bool(a >= b),
        (And, [Bool(a), Bool(b)]) => Bool(*a && *b),
        (Or, [Bool(a), Bool(b)]) => Bool(*a || *b),
        (Not, [Bool(a)]) => Bool(!a),
        (Mux, [Bool(c), a, b]) => {
            if *c {
                a.clone()
            } else {
                b.clone()
            }
        }
        _ => return Err(type_err()),
    })
}

/// Run `program` on the given named inputs with the default (empty) extern
/// registry.
///
/// # Errors
///
/// See [`Interp::run`].
pub fn eval(program: &Program, inputs: &[(&str, Value)]) -> Result<Value, EvalError> {
    Interp::new(program).run(inputs)
}

/// Run `program` with the compiled tier disabled and the fusion rewrite
/// skipped — pure tree-walking over the program exactly as written.
/// Differential tests and tier benches use this as the reference.
///
/// # Errors
///
/// See [`Interp::run`].
pub fn eval_tree_walk(program: &Program, inputs: &[(&str, Value)]) -> Result<Value, EvalError> {
    Interp::new(program)
        .without_compiled_tier()
        .without_fusion()
        .run(inputs)
}

/// Run `program` with a set of extern handlers.
///
/// # Errors
///
/// See [`Interp::run`].
pub fn eval_with_externs(
    program: &Program,
    inputs: &[(&str, Value)],
    externs: Vec<(String, ExternFn)>,
) -> Result<Value, EvalError> {
    let mut interp = Interp::new(program);
    for (name, f) in externs {
        interp.externs.insert_fn(name, f);
    }
    interp.run(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmll_core::{LayoutHint, Ty};
    use dmll_frontend::Stage;

    #[test]
    fn map_reduce_roundtrip() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let doubled = st.map(&x, |st, e| {
            let two = st.lit_f(2.0);
            st.mul(e, &two)
        });
        let total = st.sum(&doubled);
        let p = st.finish(&total);
        let out = eval(&p, &[("x", Value::f64_arr(vec![1.0, 2.0, 3.0]))]).unwrap();
        assert_eq!(out, Value::F64(12.0));
    }

    #[test]
    fn filter_keeps_order() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Local);
        let evens = st.filter(&x, |st, e| {
            let two = st.lit_i(2);
            let r = st.rem(e, &two);
            let zero = st.lit_i(0);
            st.eq(&r, &zero)
        });
        let p = st.finish(&evens);
        let out = eval(&p, &[("x", Value::i64_arr(vec![5, 2, 7, 4, 6, 1]))]).unwrap();
        assert_eq!(out.to_i64_vec().unwrap(), vec![2, 4, 6]);
    }

    #[test]
    fn group_by_first_seen_order() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Local);
        let g = st.group_by(&x, |st, e| {
            let three = st.lit_i(3);
            st.rem(e, &three)
        });
        let keys = st.bucket_keys(&g);
        let p = st.finish(&keys);
        let out = eval(&p, &[("x", Value::i64_arr(vec![7, 3, 5, 9, 8]))]).unwrap();
        // 7%3=1 first, 3%3=0 second, 5%3=2 third.
        assert_eq!(out.to_i64_vec().unwrap(), vec![1, 0, 2]);
    }

    #[test]
    fn bucket_reduce_sums_per_key() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Local);
        let zero = st.lit_i(0);
        let sums = st.group_by_reduce(
            &x,
            |st, e| {
                let two = st.lit_i(2);
                st.rem(e, &two)
            },
            |_st, e| e.clone(),
            |st, a, b| st.add(a, b),
            Some(&zero),
        );
        let vals = st.bucket_values(&sums);
        let p = st.finish(&vals);
        let out = eval(&p, &[("x", Value::i64_arr(vec![1, 2, 3, 4, 5]))]).unwrap();
        // odd first (1+3+5=9), then even (2+4=6).
        assert_eq!(out.to_i64_vec().unwrap(), vec![9, 6]);
    }

    #[test]
    fn min_index_runs() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let mi = st.min_index(&x);
        let p = st.finish(&mi);
        let out = eval(&p, &[("x", Value::f64_arr(vec![3.0, 1.0, 2.0, 1.5]))]).unwrap();
        assert_eq!(out, Value::I64(1));
    }

    #[test]
    fn empty_reduce_without_init_errors() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let r = st.reduce_elems(&x, |st, a, b| st.add(a, b));
        let p = st.finish(&r);
        let err = eval(&p, &[("x", Value::f64_arr(vec![]))]).unwrap_err();
        assert_eq!(err, EvalError::EmptyReduce);
    }

    #[test]
    fn empty_reduce_with_init_yields_init() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let total = st.sum(&x);
        let p = st.finish(&total);
        let out = eval(&p, &[("x", Value::f64_arr(vec![]))]).unwrap();
        assert_eq!(out, Value::F64(0.0));
    }

    #[test]
    fn out_of_bounds_read_errors() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let idx = st.lit_i(10);
        let v = st.read(&x, &idx);
        let p = st.finish(&v);
        let err = eval(&p, &[("x", Value::f64_arr(vec![1.0]))]).unwrap_err();
        assert_eq!(err, EvalError::IndexOutOfBounds { index: 10, len: 1 });
    }

    #[test]
    fn missing_input_errors() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let total = st.sum(&x);
        let p = st.finish(&total);
        let err = eval(&p, &[]).unwrap_err();
        assert_eq!(err, EvalError::MissingInput("x".into()));
    }

    #[test]
    fn extern_dispatch() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let n = st.extern_call("my_len", &[&x], Ty::I64, false, true);
        let p = st.finish(&n);
        let out = eval_with_externs(
            &p,
            &[("x", Value::f64_arr(vec![1.0, 2.0]))],
            vec![(
                "my_len".to_string(),
                Arc::new(|args: &[Value]| {
                    Ok(Value::I64(args[0].as_arr().map_or(0, |a| a.len() as i64)))
                }) as ExternFn,
            )],
        )
        .unwrap();
        assert_eq!(out, Value::I64(2));
        assert_eq!(
            eval(&p, &[("x", Value::f64_arr(vec![]))]).unwrap_err(),
            EvalError::UnknownExtern("my_len".into())
        );
    }

    #[test]
    fn integer_division_by_zero() {
        let mut st = Stage::new();
        let a = st.lit_i(3);
        let b = st.lit_i(0);
        let d = st.div(&a, &b);
        let p = st.finish(&d);
        assert_eq!(eval(&p, &[]).unwrap_err(), EvalError::DivisionByZero);
    }

    #[test]
    fn matrix_kmeans_assignment() {
        // Two clear clusters; nearest-centroid assignment must separate them.
        let mut st = Stage::new();
        let matrix = st.input_matrix("matrix", LayoutHint::Partitioned);
        let clusters = st.input_matrix("clusters", LayoutHint::Local);
        let assigned = matrix.map_rows(&mut st, |st, i| {
            let dists = clusters.map_rows(st, |st, k| matrix.row_dist2(st, i, &clusters, k));
            st.min_index(&dists)
        });
        let p = st.finish(&assigned);
        let matrix_v = Value::matrix(vec![0.0, 0.1, 10.0, 9.9, 0.2, 0.0, 9.8, 10.1], 4, 2);
        let clusters_v = Value::matrix(vec![0.0, 0.0, 10.0, 10.0], 2, 2);
        let out = eval(&p, &[("matrix", matrix_v), ("clusters", clusters_v)]).unwrap();
        assert_eq!(out.to_i64_vec().unwrap(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn mux_selects() {
        let mut st = Stage::new();
        let c = st.lit_b(false);
        let a = st.lit_i(1);
        let b = st.lit_i(2);
        let m = st.mux(&c, &a, &b);
        let p = st.finish(&m);
        assert_eq!(eval(&p, &[]).unwrap(), Value::I64(2));
    }
}
