//! Native-tier glue: emit a certified kernel as C++, compile and `dlopen`
//! it (via `dmll_codegen::native`), and marshal kernel invocations across
//! the `extern "C"` SoA-pointer ABI.
//!
//! The native tier is a strict subset of the batched tier: a kernel is
//! offered to it only when already batch-certified, and every failure —
//! ineligible construct, missing compiler, or a runtime fault signalled by
//! the entry's nonzero return — degrades to the batched executor, which is
//! semantically complete and reproduces the exact error or panic the
//! interpreter defines. Results on the success path are bit-identical by
//! construction: the emitter mirrors the interpreter's scalar semantics
//! operation for operation (wrapping integer arithmetic, checked division,
//! bit-exact float constants, saturating casts) and declines anything it
//! cannot mirror (transcendental libm calls, float min/max tie-breaking).
//!
//! Caching: the compiled shared object lives in a `OnceLock` on the
//! [`Kernel`], so the kernel LRU cache (keyed by structural hash + rewrite
//! fingerprint + environment refinement) owns the `dlopen` handle; evicting
//! the kernel drops the library.

use super::{Class, ColBuf, KAcc, KeyIx, Kernel, RedBuf};
use crate::eval::Env;
use crate::stats;
use crate::value::{ArrayVal, Value};
use dmll_codegen::{
    emit_kernel_entry, NativeArr, NativeGenOut, NativeIneligible, NativeLib, NativeVarTy,
};
use dmll_core::gen::GenKind;
use dmll_core::{Multiloop, Sym};
use std::time::Instant;

/// Symbol name of the emitted entry point. Fixed across kernels: each
/// shared object is loaded with its own local handle and resolved through
/// it, so names never collide.
const ENTRY_NAME: &str = "dmll_kernel_entry";

/// A ready-to-run native kernel: the loaded library plus the marshaling
/// plan for its free variables.
#[derive(Debug)]
pub(crate) struct NativeEntry {
    lib: NativeLib,
    /// Free-variable ABI types, in `Kernel::free` order — the same order
    /// the emitter assigned per-class argument indices in.
    vars: Vec<NativeVarTy>,
}

/// Classify one environment value at the ABI boundary.
fn classify(v: &Value) -> Option<NativeVarTy> {
    match v {
        Value::I64(_) => Some(NativeVarTy::I64),
        Value::F64(_) => Some(NativeVarTy::F64),
        Value::Bool(_) => Some(NativeVarTy::Bool),
        Value::Arr(ArrayVal::I64(_)) => Some(NativeVarTy::ArrI64),
        Value::Arr(ArrayVal::F64(_)) => Some(NativeVarTy::ArrF64),
        Value::Arr(ArrayVal::Bool(_)) => Some(NativeVarTy::ArrBool),
        _ => None,
    }
}

/// Typed per-generator output storage for one native call.
enum ColStore {
    I(Vec<i64>),
    F(Vec<f64>),
    B(Vec<u8>),
}

impl ColStore {
    fn with_capacity(class: Class, cap: usize) -> Option<ColStore> {
        Some(match class {
            Class::I => ColStore::I(Vec::with_capacity(cap)),
            Class::F => ColStore::F(Vec::with_capacity(cap)),
            Class::B => ColStore::B(Vec::with_capacity(cap)),
            Class::V => return None,
        })
    }

    fn ptr(&mut self) -> *mut std::ffi::c_void {
        match self {
            ColStore::I(v) => v.as_mut_ptr().cast(),
            ColStore::F(v) => v.as_mut_ptr().cast(),
            ColStore::B(v) => v.as_mut_ptr().cast(),
        }
    }

    /// Adopt `count` elements the native kernel wrote into the spare
    /// capacity. Sound: the entry writes at most one element per loop
    /// iteration (≤ capacity) and the count is clamped besides.
    fn adopt(self, count: usize) -> ColBuf {
        match self {
            ColStore::I(mut v) => {
                unsafe { v.set_len(count.min(v.capacity())) };
                ColBuf::I(v)
            }
            ColStore::F(mut v) => {
                unsafe { v.set_len(count.min(v.capacity())) };
                ColBuf::F(v)
            }
            ColStore::B(mut v) => {
                unsafe { v.set_len(count.min(v.capacity())) };
                ColBuf::B(v.into_iter().map(|b| b != 0).collect())
            }
        }
    }

    fn adopt_red(self, count: usize) -> RedBuf {
        match self.adopt(count) {
            ColBuf::I(v) => RedBuf::I(v),
            ColBuf::F(v) => RedBuf::F(v),
            ColBuf::B(v) => RedBuf::B(v),
            ColBuf::V(v) => RedBuf::V(v),
        }
    }
}

enum GenBufs {
    Col(ColStore),
    Red,
    BRed {
        keys: Vec<i64>,
        vals: ColStore,
        table: Vec<u32>,
    },
}

impl Kernel {
    /// The native entry for this kernel, compiled on first request.
    /// `Err` is the cached typed decline; callers count it per invocation
    /// so fallback reasons stay visible after stats resets.
    pub(crate) fn native_entry(
        &self,
        ml: &Multiloop,
        env: &Env,
    ) -> Result<&NativeEntry, &NativeIneligible> {
        self.native
            .get_or_init(|| self.build_native(ml, env))
            .as_ref()
    }

    fn build_native(&self, ml: &Multiloop, env: &Env) -> Result<NativeEntry, NativeIneligible> {
        // Cross-check against the scalar compiler's authoritative view
        // before emitting: generator kinds and value classes drive the
        // caller-side buffer allocation, so anything the emitter would have
        // to guess about is declined here.
        for gen in &self.gens {
            match gen.kind {
                GenKind::BucketCollect => return Err(NativeIneligible::BucketCollect),
                GenKind::BucketReduce if !gen.key_typed => {
                    return Err(NativeIneligible::UntypedBucketKey)
                }
                _ => {}
            }
            if gen.val_class == Class::V {
                return Err(NativeIneligible::NonScalarValue);
            }
        }
        let mut vars: Vec<(Sym, NativeVarTy)> = Vec::with_capacity(self.free.len());
        for (sym, _reg) in &self.free {
            let v = env
                .get(sym.0 as usize)
                .and_then(|s| s.as_ref())
                .ok_or(NativeIneligible::UnsupportedFreeVar)?;
            let vty = classify(v).ok_or(NativeIneligible::UnsupportedFreeVar)?;
            vars.push((*sym, vty));
        }
        let source = emit_kernel_entry(ml, &vars, ENTRY_NAME)?;
        let t0 = Instant::now();
        let lib = dmll_codegen::compile_and_load(&source, ENTRY_NAME)?;
        stats::record_native_compile(t0.elapsed());
        Ok(NativeEntry {
            lib,
            vars: vars.into_iter().map(|(_, t)| t).collect(),
        })
    }

    /// Run `[start, end)` through the loaded native entry. `None` means the
    /// kernel signalled a runtime fault (division by zero, out-of-bounds
    /// read, overflow edge case) or the environment stopped matching the
    /// compiled marshaling plan; the caller re-runs the range on the
    /// batched tier, which reproduces the interpreter's exact outcome.
    pub(crate) fn run_range_native(
        &self,
        entry: &NativeEntry,
        env: &Env,
        start: i64,
        end: i64,
    ) -> Option<Vec<KAcc>> {
        // Marshal free variables in `free` order; per-class indices line up
        // with the emitter's assignment by construction.
        let mut si: Vec<i64> = Vec::new();
        let mut sf: Vec<f64> = Vec::new();
        let mut sb: Vec<u8> = Vec::new();
        let mut arrs: Vec<NativeArr> = Vec::new();
        for ((sym, _reg), vty) in self.free.iter().zip(&entry.vars) {
            let v = env.get(sym.0 as usize).and_then(|s| s.as_ref());
            let ok = match (v, vty) {
                (Some(Value::I64(x)), NativeVarTy::I64) => {
                    si.push(*x);
                    true
                }
                (Some(Value::F64(x)), NativeVarTy::F64) => {
                    sf.push(*x);
                    true
                }
                (Some(Value::Bool(x)), NativeVarTy::Bool) => {
                    sb.push(u8::from(*x));
                    true
                }
                (Some(Value::Arr(ArrayVal::I64(a))), NativeVarTy::ArrI64) => {
                    arrs.push(NativeArr {
                        ptr: a.as_ptr().cast(),
                        len: a.len() as i64,
                    });
                    true
                }
                (Some(Value::Arr(ArrayVal::F64(a))), NativeVarTy::ArrF64) => {
                    arrs.push(NativeArr {
                        ptr: a.as_ptr().cast(),
                        len: a.len() as i64,
                    });
                    true
                }
                (Some(Value::Arr(ArrayVal::Bool(a))), NativeVarTy::ArrBool) => {
                    // `bool` is one byte, 0 or 1: reading it as `u8` from C
                    // is sound.
                    arrs.push(NativeArr {
                        ptr: a.as_ptr() as *const std::ffi::c_void,
                        len: a.len() as i64,
                    });
                    true
                }
                _ => false,
            };
            if !ok {
                stats::record_native_fallback("marshal_mismatch");
                return None;
            }
        }

        let n = (end - start).max(0) as usize;
        let table_cap = (2 * n.max(1)).next_power_of_two().max(16);
        let mut bufs: Vec<GenBufs> = Vec::with_capacity(self.gens.len());
        let mut outs: Vec<NativeGenOut> = Vec::with_capacity(self.gens.len());
        for gen in &self.gens {
            let mut out = NativeGenOut {
                out: std::ptr::null_mut(),
                keys: std::ptr::null_mut(),
                table: std::ptr::null_mut(),
                table_cap: 0,
                count: 0,
                ival: 0,
                fval: 0.0,
                bval: 0,
            };
            let b = match gen.kind {
                GenKind::Collect => {
                    let mut store = ColStore::with_capacity(gen.val_class, n)?;
                    out.out = store.ptr();
                    GenBufs::Col(store)
                }
                GenKind::Reduce => GenBufs::Red,
                GenKind::BucketReduce => {
                    let mut keys: Vec<i64> = Vec::with_capacity(n.max(1));
                    let mut vals = ColStore::with_capacity(gen.val_class, n.max(1))?;
                    let mut table = vec![u32::MAX; table_cap];
                    out.keys = keys.as_mut_ptr();
                    out.out = vals.ptr();
                    out.table = table.as_mut_ptr();
                    out.table_cap = table_cap as i64;
                    GenBufs::BRed { keys, vals, table }
                }
                GenKind::BucketCollect => return None,
            };
            bufs.push(b);
            outs.push(out);
        }

        let f = entry.lib.entry();
        let rc = unsafe {
            f(
                start,
                end,
                si.as_ptr(),
                sf.as_ptr(),
                sb.as_ptr(),
                arrs.as_ptr(),
                outs.as_mut_ptr(),
            )
        };
        if rc != 0 {
            stats::record_native_fallback("runtime_fault");
            return None;
        }

        let mut accs = Vec::with_capacity(self.gens.len());
        for ((gen, buf), out) in self.gens.iter().zip(bufs).zip(&outs) {
            let count = out.count.clamp(0, n as i64) as usize;
            let acc = match buf {
                GenBufs::Col(store) => KAcc::Col(store.adopt(count)),
                GenBufs::Red => {
                    if out.count == 0 {
                        match gen.val_class {
                            Class::I => KAcc::RedI(None),
                            Class::F => KAcc::RedF(None),
                            Class::B => KAcc::RedB(None),
                            Class::V => return None,
                        }
                    } else {
                        match gen.val_class {
                            Class::I => KAcc::RedI(Some(out.ival)),
                            Class::F => KAcc::RedF(Some(out.fval)),
                            Class::B => KAcc::RedB(Some(out.bval != 0)),
                            Class::V => return None,
                        }
                    }
                }
                GenBufs::BRed {
                    mut keys,
                    vals,
                    table: _table,
                } => {
                    unsafe { keys.set_len(count.min(keys.capacity())) };
                    let ix = keys.iter().enumerate().map(|(s, k)| (*k, s)).collect();
                    KAcc::BRed {
                        keys: KeyIx::I { keys, ix },
                        vals: vals.adopt_red(count),
                    }
                }
            };
            accs.push(acc);
        }
        Some(accs)
    }
}
