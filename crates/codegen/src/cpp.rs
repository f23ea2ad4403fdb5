//! C++-flavoured code emission.
//!
//! Multiloops become sequential/OpenMP loops following Figure 2(b)'s
//! reference semantics: the condition guards a buffer append for collects,
//! buckets are maintained by **hashing**, and horizontally fused generators
//! share one traversal.

use crate::exprs::{exp, scalar_def, ty_name};
use crate::native::{NativeIneligible, NativeVarTy};
use dmll_core::typecheck::{self, TypeMap};
use dmll_core::{Block, Const, Def, Exp, Gen, MathFn, Multiloop, PrimOp, Program, StructTy, Sym, Ty};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;

const PREAMBLE: &str = r#"#include <cstdint>
#include <cmath>
#include <string>
#include <vector>
#include <unordered_map>
#include <tuple>
#include <algorithm>

template <class T> using Coll = std::vector<T>;

// Bucket storage maintained by hashing (the CPU strategy).
template <class K, class V> struct Buckets {
  std::vector<K> keys;
  std::vector<V> values;
  std::unordered_map<K, size_t> index;
  size_t slot(const K& k) {
    auto it = index.find(k);
    if (it != index.end()) return it->second;
    index.emplace(k, keys.size());
    keys.push_back(k);
    values.emplace_back();
    return keys.size() - 1;
  }
  V get(const K& k) const { return values.at(index.at(k)); }
  V get_or(const K& k, V dflt) const {
    auto it = index.find(k);
    return it == index.end() ? dflt : values[it->second];
  }
};
"#;

/// Emit a complete C++-flavoured translation unit for the program.
///
/// # Panics
///
/// Panics if the program fails to type-check (emit after the optimizer,
/// which validates).
pub fn emit_cpp(program: &Program) -> String {
    let tys = typecheck::infer(program).expect("well-typed program");
    let mut out = String::new();
    out.push_str(PREAMBLE);
    out.push('\n');
    for sty in struct_types(program, &tys) {
        let _ = writeln!(out, "struct {} {{", sty.name);
        for (name, ty) in &sty.fields {
            let _ = writeln!(out, "  {} {};", ty_name(ty), name);
        }
        out.push_str("};\n\n");
    }
    // Entry point taking the annotated inputs.
    let params: Vec<String> = program
        .inputs
        .iter()
        .map(|i| format!("const {}& {} /* @{} */", ty_name(&i.ty), i.sym, i.layout))
        .collect();
    let ret_ty = dmll_core::typecheck::exp_ty(&program.body.result, &tys)
        .map(|t| ty_name(&t))
        .unwrap_or_else(|_| "void".into());
    let _ = writeln!(out, "{} dmll_main({}) {{", ret_ty, params.join(", "));
    emit_block_stmts(&program.body, 1, &tys, &mut out);
    let _ = writeln!(out, "  return {};", exp(&program.body.result));
    out.push_str("}\n");
    out
}

fn struct_types(program: &Program, tys: &TypeMap) -> Vec<StructTy> {
    let mut seen: Vec<StructTy> = Vec::new();
    let mut note = |t: &Ty| {
        collect_structs(t, &mut seen);
    };
    for i in &program.inputs {
        note(&i.ty);
    }
    for t in tys.values() {
        note(t);
    }
    seen
}

fn collect_structs(t: &Ty, seen: &mut Vec<StructTy>) {
    match t {
        Ty::Struct(s) => {
            if !seen.iter().any(|x| x == s) {
                seen.push(s.clone());
            }
            for (_, ft) in &s.fields {
                collect_structs(ft, seen);
            }
        }
        Ty::Arr(e) => collect_structs(e, seen),
        Ty::Buckets { key, value } => {
            collect_structs(key, seen);
            collect_structs(value, seen);
        }
        Ty::Tuple(ts) => ts.iter().for_each(|t| collect_structs(t, seen)),
        _ => {}
    }
}

fn pad(n: usize) -> String {
    "  ".repeat(n)
}

fn emit_block_stmts(b: &Block, indent: usize, tys: &TypeMap, out: &mut String) {
    for stmt in &b.stmts {
        match &stmt.def {
            Def::Loop(ml) => emit_loop(stmt, ml, indent, tys, out),
            other => {
                if let Some(rhs) = scalar_def(other) {
                    let ty = tys
                        .get(&stmt.lhs[0])
                        .map(ty_name)
                        .unwrap_or_else(|| "auto".into());
                    let _ = writeln!(out, "{}{} {} = {};", pad(indent), ty, stmt.lhs[0], rhs);
                }
            }
        }
    }
}

fn emit_loop(
    stmt: &dmll_core::Stmt,
    ml: &dmll_core::Multiloop,
    indent: usize,
    tys: &TypeMap,
    out: &mut String,
) {
    let p = pad(indent);
    // Accumulator declarations.
    for (gen, sym) in ml.gens.iter().zip(&stmt.lhs) {
        let ty = tys.get(sym).map(ty_name).unwrap_or_else(|| "auto".into());
        match gen {
            Gen::Collect { .. } => {
                let _ = writeln!(out, "{p}{ty} {sym};");
            }
            Gen::Reduce { init, .. } => match init {
                Some(i) => {
                    let _ = writeln!(out, "{p}{ty} {sym} = {};", exp(i));
                }
                None => {
                    let _ = writeln!(out, "{p}{ty} {sym}{{}}; bool {sym}_init = false;");
                }
            },
            Gen::BucketCollect { .. } | Gen::BucketReduce { .. } => {
                let _ = writeln!(out, "{p}{ty} {sym};");
            }
        }
    }
    let _ = writeln!(
        out,
        "{p}#pragma omp parallel for  // multiloop, {} generator(s)",
        ml.gens.len()
    );
    let _ = writeln!(
        out,
        "{p}for (int64_t _i = 0; _i < {}; ++_i) {{",
        exp(&ml.size)
    );
    for (gen, sym) in ml.gens.iter().zip(&stmt.lhs) {
        let _ = writeln!(out, "{}{{", pad(indent + 1));
        let body_indent = indent + 2;
        // Condition guards the whole generator body.
        if let Some(c) = gen.cond() {
            alias_param(c, body_indent, out);
            emit_block_stmts(c, body_indent, tys, out);
            let _ = writeln!(
                out,
                "{}if (!({})) continue;",
                pad(body_indent),
                exp(&c.result)
            );
        }
        if let Some(k) = gen.key() {
            alias_param(k, body_indent, out);
            emit_block_stmts(k, body_indent, tys, out);
        }
        let v = gen.value();
        alias_param(v, body_indent, out);
        emit_block_stmts(v, body_indent, tys, out);
        let value = exp(&v.result);
        match gen {
            Gen::Collect { .. } => {
                let _ = writeln!(out, "{}{sym}.push_back({value});", pad(body_indent));
            }
            Gen::Reduce { reducer, init, .. } => {
                if init.is_none() {
                    let _ = writeln!(
                        out,
                        "{}if (!{sym}_init) {{ {sym} = {value}; {sym}_init = true; continue; }}",
                        pad(body_indent)
                    );
                }
                emit_reduce_update(&format!("{sym}"), &value, reducer, body_indent, tys, out);
            }
            Gen::BucketCollect { key, .. } => {
                let _ = writeln!(
                    out,
                    "{}{sym}.values[{sym}.slot({})].push_back({value});",
                    pad(body_indent),
                    exp(&key.result)
                );
            }
            Gen::BucketReduce { key, reducer, .. } => {
                let _ = writeln!(
                    out,
                    "{}auto& _slot = {sym}.values[{sym}.slot({})];",
                    pad(body_indent),
                    exp(&key.result)
                );
                emit_reduce_update("_slot", &value, reducer, body_indent, tys, out);
            }
        }
        let _ = writeln!(out, "{}}}", pad(indent + 1));
    }
    let _ = writeln!(out, "{p}}}");
}

fn alias_param(b: &Block, indent: usize, out: &mut String) {
    if let Some(param) = b.params.first() {
        let _ = writeln!(out, "{}const int64_t {param} = _i;", pad(indent));
    }
}

fn emit_reduce_update(
    acc: &str,
    value: &str,
    reducer: &Block,
    indent: usize,
    tys: &TypeMap,
    out: &mut String,
) {
    let p = pad(indent);
    let _ = writeln!(out, "{p}{{  // reduction update");
    let _ = writeln!(out, "{p}  auto {} = {acc};", reducer.params[0]);
    let _ = writeln!(out, "{p}  auto {} = {value};", reducer.params[1]);
    emit_block_stmts(reducer, indent + 1, tys, out);
    let _ = writeln!(out, "{p}  {acc} = {};", exp(&reducer.result));
    let _ = writeln!(out, "{p}}}");
}

// ---------------------------------------------------------------------------
// Executable kernel emission (the native tier's `extern "C"` ABI)
// ---------------------------------------------------------------------------

/// Fixed prelude of every emitted kernel translation unit.
///
/// It includes only C headers and declares, with C linkage, every libm
/// function [`native_math_fn`] may emit. `<math.h>` is deliberately absent:
/// in C++ mode it pulls in `<cmath>` and most of libstdc++, which the
/// compiler would parse on every kernel compile. The declared names are
/// still compiler builtins, so the generated code is the same.
///
/// The helpers pin the interpreter's exact scalar semantics: integer
/// add/sub/mul wrap (via unsigned arithmetic — signed overflow is UB in
/// C++), float add/mul return the first operand's NaN whatever operand
/// order the compiler picks, float constants are reconstructed bit-exactly
/// from their IEEE pattern, and float→int casts saturate like Rust's `as`.
const KERNEL_PREAMBLE: &str = r#"#include <stdint.h>
#include <string.h>

extern "C" {
double sqrt(double); double fabs(double); double floor(double); double ceil(double);
}

typedef struct { const void* ptr; int64_t len; } DmllArr;
typedef struct { void* out; int64_t* keys; uint32_t* table; int64_t table_cap;
                 int64_t count; int64_t ival; double fval; uint8_t bval; } DmllGenOut;

static inline double dmll_bits(uint64_t b) { double d; memcpy(&d, &b, 8); return d; }
static inline int64_t dmll_addi(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a + (uint64_t)b);
}
static inline int64_t dmll_subi(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a - (uint64_t)b);
}
static inline int64_t dmll_muli(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a * (uint64_t)b);
}
/* IEEE 754 leaves open which NaN a two-NaN add or multiply returns. The
   interpreter returns its first operand's, quieted (the x86 rule), but a
   C compiler may commute the operands, so the order is pinned here. */
static inline double dmll_first_nan(double a) {
  uint64_t b; memcpy(&b, &a, 8); return dmll_bits(b | 0x0008000000000000ULL);
}
static inline double dmll_addf(double a, double b) {
  return a != a ? dmll_first_nan(a) : a + b;
}
static inline double dmll_mulf(double a, double b) {
  return a != a ? dmll_first_nan(a) : a * b;
}
static inline int64_t dmll_f2i(double x) {
  if (x != x) return 0;
  if (x >= 9223372036854775808.0) return INT64_MAX;
  if (x < -9223372036854775808.0) return INT64_MIN;
  return (int64_t)x;
}
"#;

/// Scalar/array classes tracked while emitting a kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NTy {
    I,
    F,
    B,
    AI,
    AF,
    AB,
}

impl NTy {
    fn c_name(self) -> &'static str {
        match self {
            NTy::I => "int64_t",
            NTy::F => "double",
            NTy::B => "bool",
            _ => unreachable!("arrays are never declared as scalars"),
        }
    }

    fn is_scalar(self) -> bool {
        matches!(self, NTy::I | NTy::F | NTy::B)
    }
}

struct KernelCtx {
    tys: HashMap<Sym, NTy>,
    out: String,
}

impl KernelCtx {
    fn line(&mut self, indent: usize, s: &str) {
        let _ = writeln!(self.out, "{}{s}", pad(indent));
    }
}

/// Emit a complete translation unit whose single `extern "C"` entry runs
/// `ml`'s generators over a `[start, end)` index range against SoA
/// pointers (see [`crate::native::NativeEntryFn`] for the ABI).
///
/// `vars` lists the loop's free variables in binding order; per ABI class,
/// argument indices are assigned in that order, so callers must marshal
/// identically. The emitter certifies independently of the interpreter's
/// batch tier: anything outside the exactly-reproducible scalar subset
/// (nested loops, boxed values, transcendental math, untyped bucket keys…)
/// is declined with a typed reason.
///
/// # Errors
///
/// [`NativeIneligible`] naming the first construct outside the subset.
pub fn emit_kernel_entry(
    ml: &Multiloop,
    vars: &[(Sym, NativeVarTy)],
    entry: &str,
) -> Result<String, NativeIneligible> {
    let mut ctx = KernelCtx {
        tys: HashMap::new(),
        out: String::new(),
    };
    // Free-variable bindings, in ABI order per class.
    let mut binds = String::new();
    let (mut ii, mut fi, mut bi, mut ai) = (0usize, 0usize, 0usize, 0usize);
    for (sym, vty) in vars {
        match vty {
            NativeVarTy::I64 => {
                let _ = writeln!(binds, "  const int64_t {sym} = si[{ii}];");
                ii += 1;
                ctx.tys.insert(*sym, NTy::I);
            }
            NativeVarTy::F64 => {
                let _ = writeln!(binds, "  const double {sym} = sf[{fi}];");
                fi += 1;
                ctx.tys.insert(*sym, NTy::F);
            }
            NativeVarTy::Bool => {
                let _ = writeln!(binds, "  const bool {sym} = sb[{bi}] != 0;");
                bi += 1;
                ctx.tys.insert(*sym, NTy::B);
            }
            NativeVarTy::ArrI64 | NativeVarTy::ArrF64 | NativeVarTy::ArrBool => {
                let (cty, nty) = match vty {
                    NativeVarTy::ArrI64 => ("int64_t", NTy::AI),
                    NativeVarTy::ArrF64 => ("double", NTy::AF),
                    _ => ("uint8_t", NTy::AB),
                };
                let _ = writeln!(
                    binds,
                    "  const {cty}* {sym} = (const {cty}*)arrs[{ai}].ptr; \
                     const int64_t {sym}_len = arrs[{ai}].len;"
                );
                ai += 1;
                ctx.tys.insert(*sym, nty);
            }
        }
    }

    // Per-generator accumulator declarations and loop bodies. Classes are
    // inferred while emitting, so generator bodies are produced first into
    // scratch strings and stitched after their accumulator declarations.
    let mut decls = String::new();
    let mut bodies = String::new();
    let mut backs = String::new();
    for (gi, gen) in ml.gens.iter().enumerate() {
        emit_native_gen(&mut ctx, gi, gen, &mut decls, &mut bodies, &mut backs)?;
    }

    let mut out = String::from(KERNEL_PREAMBLE);
    out.push('\n');
    let _ = writeln!(
        out,
        "extern \"C\" int32_t {entry}(int64_t start, int64_t end, const int64_t* si,"
    );
    let _ = writeln!(
        out,
        "    const double* sf, const uint8_t* sb, const DmllArr* arrs, DmllGenOut* outs) {{"
    );
    out.push_str("  (void)si; (void)sf; (void)sb; (void)arrs;\n");
    out.push_str(&binds);
    out.push_str(&decls);
    out.push_str("  for (int64_t dmll_i = start; dmll_i < end; ++dmll_i) {\n");
    out.push_str(&bodies);
    out.push_str("  }\n");
    out.push_str(&backs);
    out.push_str("  return 0;\n}\n");
    Ok(out)
}

/// Emit one generator: accumulator declarations into `decls`, the
/// per-element body into `bodies`, the post-loop writeback into `backs`.
fn emit_native_gen(
    ctx: &mut KernelCtx,
    gi: usize,
    gen: &Gen,
    decls: &mut String,
    bodies: &mut String,
    backs: &mut String,
) -> Result<(), NativeIneligible> {
    let (cond, key, value, reducer, init) = match gen {
        Gen::Collect { cond, value } => (cond.as_ref(), None, value, None, None),
        Gen::Reduce {
            cond,
            value,
            reducer,
            init,
        } => (cond.as_ref(), None, value, Some(reducer), init.as_ref()),
        Gen::BucketCollect { .. } => return Err(NativeIneligible::BucketCollect),
        Gen::BucketReduce {
            cond,
            key,
            value,
            reducer,
            init: _,
        } => (cond.as_ref(), Some(key), value, Some(reducer), None),
    };

    // Body: condition guard, then key/value evaluation, then accumulation,
    // all inside the generator's own scope. Every index-taking block's
    // parameter aliases the loop counter; aliases are deduplicated because
    // fused generators may share parameter symbols across blocks.
    let save = std::mem::take(&mut ctx.out);
    let mut declared: HashSet<Sym> = HashSet::new();
    ctx.line(2, &format!("{{ // generator {gi}"));
    let mut indent = 3;
    if let Some(c) = cond {
        alias_index_param(ctx, c, indent, &mut declared);
        emit_native_block_stmts(ctx, c, indent)?;
        let (ce, ct) = native_exp(ctx, &c.result)?;
        if ct != NTy::B {
            return Err(NativeIneligible::UnsupportedOp("non-boolean condition"));
        }
        ctx.line(indent, &format!("if ({ce}) {{"));
        indent += 1;
    }
    let mut key_exp = None;
    if let Some(k) = key {
        alias_index_param(ctx, k, indent, &mut declared);
        emit_native_block_stmts(ctx, k, indent)?;
        let (ke, kt) = native_exp(ctx, &k.result)?;
        if kt != NTy::I {
            return Err(NativeIneligible::UntypedBucketKey);
        }
        key_exp = Some(ke);
    }
    alias_index_param(ctx, value, indent, &mut declared);
    emit_native_block_stmts(ctx, value, indent)?;
    let (ve, vt) = native_exp(ctx, &value.result)?;
    if !vt.is_scalar() {
        return Err(NativeIneligible::NonScalarValue);
    }
    let acc = format!("g{gi}_acc");
    let n = format!("g{gi}_n");
    match gen {
        Gen::Collect { .. } => {
            let store = if vt == NTy::B {
                format!("g{gi}_out[{n}] = (uint8_t)(({ve}) ? 1 : 0); {n} += 1;")
            } else {
                format!("g{gi}_out[{n}] = {ve}; {n} += 1;")
            };
            ctx.line(indent, &store);
        }
        Gen::Reduce { .. } => {
            let red = reducer.expect("reduce has reducer");
            if init.is_some() {
                // With an explicit identity the first accepted element
                // folds `r(init, x)`, which the seeded accumulator already
                // expresses: fold unconditionally.
                emit_native_reducer(ctx, red, &acc, &ve, vt, indent)?;
            } else {
                ctx.line(indent, &format!("if ({n} == 0) {{ {acc} = {ve}; }} else {{"));
                emit_native_reducer(ctx, red, &acc, &ve, vt, indent + 1)?;
                ctx.line(indent, "}");
            }
            ctx.line(indent, &format!("{n} += 1;"));
        }
        Gen::BucketReduce { .. } => {
            let red = reducer.expect("bucket reduce has reducer");
            let ke = key_exp.expect("bucket reduce has key");
            ctx.line(indent, &format!("const int64_t g{gi}_k = {ke};"));
            ctx.line(indent, &format!("int64_t g{gi}_slot; int g{gi}_new = 0;"));
            ctx.line(indent, "{");
            ctx.line(
                indent + 1,
                &format!("uint64_t h = (uint64_t)g{gi}_k * 0x9E3779B97F4A7C15ULL;"),
            );
            ctx.line(indent + 1, &format!("uint64_t p = (h >> 33) & g{gi}_mask;"));
            ctx.line(indent + 1, "for (;;) {");
            ctx.line(indent + 2, &format!("uint32_t e = g{gi}_tab[p];"));
            ctx.line(
                indent + 2,
                &format!(
                    "if (e == 0xFFFFFFFFu) {{ g{gi}_slot = {n}; g{gi}_tab[p] = \
                     (uint32_t)g{gi}_slot; g{gi}_keys[g{gi}_slot] = g{gi}_k; {n} += 1; \
                     g{gi}_new = 1; break; }}"
                ),
            );
            ctx.line(
                indent + 2,
                &format!("if (g{gi}_keys[e] == g{gi}_k) {{ g{gi}_slot = (int64_t)e; break; }}"),
            );
            ctx.line(indent + 2, &format!("p = (p + 1) & g{gi}_mask;"));
            ctx.line(indent + 1, "}");
            ctx.line(indent, "}");
            // First occurrence stores the raw value (the interpreter never
            // consults a BucketReduce identity); later ones fold.
            let slot = format!("g{gi}_vals[g{gi}_slot]");
            ctx.line(indent, &format!("if (g{gi}_new) {{ {slot} = {ve}; }} else {{"));
            emit_native_reducer(ctx, red, &slot, &ve, vt, indent + 1)?;
            ctx.line(indent, "}");
        }
        Gen::BucketCollect { .. } => unreachable!("declined above"),
    }
    if cond.is_some() {
        indent -= 1;
        ctx.line(indent, "}");
    }
    ctx.line(2, "}");
    let body = std::mem::replace(&mut ctx.out, save);
    bodies.push_str(&body);

    // Accumulator declarations and writeback, now that `vt` is known.
    match gen {
        Gen::Collect { .. } => {
            let cty = if vt == NTy::B { "uint8_t" } else { vt.c_name() };
            let _ = writeln!(
                decls,
                "  {cty}* g{gi}_out = ({cty}*)outs[{gi}].out; int64_t {n} = 0;"
            );
            let _ = writeln!(backs, "  outs[{gi}].count = {n};");
        }
        Gen::Reduce { init, .. } => {
            let seed = match init {
                Some(e) => native_exp(ctx, e)?.0,
                None => match vt {
                    NTy::I => "0".into(),
                    NTy::F => "0.0".into(),
                    _ => "false".into(),
                },
            };
            let _ = writeln!(decls, "  {} {acc} = {seed}; int64_t {n} = 0;", vt.c_name());
            let field = match vt {
                NTy::I => format!("outs[{gi}].ival = {acc};"),
                NTy::F => format!("outs[{gi}].fval = {acc};"),
                _ => format!("outs[{gi}].bval = {acc} ? 1 : 0;"),
            };
            let _ = writeln!(backs, "  {field} outs[{gi}].count = {n};");
        }
        Gen::BucketReduce { .. } => {
            let cty = if vt == NTy::B { "uint8_t" } else { vt.c_name() };
            let _ = writeln!(
                decls,
                "  int64_t* g{gi}_keys = outs[{gi}].keys; {cty}* g{gi}_vals = \
                 ({cty}*)outs[{gi}].out; uint32_t* g{gi}_tab = outs[{gi}].table; \
                 uint64_t g{gi}_mask = (uint64_t)(outs[{gi}].table_cap - 1); \
                 int64_t {n} = 0;"
            );
            let _ = writeln!(backs, "  outs[{gi}].count = {n};");
        }
        Gen::BucketCollect { .. } => unreachable!("declined above"),
    }
    Ok(())
}

/// Declare the block's index parameter as an alias of the loop counter,
/// once per generator even when blocks share the symbol.
fn alias_index_param(ctx: &mut KernelCtx, b: &Block, indent: usize, declared: &mut HashSet<Sym>) {
    if let Some(p) = b.params.first() {
        if declared.insert(*p) {
            ctx.tys.insert(*p, NTy::I);
            ctx.line(indent, &format!("const int64_t {p} = dmll_i;"));
        }
    }
}

/// Inline a two-parameter reducer block: `acc = r(acc, x)`, in its own
/// scope so parameter and statement symbols cannot collide with the
/// generator scope.
fn emit_native_reducer(
    ctx: &mut KernelCtx,
    red: &Block,
    acc: &str,
    x: &str,
    vt: NTy,
    indent: usize,
) -> Result<(), NativeIneligible> {
    if red.params.len() != 2 {
        return Err(NativeIneligible::UnsupportedOp("reducer arity"));
    }
    let (a, b) = (red.params[0], red.params[1]);
    ctx.tys.insert(a, vt);
    ctx.tys.insert(b, vt);
    ctx.line(indent, "{");
    ctx.line(indent + 1, &format!("const {} {a} = {acc};", vt.c_name()));
    ctx.line(indent + 1, &format!("const {} {b} = {x};", vt.c_name()));
    emit_native_block_stmts(ctx, red, indent + 1)?;
    let (re, rt) = native_exp(ctx, &red.result)?;
    if rt != vt {
        return Err(NativeIneligible::UnsupportedOp("reducer class mismatch"));
    }
    ctx.line(indent + 1, &format!("{acc} = {re};"));
    ctx.line(indent, "}");
    Ok(())
}

fn emit_native_block_stmts(
    ctx: &mut KernelCtx,
    b: &Block,
    indent: usize,
) -> Result<(), NativeIneligible> {
    for stmt in &b.stmts {
        emit_native_stmt(ctx, stmt, indent)?;
    }
    Ok(())
}

fn emit_native_stmt(
    ctx: &mut KernelCtx,
    stmt: &dmll_core::Stmt,
    indent: usize,
) -> Result<(), NativeIneligible> {
    let lhs = stmt.lhs[0];
    let (code, ty) = match &stmt.def {
        Def::Prim { op, args } => native_prim(ctx, *op, args)?,
        Def::Math { f, arg } => {
            let (a, at) = native_exp(ctx, arg)?;
            if at != NTy::F {
                return Err(NativeIneligible::UnsupportedOp("math on non-float"));
            }
            let f = native_math_fn(*f).ok_or(NativeIneligible::TranscendentalMath)?;
            (format!("{f}({a})"), NTy::F)
        }
        Def::Cast { to, value } => {
            let (v, vt) = native_exp(ctx, value)?;
            match (to, vt) {
                (Ty::I64, NTy::I) | (Ty::F64, NTy::F) => (v, vt),
                (Ty::I64, NTy::F) => (format!("dmll_f2i({v})"), NTy::I),
                (Ty::F64, NTy::I) => (format!("(double){v}"), NTy::F),
                _ => return Err(NativeIneligible::UnsupportedOp("cast")),
            }
        }
        Def::ArrayLen(e) => {
            let s = native_arr_sym(ctx, e)?;
            (format!("{s}_len"), NTy::I)
        }
        Def::ArrayRead { arr, index } => {
            let s = native_arr_sym(ctx, arr)?;
            let at = ctx.tys[&s];
            let (ix, ixt) = native_exp(ctx, index)?;
            if ixt != NTy::I {
                return Err(NativeIneligible::UnsupportedOp("non-integer index"));
            }
            ctx.line(
                indent,
                &format!("if ((uint64_t)({ix}) >= (uint64_t){s}_len) return 1;"),
            );
            match at {
                NTy::AI => (format!("{s}[{ix}]"), NTy::I),
                NTy::AF => (format!("{s}[{ix}]"), NTy::F),
                NTy::AB => (format!("({s}[{ix}] != 0)"), NTy::B),
                _ => return Err(NativeIneligible::UnsupportedOp("boxed array read")),
            }
        }
        Def::Loop(_) => return Err(NativeIneligible::NestedLoop),
        Def::TupleNew(_) | Def::TupleGet { .. } => {
            return Err(NativeIneligible::UnsupportedOp("tuple"))
        }
        Def::StructNew { .. } | Def::StructGet { .. } => {
            return Err(NativeIneligible::UnsupportedOp("struct"))
        }
        Def::Flatten(_) => return Err(NativeIneligible::UnsupportedOp("flatten")),
        Def::BucketValues(_) | Def::BucketKeys(_) | Def::BucketLen(_) | Def::BucketGet { .. } => {
            return Err(NativeIneligible::UnsupportedOp("bucket op"))
        }
        Def::Extern { .. } => return Err(NativeIneligible::UnsupportedOp("extern")),
    };
    ctx.tys.insert(lhs, ty);
    ctx.line(indent, &format!("const {} {lhs} = {code};", ty.c_name()));
    Ok(())
}

/// The libm function a math op lowers to, each declared in
/// [`KERNEL_PREAMBLE`]. Only correctly-rounded (`sqrt`) or exact
/// (`fabs`/`floor`/`ceil`) functions are bit-identical across libm and
/// Rust; the transcendentals are not guaranteed to match and decline.
fn native_math_fn(f: MathFn) -> Option<&'static str> {
    match f {
        MathFn::Sqrt => Some("sqrt"),
        MathFn::Abs => Some("fabs"),
        MathFn::Floor => Some("floor"),
        MathFn::Ceil => Some("ceil"),
        MathFn::Exp | MathFn::Log | MathFn::Sin | MathFn::Cos | MathFn::Tanh => None,
    }
}

/// Lower one primitive application, inserting fault guards (`return 1`)
/// wherever the interpreter would raise an error or panic: division and
/// remainder by zero, `i64::MIN / -1`, and `-i64::MIN`.
fn native_prim(
    ctx: &mut KernelCtx,
    op: PrimOp,
    args: &[Exp],
) -> Result<(String, NTy), NativeIneligible> {
    let mut ops = Vec::with_capacity(args.len());
    for a in args {
        ops.push(native_exp(ctx, a)?);
    }
    let same = |i: usize, j: usize| ops[i].1 == ops[j].1;
    let bad = NativeIneligible::UnsupportedOp("operand classes");
    Ok(match op {
        PrimOp::Add | PrimOp::Sub | PrimOp::Mul => {
            if !same(0, 1) {
                return Err(bad);
            }
            match ops[0].1 {
                NTy::I => {
                    let f = match op {
                        PrimOp::Add => "dmll_addi",
                        PrimOp::Sub => "dmll_subi",
                        _ => "dmll_muli",
                    };
                    (format!("{f}({}, {})", ops[0].0, ops[1].0), NTy::I)
                }
                // Subtraction does not commute, so only `+` and `*` need
                // their NaN operand order pinned.
                NTy::F => match op {
                    PrimOp::Add => (format!("dmll_addf({}, {})", ops[0].0, ops[1].0), NTy::F),
                    PrimOp::Sub => (format!("({} - {})", ops[0].0, ops[1].0), NTy::F),
                    _ => (format!("dmll_mulf({}, {})", ops[0].0, ops[1].0), NTy::F),
                },
                _ => return Err(bad),
            }
        }
        PrimOp::Div | PrimOp::Rem => {
            if !same(0, 1) {
                return Err(bad);
            }
            let c = if op == PrimOp::Div { "/" } else { "%" };
            match ops[0].1 {
                NTy::I => {
                    // Division by zero is the interpreter's error; MIN / -1
                    // is its (overflow) panic. Both defer to the fallback.
                    ctx.line(
                        0,
                        &format!(
                            "  if (({b}) == 0) return 1; if (({a}) == INT64_MIN && ({b}) == \
                             -1) return 1;",
                            a = ops[0].0,
                            b = ops[1].0
                        ),
                    );
                    (format!("(({}) {c} ({}))", ops[0].0, ops[1].0), NTy::I)
                }
                NTy::F if op == PrimOp::Div => {
                    (format!("(({}) / ({}))", ops[0].0, ops[1].0), NTy::F)
                }
                _ => return Err(bad),
            }
        }
        PrimOp::Min | PrimOp::Max => {
            if !same(0, 1) || ops[0].1 != NTy::I {
                // Float min/max tie-breaking on signed zeros is not pinned
                // down identically by Rust and libm; decline.
                return Err(NativeIneligible::UnsupportedOp("non-integer min/max"));
            }
            let c = if op == PrimOp::Min { "<" } else { ">" };
            (
                format!(
                    "((({a}) {c} ({b})) ? ({a}) : ({b}))",
                    a = ops[0].0,
                    b = ops[1].0
                ),
                NTy::I,
            )
        }
        PrimOp::Neg => match ops[0].1 {
            NTy::I => {
                ctx.line(0, &format!("  if (({}) == INT64_MIN) return 1;", ops[0].0));
                (format!("(-({}))", ops[0].0), NTy::I)
            }
            NTy::F => (format!("(-({}))", ops[0].0), NTy::F),
            _ => return Err(bad),
        },
        PrimOp::Eq | PrimOp::Ne => {
            if !same(0, 1) || !ops[0].1.is_scalar() {
                return Err(bad);
            }
            let c = if op == PrimOp::Eq { "==" } else { "!=" };
            (format!("(({}) {c} ({}))", ops[0].0, ops[1].0), NTy::B)
        }
        PrimOp::Lt | PrimOp::Le | PrimOp::Gt | PrimOp::Ge => {
            if !same(0, 1) || !matches!(ops[0].1, NTy::I | NTy::F) {
                return Err(bad);
            }
            let c = match op {
                PrimOp::Lt => "<",
                PrimOp::Le => "<=",
                PrimOp::Gt => ">",
                _ => ">=",
            };
            (format!("(({}) {c} ({}))", ops[0].0, ops[1].0), NTy::B)
        }
        PrimOp::And | PrimOp::Or => {
            if ops[0].1 != NTy::B || ops[1].1 != NTy::B {
                return Err(bad);
            }
            let c = if op == PrimOp::And { "&&" } else { "||" };
            (format!("(({}) {c} ({}))", ops[0].0, ops[1].0), NTy::B)
        }
        PrimOp::Not => {
            if ops[0].1 != NTy::B {
                return Err(bad);
            }
            (format!("(!({}))", ops[0].0), NTy::B)
        }
        PrimOp::Mux => {
            if ops[0].1 != NTy::B || !same(1, 2) || !ops[1].1.is_scalar() {
                return Err(bad);
            }
            (
                format!("(({}) ? ({}) : ({}))", ops[0].0, ops[1].0, ops[2].0),
                ops[1].1,
            )
        }
    })
}

fn native_exp(ctx: &KernelCtx, e: &Exp) -> Result<(String, NTy), NativeIneligible> {
    match e {
        Exp::Sym(s) => match ctx.tys.get(s) {
            Some(t) if t.is_scalar() => Ok((s.to_string(), *t)),
            Some(_) => Err(NativeIneligible::NonScalarValue),
            None => Err(NativeIneligible::UnsupportedOp("unbound symbol")),
        },
        Exp::Const(Const::I64(v)) => {
            let s = if *v == i64::MIN {
                "INT64_MIN".to_string()
            } else {
                format!("{v}LL")
            };
            Ok((s, NTy::I))
        }
        // Bit-exact reconstruction: decimal literals cannot be trusted to
        // round-trip every IEEE pattern through the C++ lexer.
        Exp::Const(Const::F64(v)) => Ok((format!("dmll_bits(0x{:016X}ULL)", v.to_bits()), NTy::F)),
        Exp::Const(Const::Bool(v)) => Ok((if *v { "true" } else { "false" }.into(), NTy::B)),
        Exp::Const(Const::Str(_)) | Exp::Const(Const::Unit) => {
            Err(NativeIneligible::UnsupportedOp("string or unit constant"))
        }
    }
}

fn native_arr_sym(ctx: &KernelCtx, e: &Exp) -> Result<Sym, NativeIneligible> {
    let Exp::Sym(s) = e else {
        return Err(NativeIneligible::UnsupportedOp("constant array"));
    };
    match ctx.tys.get(s) {
        Some(NTy::AI | NTy::AF | NTy::AB) => Ok(*s),
        _ => Err(NativeIneligible::UnsupportedFreeVar),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmll_core::LayoutHint;
    use dmll_frontend::Stage;

    #[test]
    fn map_emits_openmp_loop() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let m = st.map(&x, |st, e| st.mul(e, e));
        let p = st.finish(&m);
        let code = emit_cpp(&p);
        assert!(code.contains("#pragma omp parallel for"), "{code}");
        assert!(code.contains("for (int64_t _i = 0;"), "{code}");
        assert!(code.contains(".push_back("), "{code}");
        assert!(code.contains("Coll<double>"), "{code}");
    }

    #[test]
    fn filter_guards_append_with_condition() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let f = st.filter(&x, |st, e| {
            let z = st.lit_f(0.0);
            st.gt(e, &z)
        });
        let p = st.finish(&f);
        let code = emit_cpp(&p);
        assert!(code.contains("if (!("), "condition guard: {code}");
    }

    #[test]
    fn group_by_uses_hash_buckets() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let g = st.group_by(&x, |st, e| {
            let k = st.lit_i(5);
            st.rem(e, &k)
        });
        let keys = st.bucket_keys(&g);
        let p = st.finish(&keys);
        let code = emit_cpp(&p);
        assert!(code.contains("std::unordered_map"), "{code}");
        assert!(code.contains(".slot("), "{code}");
        assert!(code.contains("Buckets<int64_t, Coll<int64_t>>"), "{code}");
    }

    #[test]
    fn reduce_without_identity_uses_first_element() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let m = st.reduce_elems(&x, |st, a, b| st.max(a, b));
        let p = st.finish(&m);
        let code = emit_cpp(&p);
        assert!(code.contains("_init = false"), "{code}");
        assert!(code.contains("std::max("), "{code}");
    }

    #[test]
    fn matrix_struct_emitted() {
        let mut st = Stage::new();
        let m = st.input_matrix("m", LayoutHint::Partitioned);
        let r = m.rows(&mut st);
        let p = st.finish(&r);
        let code = emit_cpp(&p);
        assert!(code.contains("struct MatrixF64 {"), "{code}");
        assert!(code.contains("Coll<double> data;"), "{code}");
    }

    /// Extract the single top-level multiloop from a staged program.
    fn top_loop(p: &Program) -> Multiloop {
        p.body
            .stmts
            .iter()
            .find_map(|s| match &s.def {
                Def::Loop(ml) => Some(ml.clone()),
                _ => None,
            })
            .expect("program has a loop")
    }

    #[test]
    fn kernel_entry_emits_extern_c_over_soa_pointers() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let a = st.map(&x, |st, e| st.mul(e, e));
        let s = st.sum(&a);
        let p = st.finish(&s);
        // The fused shape: find whichever loop the stage produced first and
        // bind its free array var.
        let ml = top_loop(&p);
        let arr_sym = p.inputs[0].sym;
        let code =
            emit_kernel_entry(&ml, &[(arr_sym, NativeVarTy::ArrF64)], "dmll_k").expect("eligible");
        assert!(code.contains("extern \"C\" int32_t dmll_k"), "{code}");
        assert!(code.contains("const double*"), "{code}");
        assert!(code.contains("return 1;"), "bounds guard: {code}");
    }

    #[test]
    fn kernel_entry_declines_nested_loops_and_transcendentals() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let e = st.map(&x, |st, v| st.math(dmll_core::MathFn::Exp, v));
        let p = st.finish(&e);
        let ml = top_loop(&p);
        let err = emit_kernel_entry(&ml, &[(p.inputs[0].sym, NativeVarTy::ArrF64)], "k")
            .expect_err("exp declines");
        assert_eq!(err.key(), "transcendental_math");
    }

    #[test]
    fn preamble_declares_every_lowered_math_fn() {
        use dmll_core::MathFn::*;
        let mut lowered = 0;
        for f in [Exp, Log, Sqrt, Abs, Sin, Cos, Tanh, Floor, Ceil] {
            if let Some(name) = native_math_fn(f) {
                lowered += 1;
                assert!(
                    KERNEL_PREAMBLE.contains(&format!("double {name}(double);")),
                    "{name} is emitted but not declared:\n{KERNEL_PREAMBLE}"
                );
            }
        }
        assert_eq!(lowered, 4);
        assert!(!KERNEL_PREAMBLE.contains("<math.h>"), "{KERNEL_PREAMBLE}");
    }

    #[test]
    fn emitted_kernel_compiles_and_matches_a_hand_rollup() {
        use crate::native::{compile_and_load, find_compiler, NativeArr, NativeGenOut};
        if find_compiler().is_none() {
            return;
        }
        // sum(x * x) over a f64 column: one Reduce generator with init 0.0.
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let a = st.map(&x, |st, e| st.mul(e, e));
        let s = st.sum(&a);
        let p = st.finish(&s);
        // Grab the *first* loop (the map); run it and check collect output.
        let ml = top_loop(&p);
        let arr_sym = p.inputs[0].sym;
        let code =
            emit_kernel_entry(&ml, &[(arr_sym, NativeVarTy::ArrF64)], "dmll_k").expect("eligible");
        let lib = compile_and_load(&code, "dmll_k").expect("compiles");
        let data: Vec<f64> = vec![1.5, -2.0, 3.25, 0.0];
        let arrs = [NativeArr {
            ptr: data.as_ptr().cast(),
            len: data.len() as i64,
        }];
        let mut out_buf: Vec<f64> = Vec::with_capacity(data.len());
        let mut outs = vec![NativeGenOut {
            out: out_buf.as_mut_ptr().cast(),
            keys: std::ptr::null_mut(),
            table: std::ptr::null_mut(),
            table_cap: 0,
            count: 0,
            ival: 0,
            fval: 0.0,
            bval: 0,
        }];
        let rc = unsafe {
            (lib.entry())(
                0,
                data.len() as i64,
                std::ptr::null(),
                std::ptr::null(),
                std::ptr::null(),
                arrs.as_ptr(),
                outs.as_mut_ptr(),
            )
        };
        assert_eq!(rc, 0);
        assert_eq!(outs[0].count, 4);
        unsafe { out_buf.set_len(4) };
        assert_eq!(out_buf, vec![2.25, 4.0, 10.5625, 0.0]);
    }

    #[test]
    fn inputs_carry_layout_annotations() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let s = st.sum(&x);
        let p = st.finish(&s);
        let code = emit_cpp(&p);
        assert!(code.contains("@Partitioned"), "{code}");
        assert!(code.contains("return x"), "{code}");
    }
}
