//! Executable native backend: compile an emitted kernel to a shared object
//! with the system C++ compiler and `dlopen` it.
//!
//! [`crate::cpp::emit_kernel_entry`] lowers a certified multiloop to a
//! single `extern "C"` function over SoA pointers; this module owns the
//! other half of the tier — finding a compiler, driving it, loading the
//! resulting `.so`, and keeping the handle alive for the kernel cache.
//!
//! Compiles are kept cheap because a cold run pays for every one of them.
//! The emitted unit is C in all but name: it includes only `<stdint.h>`
//! and `<string.h>` and declares the few libm functions it calls, so the
//! compiler never parses libstdc++ headers. The link names only libm and
//! libc (see [`compile_and_load`]).
//!
//! Everything here degrades, never fails: a missing compiler, a failed
//! compile, an unloadable object, or an unsupported platform each produce a
//! typed [`NativeIneligible`] that the interpreter counts and then falls
//! back to its batched tier, which is semantically complete.

use std::ffi::{c_void, CString};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// The type of one kernel free variable at the native ABI boundary.
///
/// Scalars are passed in per-class argument arrays (`si`/`sf`/`sb`), arrays
/// as `(pointer, length)` pairs; within each class, ABI indices are assigned
/// in the order the variables appear in the emitter's `vars` slice, so the
/// caller must marshal in that same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeVarTy {
    /// `i64` scalar, passed via `si`.
    I64,
    /// `f64` scalar, passed via `sf`.
    F64,
    /// `bool` scalar, passed via `sb` (nonzero = true).
    Bool,
    /// Unboxed `i64` array, passed via `arrs`.
    ArrI64,
    /// Unboxed `f64` array, passed via `arrs`.
    ArrF64,
    /// Unboxed `bool` array, passed via `arrs` (one byte per element).
    ArrBool,
}

/// Why a loop cannot (or could not) run on the native tier.
///
/// Every variant maps to a stable machine-readable key so fallbacks are
/// counted per reason, mirroring the batch tier's `BatchIneligible`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NativeIneligible {
    /// No C++ (or C) compiler found on `PATH` (and `DMLL_CXX` unset).
    CompilerUnavailable,
    /// The compiler ran but rejected the emitted source.
    CompileFailed(String),
    /// The produced shared object could not be loaded or resolved.
    LoadFailed(String),
    /// `dlopen` is only wired up on unix platforms.
    UnsupportedPlatform,
    /// The loop body contains a nested multiloop.
    NestedLoop,
    /// `BucketCollect` generators are not lowered (variable-size buckets).
    BucketCollect,
    /// Bucket keys must be `i64` for the open-addressing key table.
    UntypedBucketKey,
    /// A generator produces a non-scalar (boxed) element.
    NonScalarValue,
    /// Transcendental math (`exp`/`log`/`sin`/`cos`/`tanh`) is declined:
    /// libm results are not guaranteed bit-identical across languages.
    TranscendentalMath,
    /// A free variable is not a scalar or unboxed primitive array.
    UnsupportedFreeVar,
    /// Some other construct outside the lowered subset.
    UnsupportedOp(&'static str),
}

impl NativeIneligible {
    /// Stable machine-readable key for stats and JSON artifacts.
    pub fn key(&self) -> &'static str {
        match self {
            NativeIneligible::CompilerUnavailable => "compiler_unavailable",
            NativeIneligible::CompileFailed(_) => "compile_failed",
            NativeIneligible::LoadFailed(_) => "load_failed",
            NativeIneligible::UnsupportedPlatform => "unsupported_platform",
            NativeIneligible::NestedLoop => "nested_loop",
            NativeIneligible::BucketCollect => "bucket_collect",
            NativeIneligible::UntypedBucketKey => "untyped_bucket_key",
            NativeIneligible::NonScalarValue => "non_scalar_value",
            NativeIneligible::TranscendentalMath => "transcendental_math",
            NativeIneligible::UnsupportedFreeVar => "unsupported_free_var",
            NativeIneligible::UnsupportedOp(_) => "unsupported_op",
        }
    }
}

impl fmt::Display for NativeIneligible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeIneligible::CompileFailed(msg) => write!(f, "compile_failed: {msg}"),
            NativeIneligible::LoadFailed(msg) => write!(f, "load_failed: {msg}"),
            NativeIneligible::UnsupportedOp(what) => write!(f, "unsupported_op: {what}"),
            other => f.write_str(other.key()),
        }
    }
}

/// One array argument: base pointer and element count.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct NativeArr {
    /// Base of the unboxed element storage.
    pub ptr: *const c_void,
    /// Element count.
    pub len: i64,
}

/// Per-generator output slot.
///
/// The caller allocates every buffer (capacity = chunk length for collects,
/// bucket keys and values; `table_cap` slots for the key table, pre-filled
/// with `u32::MAX` sentinels) and reads back `count` plus the class-matching
/// scalar field after a successful call.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct NativeGenOut {
    /// Typed element buffer (collect values / bucket values).
    pub out: *mut c_void,
    /// Bucket keys, aligned with bucket slots.
    pub keys: *mut i64,
    /// Open-addressing key table (`u32::MAX` = empty), power-of-two size.
    pub table: *mut u32,
    /// Capacity of `table`.
    pub table_cap: i64,
    /// Elements collected / elements reduced / buckets created.
    pub count: i64,
    /// Scalar reduce result (`i64` class).
    pub ival: i64,
    /// Scalar reduce result (`f64` class).
    pub fval: f64,
    /// Scalar reduce result (`bool` class, 0/1).
    pub bval: u8,
}

/// The emitted entry point. Returns 0 on success; any nonzero return means
/// the kernel hit a condition whose semantics belong to the interpreter
/// (division by zero, overflow on `i64::MIN` edge cases, out-of-bounds
/// read) and the caller must re-run the range on the batched tier, which
/// reproduces the exact error or panic.
pub type NativeEntryFn = unsafe extern "C" fn(
    start: i64,
    end: i64,
    si: *const i64,
    sf: *const f64,
    sb: *const u8,
    arrs: *const NativeArr,
    outs: *mut NativeGenOut,
) -> i32;

/// A loaded native kernel: the shared object stays mapped for as long as
/// the owning kernel lives in the cache; dropping it unmaps the library and
/// removes the temporary artifacts.
#[derive(Debug)]
pub struct NativeLib {
    handle: *mut c_void,
    entry: NativeEntryFn,
    dir: PathBuf,
}

// The handle is only used for dlclose at drop; the entry is an immutable
// function pointer into a mapping that lives as long as `self`.
unsafe impl Send for NativeLib {}
unsafe impl Sync for NativeLib {}

impl NativeLib {
    /// The loaded entry point.
    pub fn entry(&self) -> NativeEntryFn {
        self.entry
    }
}

impl Drop for NativeLib {
    fn drop(&mut self) {
        #[cfg(unix)]
        unsafe {
            dl::dlclose(self.handle);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Locate a usable C/C++ compiler: `DMLL_CXX` wins when set, then the
/// conventional driver names are searched on `PATH`.
pub fn find_compiler() -> Option<PathBuf> {
    if let Ok(cxx) = std::env::var("DMLL_CXX") {
        if !cxx.is_empty() {
            let p = PathBuf::from(&cxx);
            if is_executable(&p) {
                return Some(p);
            }
            if let Some(p) = which(&cxx) {
                return Some(p);
            }
        }
    }
    ["c++", "g++", "clang++", "cc", "gcc"].iter().find_map(|c| which(c))
}

fn which(name: &str) -> Option<PathBuf> {
    let path = std::env::var_os("PATH")?;
    std::env::split_paths(&path)
        .map(|d| d.join(name))
        .find(|p| is_executable(p))
}

#[cfg(unix)]
fn is_executable(p: &Path) -> bool {
    use std::os::unix::fs::PermissionsExt;
    std::fs::metadata(p).is_ok_and(|m| m.is_file() && m.permissions().mode() & 0o111 != 0)
}

#[cfg(not(unix))]
fn is_executable(p: &Path) -> bool {
    std::fs::metadata(p).is_ok_and(|m| m.is_file())
}

/// Compile `source` to a shared object and resolve `entry_name` in it.
///
/// The flags pin semantics, not speed tricks: `-ffp-contract=off` forbids
/// fused multiply-add (which would change float bit patterns vs the
/// interpreter) and there is deliberately no `-ffast-math`.
///
/// The source is compiled as C++ (for `extern "C"` and `bool`) but uses no
/// C++ runtime, so it is linked with `-nostdlib -lm -lc`: no libstdc++,
/// libgcc_s or crt start-up objects, only the two libraries a kernel can
/// reference — libm for `sqrt`'s `errno` slow path and `floor`/`ceil`,
/// libc for the `memset`/`memcpy` the compiler may emit for a fill or copy
/// loop. `dlopen` with `RTLD_NOW` then resolves every symbol up front, so
/// a kernel needing anything else fails to load here, typed, instead of
/// at call time.
///
/// # Errors
///
/// Typed [`NativeIneligible`] for every failure mode; never panics on bad
/// toolchains.
pub fn compile_and_load(source: &str, entry_name: &str) -> Result<NativeLib, NativeIneligible> {
    #[cfg(not(unix))]
    {
        let _ = (source, entry_name);
        Err(NativeIneligible::UnsupportedPlatform)
    }
    #[cfg(unix)]
    {
        compile_and_load_unix(source, entry_name)
    }
}

#[cfg(unix)]
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

#[cfg(unix)]
fn compile_and_load_unix(source: &str, entry_name: &str) -> Result<NativeLib, NativeIneligible> {
    let compiler = find_compiler().ok_or(NativeIneligible::CompilerUnavailable)?;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dmll-native-{}-{id}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)
        .map_err(|e| NativeIneligible::CompileFailed(format!("mkdir: {e}")))?;
    let src = dir.join("kernel.cpp");
    let so = dir.join("kernel.so");
    if let Err(e) = std::fs::write(&src, source) {
        let _ = std::fs::remove_dir_all(&dir);
        return Err(NativeIneligible::CompileFailed(format!("write source: {e}")));
    }
    let out = Command::new(&compiler)
        .args(["-O2", "-fPIC", "-shared", "-nostdlib", "-x", "c++", "-ffp-contract=off"])
        .arg(&src)
        .arg("-o")
        .arg(&so)
        .args(["-lm", "-lc"])
        .output();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(NativeIneligible::CompileFailed(format!(
                "spawn {}: {e}",
                compiler.display()
            )));
        }
    };
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let brief: String = stderr.chars().take(500).collect();
        let _ = std::fs::remove_dir_all(&dir);
        return Err(NativeIneligible::CompileFailed(brief));
    }
    match load_entry(&so, entry_name) {
        Ok((handle, entry)) => Ok(NativeLib { handle, entry, dir }),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

#[cfg(unix)]
fn load_entry(so: &Path, entry_name: &str) -> Result<(*mut c_void, NativeEntryFn), NativeIneligible> {
    use std::os::unix::ffi::OsStrExt;
    let c_path = CString::new(so.as_os_str().as_bytes())
        .map_err(|_| NativeIneligible::LoadFailed("path contains NUL".into()))?;
    let c_entry = CString::new(entry_name)
        .map_err(|_| NativeIneligible::LoadFailed("entry name contains NUL".into()))?;
    unsafe {
        let handle = dl::dlopen(c_path.as_ptr(), dl::RTLD_NOW);
        if handle.is_null() {
            return Err(NativeIneligible::LoadFailed(dl::error_string()));
        }
        let sym = dl::dlsym(handle, c_entry.as_ptr());
        if sym.is_null() {
            let msg = dl::error_string();
            dl::dlclose(handle);
            return Err(NativeIneligible::LoadFailed(msg));
        }
        let entry: NativeEntryFn = std::mem::transmute::<*mut c_void, NativeEntryFn>(sym);
        Ok((handle, entry))
    }
}

/// Raw `libdl` bindings — the functions live in libc on modern unix, so no
/// extra crate or link flag is needed.
#[cfg(unix)]
mod dl {
    use std::ffi::c_void;
    use std::os::raw::{c_char, c_int};

    pub const RTLD_NOW: c_int = 2;

    extern "C" {
        pub fn dlopen(filename: *const c_char, flag: c_int) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlclose(handle: *mut c_void) -> c_int;
        fn dlerror() -> *mut c_char;
    }

    pub fn error_string() -> String {
        unsafe {
            let e = dlerror();
            if e.is_null() {
                "unknown dlopen error".into()
            } else {
                std::ffi::CStr::from_ptr(e).to_string_lossy().into_owned()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIVIAL: &str = r#"
#include <stdint.h>
typedef struct { const void* ptr; int64_t len; } DmllArr;
typedef struct { void* out; int64_t* keys; uint32_t* table; int64_t table_cap;
                 int64_t count; int64_t ival; double fval; uint8_t bval; } DmllGenOut;
extern "C" int32_t dmll_test_entry(int64_t start, int64_t end, const int64_t* si,
    const double* sf, const uint8_t* sb, const DmllArr* arrs, DmllGenOut* outs) {
  (void)si; (void)sf; (void)sb; (void)arrs;
  int64_t acc = 0;
  for (int64_t i = start; i < end; ++i) acc += i;
  outs[0].ival = acc;
  outs[0].count = end - start;
  return 0;
}
"#;

    #[test]
    fn compiles_loads_and_runs_a_trivial_kernel() {
        if find_compiler().is_none() {
            return; // environment without a toolchain: covered by the
                    // expect-no-compiler CI job instead.
        }
        let lib = compile_and_load(TRIVIAL, "dmll_test_entry").expect("compile");
        let mut outs = [NativeGenOut {
            out: std::ptr::null_mut(),
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
                10,
                std::ptr::null(),
                std::ptr::null(),
                std::ptr::null(),
                std::ptr::null(),
                outs.as_mut_ptr(),
            )
        };
        assert_eq!(rc, 0);
        assert_eq!(outs[0].ival, 45);
        assert_eq!(outs[0].count, 10);
    }

    /// Emit the single loop `body` stages over an `f64` input column `x`.
    fn emit_over_x(
        body: impl FnOnce(&mut dmll_frontend::Stage, &dmll_frontend::Val) -> dmll_frontend::Val,
    ) -> String {
        use dmll_core::{Def, LayoutHint, Ty};
        let mut st = dmll_frontend::Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Local);
        let out = body(&mut st, &x);
        let p = st.finish(&out);
        let ml = p
            .body
            .stmts
            .iter()
            .find_map(|s| match &s.def {
                Def::Loop(ml) => Some(ml.clone()),
                _ => None,
            })
            .expect("program has a loop");
        crate::cpp::emit_kernel_entry(&ml, &[(p.inputs[0].sym, NativeVarTy::ArrF64)], "dmll_k")
            .expect("eligible")
    }

    /// Run a one-`Collect` kernel over `data`, returning the collected
    /// column.
    fn run_collect(lib: &NativeLib, data: &[f64]) -> Vec<f64> {
        let arrs = [NativeArr {
            ptr: data.as_ptr().cast(),
            len: data.len() as i64,
        }];
        let mut buf: Vec<f64> = Vec::with_capacity(data.len());
        let mut outs = [NativeGenOut {
            out: buf.as_mut_ptr().cast(),
            keys: std::ptr::null_mut(),
            table: std::ptr::null_mut(),
            table_cap: 0,
            count: 0,
            ival: 0,
            fval: 0.0,
            bval: 0,
        }];
        // SAFETY: the kernel reads `data.len()` elements of `arrs[0]` and
        // writes at most that many into `buf`, whose capacity it is.
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
        assert_eq!(outs[0].count, data.len() as i64);
        // SAFETY: the kernel reported `count` initialised elements, checked
        // just above to be the whole capacity.
        unsafe { buf.set_len(data.len()) };
        buf
    }

    /// The emitted unit must not reach libstdc++: its headers are what a
    /// kernel compile would otherwise spend its time parsing. And with the
    /// bare link, kernels using every lowered libm function, and a fill
    /// loop the compiler may turn into `memset`, must still load with every
    /// symbol resolved.
    #[test]
    fn kernel_unit_is_c_only_and_loads_with_a_bare_link() {
        use dmll_core::MathFn::{Abs, Ceil, Floor, Sqrt};
        use std::io::Write;
        use std::process::Stdio;
        let Some(cxx) = find_compiler() else {
            return;
        };
        let math = emit_over_x(|st, x| {
            st.map(x, |st, e| {
                let a = st.math(Sqrt, e);
                let b = st.math(Abs, e);
                let c = st.math(Floor, e);
                let d = st.math(Ceil, e);
                let ab = st.add(&a, &b);
                let cd = st.add(&c, &d);
                st.add(&ab, &cd)
            })
        });
        for f in ["sqrt", "fabs", "floor", "ceil"] {
            assert!(math.contains(&format!("= {f}(")), "{f} not called:\n{math}");
        }

        let mut child = Command::new(&cxx)
            .args(["-E", "-x", "c++", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn preprocessor");
        child
            .stdin
            .take()
            .expect("stdin")
            .write_all(math.as_bytes())
            .expect("write source");
        let pre = child.wait_with_output().expect("preprocess");
        assert!(pre.status.success(), "{}", String::from_utf8_lossy(&pre.stderr));
        let pre = String::from_utf8_lossy(&pre.stdout);
        assert!(!pre.contains("namespace std"), "the kernel unit parses C++ library headers");

        let data = [4.0, -1.0, -0.0, 2.5, -2.5, f64::NAN, f64::INFINITY, 1e300];
        let lib = compile_and_load(&math, "dmll_k").expect("math kernel loads");
        for (x, got) in data.iter().zip(run_collect(&lib, &data)) {
            let want = (x.sqrt() + x.abs()) + (x.floor() + x.ceil());
            assert_eq!(got.to_bits(), want.to_bits(), "x = {x}");
        }

        let fill = emit_over_x(|st, x| {
            let n = st.len(x);
            st.collect(&n, |st, _i| st.lit_f(0.0))
        });
        let lib = compile_and_load(&fill, "dmll_k").expect("fill kernel loads");
        let data = [1.0; 4096];
        assert!(run_collect(&lib, &data).iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn missing_compiler_is_a_typed_fallback() {
        let saved = std::env::var_os("PATH");
        std::env::set_var("PATH", "");
        std::env::remove_var("DMLL_CXX");
        let got = find_compiler();
        if let Some(p) = saved {
            std::env::set_var("PATH", p);
        }
        assert!(got.is_none());
        assert_eq!(NativeIneligible::CompilerUnavailable.key(), "compiler_unavailable");
    }

    #[test]
    fn compile_failure_reports_stderr() {
        if find_compiler().is_none() {
            return;
        }
        let err = compile_and_load("this is not C++ at all {", "nope").unwrap_err();
        assert_eq!(err.key(), "compile_failed");
    }

    #[test]
    fn fallback_keys_are_stable() {
        for (e, k) in [
            (NativeIneligible::NestedLoop, "nested_loop"),
            (NativeIneligible::BucketCollect, "bucket_collect"),
            (NativeIneligible::UntypedBucketKey, "untyped_bucket_key"),
            (NativeIneligible::NonScalarValue, "non_scalar_value"),
            (NativeIneligible::TranscendentalMath, "transcendental_math"),
            (NativeIneligible::UnsupportedFreeVar, "unsupported_free_var"),
            (NativeIneligible::UnsupportedPlatform, "unsupported_platform"),
            (NativeIneligible::UnsupportedOp("x"), "unsupported_op"),
        ] {
            assert_eq!(e.key(), k);
        }
    }
}
