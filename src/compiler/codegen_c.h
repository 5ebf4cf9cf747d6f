// Emits a compiled TriggerProgram as a self-contained C translation unit
// ready for `cc -O2 -shared` — the paper's §7 observation ("essentially a
// small fragment of the programming language C") taken literally and made
// an execution backend (runtime::NativeModule + the compiled-backend seam
// in runtime/compiled_executor.h).
//
// The emission scheme works from the lowered bytecode (compiler/lower.h),
// not the TExpr trees. Every emitted entry point is a *window* function
// (runtime/native_abi.h RdbColStmtFn): one call runs all of a columnar
// window's firings of one statement, reading params straight out of the
// mirrored delta columns (a single firing is a 1-row window) —
//
//  - frame slots become fields of a stack-allocated environment struct
//    (locals, threaded through the loop callbacks);
//  - every KeyTemplate materializes into a fixed-size stack buffer;
//  - the postfix Op array unrolls into straight-line C expressions over
//    RdbNum temporaries (overflow-promoting arithmetic and kind-sensitive
//    comparisons textually mirror util/numeric.h and the interpreter's
//    EvalRhs — same results, no dispatch loop);
//  - view probes and loop enumeration call through the RdbHostApi
//    function-pointer table, and scaled emissions collect in chunks that
//    flush through api->add_span, so the module has no link-time
//    dependencies and views stay host-owned.
//
// Not everything is emitted. Statements touching the lazy domain-
// maintenance machinery (slice enumeration, lazy drivers or probes, lazy
// targets) and statements whose rhs reads their own target view (whose
// firings must each observe the pre-statement state, so they cannot be
// merged into a window) are skipped and keep the interpreter
// (CodegenStmt::emitted false). Everything else is emitted, and a
// per-variant static cost model records a *preference*: loops whose rhs
// is a single load (the strength-reduced grouped join) are flagged
// prefer-interpreter — the interpreter already runs those as
// bind-and-copy loops, and the ABI marshalling per enumerated entry
// usually costs more than the saved dispatch — but the runtime's
// profile-guided selection (runtime/compiled_executor.h) measures both
// backends during warmup and may overturn the static verdict. A
// statement whose grouped rhs folds nothing reuses the plain window
// (grouped_fn == fn).

#ifndef RINGDB_COMPILER_CODEGEN_C_H_
#define RINGDB_COMPILER_CODEGEN_C_H_

#include <string>
#include <vector>

#include "compiler/ir.h"

namespace ringdb {
namespace compiler {

// Emission record for one lowered statement.
struct CodegenStmt {
  bool emitted = false;    // false: interpreter fallback for this statement
  std::string fn;          // window entry point for the plain rhs
                           // (`rdb_t<T>_s<S>_w`)
  std::string grouped_fn;  // window entry point for the grouped rhs
                           // (`..._gw`, or == fn when nothing folds;
                           // empty when the statement is not groupable)
  // Static cost-model verdict per variant (see WorthNative in the .cc):
  // the runtime's profile-guided selection (runtime/compiled_executor.h)
  // overrides it with measured warmup timings.
  bool prefer_native = true;          // plain variant
  bool grouped_prefer_native = true;  // grouped variant
};

struct CodegenModule {
  std::string source;  // the complete C translation unit
  // stmts[t][s] describes program.triggers[t].statements[s].
  std::vector<std::vector<CodegenStmt>> stmts;
  size_t emitted_statements = 0;  // statements with window entry points
};

// Emits the module for `program`, lowering it first if program.lowered is
// unset. Pure function of the program: identical programs produce
// byte-identical source (the .so cache keys on the source hash).
CodegenModule GenerateModule(const TriggerProgram& program);

// Convenience: just the emitted source (docs, golden tests, debugging).
std::string GenerateC(const TriggerProgram& program);

}  // namespace compiler
}  // namespace ringdb

#endif  // RINGDB_COMPILER_CODEGEN_C_H_
