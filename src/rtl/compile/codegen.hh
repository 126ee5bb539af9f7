/**
 * @file
 * C++ code generation for the compiled-simulation backend. It prints the
 * interpreter's levelized Schedule (rtl/schedule.hh) — wires in the
 * Design's cached topological order, then a compute-all-then-commit latch
 * pass — as straight-line C++ over the flat `uint64_t` state array the
 * Simulator keeps, indexed by SignalId (every signal is 1..64 bits wide,
 * so one word per signal suffices).
 *
 * The emitted translation unit is self-contained (it includes only
 * <cstdint>) and exposes a tiny extern "C" ABI:
 *
 *     void     coppelia_eval(uint64_t *s);       // settle the wires
 *     void     coppelia_latch_eval(uint64_t *s); // latch, then settle
 *     uint64_t coppelia_num_signals(void);       // sanity check on load
 *     uint64_t coppelia_ir_hash(void);           // stale-object check
 *     uint64_t coppelia_abi_version(void);       // kCodegenAbiVersion
 *
 * Each instruction prints with the interpreter's semantics — masking
 * discipline, the AShr shift>=63 special case, Ite without a re-mask — so
 * the differential test in tests/test_sim_compiled.cc can demand
 * bit-for-bit equality, not just architectural agreement.
 */

#ifndef COPPELIA_RTL_COMPILE_CODEGEN_HH
#define COPPELIA_RTL_COMPILE_CODEGEN_HH

#include <cstdint>
#include <string>

#include "rtl/design.hh"

namespace coppelia::rtl::compile
{

/** Bumped whenever the emitted ABI or scheduling semantics change; part of
 *  the on-disk cache key so stale objects are never dlopen'd. */
constexpr std::uint64_t kCodegenAbiVersion = 2;

/**
 * Stable hash of the semantic content of a design: signal kinds, widths,
 * reset values, defining expressions, and the full expression arena.
 * Names are included (they bind the environment's setInput/peek calls to
 * SignalIds); branch markings are not (they do not affect concrete
 * evaluation). Stable across processes — it keys the on-disk cache.
 */
std::uint64_t designIrHash(const Design &design);

/** Emit the complete C++ translation unit for @p design. */
std::string emitModelSource(const Design &design);

} // namespace coppelia::rtl::compile

#endif // COPPELIA_RTL_COMPILE_CODEGEN_HH
