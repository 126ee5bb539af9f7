/**
 * @file
 * Compiled-model loading and caching for the codegen backend. The model
 * for a design is built at most once per *fleet*, not once per process:
 *
 *  - an in-process memo (hash -> shared model) makes repeated Simulator
 *    constructions free, and
 *  - an on-disk cache of shared objects keyed by (IR hash, compiler id,
 *    compile flags, codegen ABI version) makes repeated processes — the
 *    campaign's worker fleet, CI jobs with a cached directory — reuse one
 *    compile. Writes go through a unique temp file + atomic rename, so
 *    concurrent workers racing on the same design are safe.
 *
 * The host toolchain is discovered from $COPPELIA_CODEGEN_CXX, then the
 * compiler that built this binary (baked in by CMake), then c++/g++/clang++
 * on PATH. When nothing works, getOrCompile() returns nullptr after one
 * structured warning per design and the Simulator falls back to the
 * interpreter (campaigns can make that fatal with --require-backend).
 */

#ifndef COPPELIA_RTL_COMPILE_COMPILED_HH
#define COPPELIA_RTL_COMPILE_COMPILED_HH

#include <cstdint>
#include <memory>
#include <string>

#include "rtl/design.hh"

namespace coppelia::rtl::compile
{

/** Process-wide codegen activity, for tests and cache-hit-rate reporting
 *  (also exported as codegen_* metrics). */
struct CodegenStats
{
    std::uint64_t compilerInvocations = 0; ///< external compiler runs
    std::uint64_t diskCacheHits = 0;       ///< .so reused from disk
    std::uint64_t memoryCacheHits = 0;     ///< model reused in-process
    std::uint64_t failures = 0;            ///< compile/load failures
};

CodegenStats codegenStats();

/** A dlopen'd compiled model. Immutable and shareable between Simulators
 *  (the state array is owned by each Simulator, not the model). */
class CompiledModel
{
  public:
    using StateFn = void (*)(std::uint64_t *);

    /** Constructed by getOrCompile() after symbol/metadata validation;
     *  takes ownership of the dlopen handle. */
    CompiledModel(void *handle, StateFn eval, StateFn latch_eval,
                  int num_signals, std::uint64_t ir_hash, std::string path)
        : handle_(handle), eval_(eval), latchEval_(latch_eval),
          numSignals_(num_signals), irHash_(ir_hash), path_(std::move(path))
    {
    }

    ~CompiledModel();
    CompiledModel(const CompiledModel &) = delete;
    CompiledModel &operator=(const CompiledModel &) = delete;

    /** Settle the wires. */
    void eval(std::uint64_t *state) const { eval_(state); }
    /** Latch the registers of a settled state, then settle again. */
    void latchEval(std::uint64_t *state) const { latchEval_(state); }
    int numSignals() const { return numSignals_; }
    std::uint64_t irHash() const { return irHash_; }
    /** Path of the shared object backing this model (diagnostics). */
    const std::string &path() const { return path_; }

  private:
    void *handle_ = nullptr;
    StateFn eval_ = nullptr;
    StateFn latchEval_ = nullptr;
    int numSignals_ = 0;
    std::uint64_t irHash_ = 0;
    std::string path_;
};

/**
 * Get the compiled model for @p design: in-process memo, then the on-disk
 * cache, then codegen + an external compiler run. Returns nullptr when the
 * backend is unavailable (no toolchain, compile failure, dlopen failure),
 * after emitting one warn() per design.
 */
std::shared_ptr<const CompiledModel> getOrCompile(const Design &design);

/**
 * Whether the compiled backend works end to end here. The first call
 * compiles and loads a trivial probe design (result is memoized), so this
 * is an honest probe, not just a `which c++`.
 */
bool backendAvailable();

/** Resolved on-disk cache directory ($COPPELIA_CODEGEN_CACHE, then
 *  $XDG_CACHE_HOME/coppelia/codegen, then ~/.cache/coppelia/codegen,
 *  then /tmp/coppelia-codegen). */
std::string cacheDir();

/** Drop the in-process memo (tests use this to exercise the disk path). */
void clearMemoryCache();

} // namespace coppelia::rtl::compile

#endif // COPPELIA_RTL_COMPILE_COMPILED_HH
