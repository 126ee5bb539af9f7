#include "rtl/compile/compiled.hh"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "metrics/metrics.hh"
#include "rtl/compile/codegen.hh"
#include "util/logging.hh"

namespace coppelia::rtl::compile
{

namespace fs = std::filesystem;

namespace
{

/** Flags for the generated translation unit. -O1 keeps the (large,
 *  straight-line) model functions fast to build while still collapsing
 *  the redundant masks the emitter writes for safety. */
constexpr const char *kCompileFlags = "-std=c++17 -O1 -fPIC -shared";

struct State
{
    std::mutex mu;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const CompiledModel>>
        memo;                                 ///< keyed by IR hash
    std::unordered_set<std::uint64_t> warned; ///< one warn per design
    CodegenStats stats;
    std::string compiler; ///< resolved command; empty = none found
    bool compilerResolved = false;
};

State &
state()
{
    static State s;
    return s;
}

metrics::Counter *
compilesCounter()
{
    static metrics::Counter *c = metrics::counter(
        "codegen_compiles_total", "compiled-sim external compiler runs");
    return c;
}

metrics::Counter *
diskHitsCounter()
{
    static metrics::Counter *c = metrics::counter(
        "codegen_disk_cache_hits_total",
        "compiled-sim models reused from the on-disk cache");
    return c;
}

metrics::Counter *
failuresCounter()
{
    static metrics::Counter *c = metrics::counter(
        "codegen_failures_total", "compiled-sim compile/load failures");
    return c;
}

std::string
resolveCacheDir()
{
    if (const char *env = std::getenv("COPPELIA_CODEGEN_CACHE");
        env != nullptr && *env != '\0')
        return env;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME");
        xdg != nullptr && *xdg != '\0')
        return std::string(xdg) + "/coppelia/codegen";
    if (const char *home = std::getenv("HOME");
        home != nullptr && *home != '\0')
        return std::string(home) + "/.cache/coppelia/codegen";
    return "/tmp/coppelia-codegen";
}

/** The first candidate that a shell can invoke, memoized. Order:
 *  $COPPELIA_CODEGEN_CXX, the compiler that built this binary, PATH. */
std::string
resolveCompiler()
{
    State &s = state();
    if (s.compilerResolved)
        return s.compiler;
    std::vector<std::string> candidates;
    if (const char *env = std::getenv("COPPELIA_CODEGEN_CXX");
        env != nullptr && *env != '\0')
        candidates.push_back(env);
#ifdef COPPELIA_HOST_CXX
    candidates.push_back(COPPELIA_HOST_CXX);
#endif
    candidates.push_back("c++");
    candidates.push_back("g++");
    candidates.push_back("clang++");
    for (const std::string &c : candidates) {
        const std::string probe =
            "command -v '" + c + "' >/dev/null 2>&1";
        if (std::system(probe.c_str()) == 0) {
            s.compiler = c;
            break;
        }
    }
    s.compilerResolved = true;
    return s.compiler;
}

void
warnOnce(const Design &design, std::uint64_t ir, const std::string &why)
{
    State &s = state();
    if (!s.warned.insert(ir).second)
        return;
    warn("codegen: ", why, "; design '", design.name(),
         "' falls back to the interpreter backend");
}

std::string
hexKey(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
}

/** dlopen @p so and wire up a model; nullptr (with @p err set) on any
 *  missing symbol or metadata mismatch with @p design. */
std::shared_ptr<const CompiledModel>
loadModel(const fs::path &so, const Design &design, std::uint64_t ir,
          std::string &err)
{
    void *handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
        err = std::string("dlopen failed: ") + dlerror();
        return nullptr;
    }
    auto sym = [&](const char *name) { return dlsym(handle, name); };
    using MetaFn = std::uint64_t (*)();
    auto *eval = reinterpret_cast<CompiledModel::StateFn>(sym("coppelia_eval"));
    auto *latch_eval =
        reinterpret_cast<CompiledModel::StateFn>(sym("coppelia_latch_eval"));
    auto *nsig = reinterpret_cast<MetaFn>(sym("coppelia_num_signals"));
    auto *hash = reinterpret_cast<MetaFn>(sym("coppelia_ir_hash"));
    auto *abi = reinterpret_cast<MetaFn>(sym("coppelia_abi_version"));
    if (eval == nullptr || latch_eval == nullptr || nsig == nullptr ||
        hash == nullptr || abi == nullptr) {
        dlclose(handle);
        err = "missing symbol in compiled model";
        return nullptr;
    }
    if (abi() != kCodegenAbiVersion || hash() != ir ||
        nsig() != static_cast<std::uint64_t>(design.numSignals())) {
        dlclose(handle);
        err = "stale compiled model (metadata mismatch)";
        return nullptr;
    }
    return std::make_shared<const CompiledModel>(
        handle, eval, latch_eval, design.numSignals(), ir, so.string());
}

/** Emit source, run the compiler, and atomically install @p so. */
bool
compileModel(const Design &design, const std::string &cxx,
             const fs::path &src, const fs::path &so, std::string &err)
{
    const std::string pid = std::to_string(::getpid());
    const fs::path srcTmp = src.string() + ".tmp." + pid;
    const fs::path soTmp = so.string() + ".tmp." + pid;
    std::error_code ec;
    {
        std::ofstream out(srcTmp);
        if (!out) {
            err = "cannot write " + srcTmp.string();
            return false;
        }
        out << emitModelSource(design);
        if (!out.flush()) {
            err = "short write to " + srcTmp.string();
            fs::remove(srcTmp, ec);
            return false;
        }
    }
    fs::rename(srcTmp, src, ec); // keep the source next to the .so
    const std::string log = so.string() + ".log";
    const std::string cmd = "'" + cxx + "' " + kCompileFlags + " -o '" +
                            soTmp.string() + "' '" + src.string() +
                            "' > '" + log + "' 2>&1";
    compilesCounter()->inc();
    {
        std::lock_guard<std::mutex> lock(state().mu);
        ++state().stats.compilerInvocations;
    }
    if (std::system(cmd.c_str()) != 0) {
        err = "compiler failed (see " + log + ")";
        fs::remove(soTmp, ec);
        return false;
    }
    fs::rename(soTmp, so, ec);
    if (ec) {
        err = "cannot install " + so.string() + ": " + ec.message();
        fs::remove(soTmp, ec);
        return false;
    }
    return true;
}

} // namespace

CompiledModel::~CompiledModel()
{
    if (handle_ != nullptr)
        dlclose(handle_);
}

CodegenStats
codegenStats()
{
    std::lock_guard<std::mutex> lock(state().mu);
    return state().stats;
}

std::string
cacheDir()
{
    return resolveCacheDir();
}

void
clearMemoryCache()
{
    std::lock_guard<std::mutex> lock(state().mu);
    state().memo.clear();
}

std::shared_ptr<const CompiledModel>
getOrCompile(const Design &design)
{
    const std::uint64_t ir = designIrHash(design);
    {
        std::lock_guard<std::mutex> lock(state().mu);
        auto it = state().memo.find(ir);
        if (it != state().memo.end()) {
            ++state().stats.memoryCacheHits;
            return it->second;
        }
    }

    auto fail = [&](const std::string &why) {
        failuresCounter()->inc();
        {
            std::lock_guard<std::mutex> lock(state().mu);
            ++state().stats.failures;
        }
        warnOnce(design, ir, why);
        return nullptr;
    };

    const std::string cxx = resolveCompiler();
    if (cxx.empty())
        return fail("no host C++ compiler found "
                    "(set COPPELIA_CODEGEN_CXX)");

    // The on-disk key folds in everything that affects the object: the IR
    // hash (which already covers the codegen ABI version), the compiler,
    // and the flags.
    std::uint64_t key = ir;
    for (const char *p = kCompileFlags; *p != '\0'; ++p)
        key = (key ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
    for (char c : cxx)
        key = (key ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;

    std::error_code ec;
    const fs::path dir = resolveCacheDir();
    fs::create_directories(dir, ec);
    if (ec)
        return fail("cannot create cache dir " + dir.string() + ": " +
                    ec.message());
    const fs::path so = dir / ("model-" + hexKey(key) + ".so");
    const fs::path src = dir / ("model-" + hexKey(key) + ".cc");

    std::shared_ptr<const CompiledModel> model;
    std::string err;
    if (fs::exists(so, ec)) {
        model = loadModel(so, design, ir, err);
        if (model != nullptr) {
            diskHitsCounter()->inc();
            std::lock_guard<std::mutex> lock(state().mu);
            ++state().stats.diskCacheHits;
        } else {
            fs::remove(so, ec); // stale/corrupt: rebuild below
        }
    }
    if (model == nullptr) {
        inform("codegen: compiling model for '", design.name(), "' (",
               design.numExprs(), " exprs) with ", cxx);
        if (!compileModel(design, cxx, src, so, err))
            return fail(err);
        model = loadModel(so, design, ir, err);
        if (model == nullptr)
            return fail(err);
    }

    std::lock_guard<std::mutex> lock(state().mu);
    state().memo.emplace(ir, model);
    return model;
}

bool
backendAvailable()
{
    static const bool available = [] {
        Design probe("codegen-probe");
        const SignalId in = probe.addInput("in", 1);
        const SignalId w = probe.addWire("w", 1);
        const SignalId r = probe.addRegister("r", 1, 0);
        probe.defineWire(w, probe.unary(Op::Not, probe.signalExpr(in)));
        probe.defineNext(r, probe.signalExpr(w));
        return getOrCompile(probe) != nullptr;
    }();
    return available;
}

} // namespace coppelia::rtl::compile
