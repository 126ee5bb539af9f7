/**
 * @file
 * The flattened RTL intermediate representation. A Design is a set of named
 * signals plus a DAG of expressions:
 *
 *  - Input signals are driven by the environment each cycle (the instruction
 *    bus, interrupt lines, data-memory read data, ...).
 *  - Wire signals have a combinational defining expression.
 *  - Register signals have a reset value and a next-state expression that is
 *    latched at each clock edge.
 *  - Output signals are wires flagged as externally observable.
 *
 * Every assignment belongs to a named *process*. Processes are the unit the
 * cone-of-influence analysis treats as "functions" (the analog of the
 * Verilated C++ functions in the paper's Algorithm 1); expression nodes are
 * the analog of LLVM instructions.
 *
 * Expression nodes are immutable and referenced by integer ExprRef; the
 * Design owns the node arena, and every construction appends a node.
 * Sharing structurally equal nodes is the CSE stage of the "compiler
 * optimizations" pipeline the paper's Table V measures (rtl/passes).
 */

#ifndef COPPELIA_RTL_DESIGN_HH
#define COPPELIA_RTL_DESIGN_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtl/value.hh"

namespace coppelia::rtl
{

/** Index of a signal within a Design. */
using SignalId = int;

/** Index of an expression node within a Design. -1 means "none". */
using ExprRef = int;

constexpr ExprRef NoExpr = -1;
constexpr SignalId NoSignal = -1;

/** How a signal is driven. */
enum class SignalKind
{
    Input,    ///< driven by the environment each cycle
    Wire,     ///< combinational, has a defining expression
    Register, ///< sequential, has reset value + next-state expression
};

/** Expression node operators. */
enum class Op : std::uint8_t
{
    Const,   ///< literal value (imm)
    Signal,  ///< current-cycle value of a signal (sig)
    Not,     ///< bitwise complement
    Neg,     ///< two's complement negation
    RedOr,   ///< reduction OR -> 1 bit
    RedAnd,  ///< reduction AND -> 1 bit
    RedXor,  ///< reduction XOR -> 1 bit
    And,
    Or,
    Xor,
    Add,
    Sub,
    Mul,
    Shl,     ///< logical shift left (shift amount = second operand)
    LShr,    ///< logical shift right
    AShr,    ///< arithmetic shift right
    Eq,      ///< equality -> 1 bit
    Ne,
    Ult,     ///< unsigned less-than -> 1 bit
    Ule,
    Slt,     ///< signed less-than -> 1 bit
    Sle,
    Concat,  ///< {a, b}: a forms the high bits
    Extract, ///< bits [hi:lo] of the operand
    ZExt,    ///< zero-extend to `width`
    SExt,    ///< sign-extend to `width`
    Ite,     ///< if-then-else: args = {cond, then, else}
};

/** Human-readable operator name. */
const char *opName(Op op);

/** Number of expression operands an operator takes. */
int opArity(Op op);

/**
 * One immutable expression node. Operands are ExprRefs into the owning
 * Design's arena; `width` is the result width in bits.
 */
struct Expr
{
    Op op = Op::Const;
    int width = 1;
    std::array<ExprRef, 3> args{NoExpr, NoExpr, NoExpr};
    std::uint64_t imm = 0;  ///< Const payload
    SignalId sig = NoSignal; ///< Signal payload
    int hi = 0, lo = 0;      ///< Extract payload

    bool operator==(const Expr &o) const
    {
        return op == o.op && width == o.width && args == o.args &&
               imm == o.imm && sig == o.sig && hi == o.hi && lo == o.lo;
    }
};

/** One named signal. */
struct Signal
{
    std::string name;
    int width = 1;
    SignalKind kind = SignalKind::Wire;
    ExprRef def = NoExpr;      ///< wire: defining expr; reg: next-state expr
    Value resetValue;          ///< registers only
    int process = -1;          ///< process owning the assignment (-1 = none)
    bool output = false;       ///< externally observable
};

/** A named group of assignments; the CoI "function" granularity. */
struct Process
{
    std::string name;
    std::vector<SignalId> assigns; ///< signals assigned in this process
};

/**
 * A flattened hardware design: signal table + expression arena + processes.
 */
class Design
{
  public:
    explicit Design(std::string name = "top") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    // --- signal management -------------------------------------------------

    /** Declare an input signal. */
    SignalId addInput(const std::string &name, int width);

    /** Declare a wire; its defining expression is set later via defineWire. */
    SignalId addWire(const std::string &name, int width);

    /** Declare a register with a reset value. */
    SignalId addRegister(const std::string &name, int width,
                         std::uint64_t reset_bits = 0);

    /** Attach the defining expression of a wire. */
    void defineWire(SignalId sig, ExprRef def);

    /** Attach the next-state expression of a register. */
    void defineNext(SignalId sig, ExprRef next);

    /** Mark a signal externally observable (a module output). */
    void markOutput(SignalId sig);

    /** Find a signal by name; returns NoSignal if absent. */
    SignalId findSignal(const std::string &name) const;

    /** Find a signal by name; fatal error if absent. */
    SignalId signalIdOf(const std::string &name) const;

    const Signal &signal(SignalId id) const { return signals_.at(id); }
    Signal &signal(SignalId id) { return signals_.at(id); }
    int numSignals() const { return static_cast<int>(signals_.size()); }

    // --- process management ------------------------------------------------

    /** Begin attributing subsequent assignments to the named process. */
    void beginProcess(const std::string &name);

    /** Stop attributing assignments to any process. */
    void endProcess() { currentProcess_ = -1; }

    const std::vector<Process> &processes() const { return processes_; }
    int numProcesses() const { return static_cast<int>(processes_.size()); }

    // --- expression construction -------------------------------------------

    ExprRef constant(int width, std::uint64_t bits);
    ExprRef constant(const Value &v) { return constant(v.width(), v.bits()); }
    ExprRef signalExpr(SignalId sig);
    ExprRef unary(Op op, ExprRef a);
    ExprRef binary(Op op, ExprRef a, ExprRef b);
    ExprRef ite(ExprRef cond, ExprRef then_e, ExprRef else_e);
    ExprRef extract(ExprRef a, int hi, int lo);
    ExprRef zext(ExprRef a, int width);
    ExprRef sext(ExprRef a, int width);
    ExprRef concat(ExprRef hi_part, ExprRef lo_part);

    const Expr &expr(ExprRef ref) const { return exprs_.at(ref); }
    int numExprs() const { return static_cast<int>(exprs_.size()); }

    /**
     * Mark an Ite node as a *control branch*. The symbolic executor forks
     * execution at branch nodes (the analog of KLEE forking at `br`
     * instructions in the Verilated C++), while unmarked Ite nodes stay
     * as if-then-else terms (data muxes).
     */
    void markBranch(ExprRef ref);
    bool isBranch(ExprRef ref) const
    {
        return ref >= 0 && ref < static_cast<ExprRef>(branch_.size()) &&
               branch_[ref];
    }

    /** Result width of an expression. */
    int widthOf(ExprRef ref) const { return exprs_.at(ref).width; }

    // --- evaluation and analysis helpers ------------------------------------

    /**
     * Concretely evaluate an expression given a signal valuation.
     * @param env signal values, indexed by SignalId.
     */
    Value eval(ExprRef ref, const std::vector<Value> &env) const;

    /**
     * Wires sorted so every wire appears after the wires its definition
     * reads. Fatal error on a combinational cycle. The order is computed
     * lazily and cached; structural edits invalidate the cache.
     */
    const std::vector<SignalId> &topoWires() const;

    /** Signals read (transitively) by an expression. */
    void collectSignals(ExprRef ref, std::vector<bool> &seen_sig) const;

    /** Render an expression as an S-expression (debugging aid). */
    std::string exprToString(ExprRef ref) const;

    /** Deep-copy everything from @p other into this (for pass pipelines). */
    void copyFrom(const Design &other);

  private:
    ExprRef intern(Expr e);
    void invalidateTopo() { topoValid_ = false; }

    std::string name_;
    std::vector<Signal> signals_;
    std::vector<Expr> exprs_;
    std::vector<Process> processes_;
    std::unordered_map<std::string, SignalId> signalByName_;
    std::unordered_map<std::string, int> processByName_;
    std::vector<bool> branch_; ///< per-expr control-branch flag
    int currentProcess_ = -1;

    mutable std::vector<SignalId> topo_;
    mutable bool topoValid_ = false;
};

} // namespace coppelia::rtl

#endif // COPPELIA_RTL_DESIGN_HH
