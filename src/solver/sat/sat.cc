#include "solver/sat/sat.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace coppelia::sat
{

Solver::Solver() = default;

Var
Solver::newVar()
{
    Var v = numVars();
    assign_.push_back(LBool::Undef);
    savedPhase_.push_back(defaultPhase_);
    varInfo_.push_back(VarInfo{});
    activity_.push_back(0.0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    binWatches_.emplace_back();
    binWatches_.emplace_back();
    heapPos_.push_back(-1);
    heapInsert(v);
    return v;
}

// --- decision heap ----------------------------------------------------------

void
Solver::siftUp(int i)
{
    Var v = heap_[i];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[v])
            break;
        heap_[i] = heap_[parent];
        heapPos_[heap_[i]] = i;
        i = parent;
    }
    heap_[i] = v;
    heapPos_[v] = i;
}

void
Solver::siftDown(int i)
{
    Var v = heap_[i];
    const int n = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            activity_[heap_[child + 1]] > activity_[heap_[child]])
            ++child;
        if (activity_[heap_[child]] <= activity_[v])
            break;
        heap_[i] = heap_[child];
        heapPos_[heap_[i]] = i;
        i = child;
    }
    heap_[i] = v;
    heapPos_[v] = i;
}

void
Solver::heapInsert(Var v)
{
    if (heapPos_[v] >= 0)
        return;
    heap_.push_back(v);
    heapPos_[v] = static_cast<int>(heap_.size()) - 1;
    siftUp(heapPos_[v]);
}

void
Solver::heapUpdate(Var v)
{
    if (heapPos_[v] >= 0)
        siftUp(heapPos_[v]);
}

void
Solver::resetDecisionState()
{
    varInc_ = 1.0;
    std::fill(activity_.begin(), activity_.end(), 0.0);
    std::fill(savedPhase_.begin(), savedPhase_.end(), defaultPhase_);
    heap_.clear();
    std::fill(heapPos_.begin(), heapPos_.end(), -1);
    // Rebuild in index order: with all activities equal, the heap then
    // serves variables in the same relative order a fresh solver's would.
    // Equal activities never sift, so index order is already a valid heap
    // and the variables are appended directly.
    for (Var v = 0; v < numVars(); ++v) {
        if (assign_[v] == LBool::Undef) {
            heapPos_[v] = static_cast<int>(heap_.size());
            heap_.push_back(v);
        }
    }
}

Var
Solver::heapPop()
{
    Var top = heap_[0];
    heapPos_[top] = -1;
    Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heapPos_[last] = 0;
        siftDown(0);
    }
    return top;
}

// --- clause management -------------------------------------------------------

void
Solver::attachClause(ClauseRef cref)
{
    const Clause &c = clauses_[cref];
    if (minimize_ && c.lits.size() == 2) {
        // Binary clauses live in their own watcher lists: the watcher
        // itself carries the implied literal, so propagation over them
        // never touches the clause database. The fast path is part of
        // the minimization switch (setMinimizeLearnts): with it off,
        // binaries go to the regular lists so the baseline propagation
        // order — and witness stream — is preserved exactly.
        binWatches_[(~c.lits[0]).code()].push_back({c.lits[1], cref});
        binWatches_[(~c.lits[1]).code()].push_back({c.lits[0], cref});
        return;
    }
    watches_[(~c.lits[0]).code()].push_back({cref, c.lits[1]});
    watches_[(~c.lits[1]).code()].push_back({cref, c.lits[0]});
}

bool
Solver::addClause(std::vector<Lit> lits)
{
    if (!ok_)
        return false;
    if (decisionLevel() != 0)
        panic("addClause above decision level 0");

    // Simplify: drop duplicate/false literals; detect tautologies.
    std::sort(lits.begin(), lits.end(),
              [](Lit a, Lit b) { return a.code() < b.code(); });
    std::vector<Lit> out;
    Lit prev = Lit::undef();
    for (Lit l : lits) {
        if (value(l) == LBool::True || (!prev.isUndef() && l == ~prev))
            return true; // satisfied or tautological
        if (value(l) == LBool::False || l == prev)
            continue;
        out.push_back(l);
        prev = l;
    }

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], NoClause);
        ok_ = propagate() == NoClause;
        return ok_;
    }
    Clause c;
    c.lits = std::move(out);
    clauses_.push_back(std::move(c));
    ++liveProblemClauses_;
    attachClause(static_cast<ClauseRef>(clauses_.size()) - 1);
    return true;
}

void
Solver::rebuildWatches()
{
    for (auto &ws : watches_)
        ws.clear();
    for (auto &ws : binWatches_)
        ws.clear();
    for (ClauseRef cref = 0;
         cref < static_cast<ClauseRef>(clauses_.size()); ++cref) {
        if (!clauses_[cref].lits.empty())
            attachClause(cref);
    }
    qhead_ = 0;
}

// --- propagation -------------------------------------------------------------

void
Solver::enqueue(Lit p, ClauseRef from)
{
    assign_[p.var()] = p.sign() ? LBool::False : LBool::True;
    varInfo_[p.var()].reason = from;
    varInfo_[p.var()].level = decisionLevel();
    trail_.push_back(p);
}

Solver::ClauseRef
Solver::propagate()
{
    ClauseRef confl = NoClause;
    // The stats map is string-keyed, so dequeued literals are counted
    // locally and added once per call rather than once per literal.
    std::uint64_t dequeued = 0;
    while (qhead_ < trail_.size()) {
        Lit p = trail_[qhead_++];
        ++dequeued;

        // Binary fast path: the watcher carries the implied literal, so
        // no clause memory is touched unless we enqueue or conflict.
        for (const BinWatcher &bw : binWatches_[p.code()]) {
            const LBool v = value(bw.other);
            if (v == LBool::True)
                continue;
            if (v == LBool::False) {
                confl = bw.cref;
                qhead_ = trail_.size();
                break;
            }
            // The implied literal must be lits[0]: conflict analysis and
            // redundancy checks iterate reason clauses from index 1.
            Clause &c = clauses_[bw.cref];
            if (c.lits[0] != bw.other)
                std::swap(c.lits[0], c.lits[1]);
            enqueue(bw.other, bw.cref);
        }
        if (confl != NoClause)
            break;

        std::vector<Watcher> &ws = watches_[p.code()];
        std::size_t i = 0, j = 0;
        while (i < ws.size()) {
            Watcher w = ws[i];
            if (value(w.blocker) == LBool::True) {
                ws[j++] = ws[i++];
                continue;
            }
            Clause &c = clauses_[w.cref];
            // Ensure the false literal is lits[1].
            const Lit false_lit = ~p;
            if (c.lits[0] == false_lit)
                std::swap(c.lits[0], c.lits[1]);
            ++i;

            const Lit first = c.lits[0];
            if (first != w.blocker && value(first) == LBool::True) {
                ws[j++] = {w.cref, first};
                continue;
            }

            // Look for a new literal to watch.
            bool found = false;
            for (std::size_t k = 2; k < c.lits.size(); ++k) {
                if (value(c.lits[k]) != LBool::False) {
                    std::swap(c.lits[1], c.lits[k]);
                    watches_[(~c.lits[1]).code()].push_back({w.cref, first});
                    found = true;
                    break;
                }
            }
            if (found)
                continue;

            // Clause is unit or conflicting.
            ws[j++] = {w.cref, first};
            if (value(first) == LBool::False) {
                confl = w.cref;
                qhead_ = trail_.size();
                while (i < ws.size())
                    ws[j++] = ws[i++];
                break;
            }
            enqueue(first, w.cref);
        }
        ws.resize(j);
        if (confl != NoClause)
            break;
    }
    if (dequeued != 0)
        stats_.inc("propagations", dequeued);
    return confl;
}

// --- conflict analysis --------------------------------------------------------

void
Solver::bumpVar(Var v)
{
    activity_[v] += varInc_;
    if (activity_[v] > 1e100) {
        for (double &a : activity_)
            a *= 1e-100;
        varInc_ *= 1e-100;
    }
    heapUpdate(v);
}

void
Solver::bumpClause(Clause &c)
{
    c.activity += claInc_;
    if (c.activity > 1e20) {
        for (ClauseRef cr : learnts_)
            clauses_[cr].activity *= 1e-20;
        claInc_ *= 1e-20;
    }
}

void
Solver::analyze(ClauseRef confl, std::vector<Lit> &out_learnt,
                int &out_btlevel)
{
    out_learnt.clear();
    out_learnt.push_back(Lit::undef()); // slot for the asserting literal

    int counter = 0;
    Lit p = Lit::undef();
    std::size_t index = trail_.size();

    do {
        Clause &c = clauses_[confl];
        if (c.learned)
            bumpClause(c);
        const std::size_t start = p.isUndef() ? 0 : 1;
        for (std::size_t k = start; k < c.lits.size(); ++k) {
            Lit q = c.lits[k];
            if (!seen_[q.var()] && varInfo_[q.var()].level > 0) {
                seen_[q.var()] = 1;
                analyzeToClear_.push_back(q);
                bumpVar(q.var());
                if (varInfo_[q.var()].level >= decisionLevel()) {
                    ++counter;
                } else {
                    out_learnt.push_back(q);
                }
            }
        }
        // Select next literal on the trail to resolve on.
        while (!seen_[trail_[index - 1].var()])
            --index;
        p = trail_[--index];
        confl = varInfo_[p.var()].reason;
        seen_[p.var()] = 0;
        --counter;
    } while (counter > 0);
    out_learnt[0] = ~p;

    if (minimize_ && out_learnt.size() > 1) {
        // Recursive (MiniSat-style) minimization: a literal is redundant
        // when its reason-implication cone is contained in the rest of
        // the clause, checked with the abstract-level filter for fast
        // refutation. seen_ marks survive across checks (and are all
        // tracked in analyzeToClear_), so later literals reuse earlier
        // successful derivations.
        std::uint32_t abstract_levels = 0;
        for (std::size_t i = 1; i < out_learnt.size(); ++i)
            abstract_levels |= abstractLevel(out_learnt[i].var());
        std::size_t j = 1;
        for (std::size_t i = 1; i < out_learnt.size(); ++i) {
            const Lit l = out_learnt[i];
            if (varInfo_[l.var()].reason == NoClause ||
                !litRedundant(l, abstract_levels))
                out_learnt[j++] = l;
        }
        stats_.inc("learnt_lits_saved", out_learnt.size() - j);
        out_learnt.resize(j);
    }

    // Minimal backtrack level: second-highest level in the learnt clause.
    out_btlevel = 0;
    if (out_learnt.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < out_learnt.size(); ++i) {
            if (varInfo_[out_learnt[i].var()].level >
                varInfo_[out_learnt[max_i].var()].level)
                max_i = i;
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = varInfo_[out_learnt[1].var()].level;
    }

    for (Lit l : analyzeToClear_)
        seen_[l.var()] = 0;
    analyzeToClear_.clear();
}

bool
Solver::litRedundant(Lit p, std::uint32_t abstract_levels)
{
    // Depth-first walk of p's implication cone. Every antecedent must be
    // either already marked (in the learnt clause or proven redundant) or
    // itself reason-implied within the clause's decision levels. On
    // failure, roll back only the marks made by this call.
    const std::size_t rollback = analyzeToClear_.size();
    analyzeStack_.clear();
    analyzeStack_.push_back(p);
    while (!analyzeStack_.empty()) {
        const Lit q = analyzeStack_.back();
        analyzeStack_.pop_back();
        const Clause &c = clauses_[varInfo_[q.var()].reason];
        for (std::size_t k = 1; k < c.lits.size(); ++k) {
            const Lit l = c.lits[k];
            const Var v = l.var();
            if (seen_[v] || varInfo_[v].level == 0)
                continue;
            if (varInfo_[v].reason != NoClause &&
                (abstractLevel(v) & abstract_levels) != 0) {
                seen_[v] = 1;
                analyzeToClear_.push_back(l);
                analyzeStack_.push_back(l);
                continue;
            }
            for (std::size_t t = rollback; t < analyzeToClear_.size(); ++t)
                seen_[analyzeToClear_[t].var()] = 0;
            analyzeToClear_.resize(rollback);
            return false;
        }
    }
    return true;
}

void
Solver::analyzeFinal(Lit p)
{
    conflictCore_.clear();
    conflictCore_.push_back(p);
    if (decisionLevel() == 0)
        return;
    seen_[p.var()] = 1;
    for (std::size_t i = trail_.size();
         i-- > static_cast<std::size_t>(trailLim_[0]);) {
        Var v = trail_[i].var();
        if (!seen_[v])
            continue;
        if (varInfo_[v].reason == NoClause) {
            if (varInfo_[v].level > 0)
                conflictCore_.push_back(~trail_[i]);
        } else {
            const Clause &c = clauses_[varInfo_[v].reason];
            for (std::size_t k = 1; k < c.lits.size(); ++k) {
                if (varInfo_[c.lits[k].var()].level > 0)
                    seen_[c.lits[k].var()] = 1;
            }
        }
        seen_[v] = 0;
    }
    seen_[p.var()] = 0;
}

void
Solver::cancelUntil(int level)
{
    if (decisionLevel() <= level)
        return;
    for (std::size_t i = trail_.size();
         i-- > static_cast<std::size_t>(trailLim_[level]);) {
        Var v = trail_[i].var();
        savedPhase_[v] = assign_[v];
        assign_[v] = LBool::Undef;
        varInfo_[v].reason = NoClause;
        heapInsert(v);
    }
    trail_.resize(trailLim_[level]);
    trailLim_.resize(level);
    qhead_ = trail_.size();
}

Lit
Solver::pickBranchLit()
{
    while (!heap_.empty()) {
        Var v = heap_[0];
        if (assign_[v] == LBool::Undef) {
            heapPop();
            bool phase = savedPhase_[v] == LBool::True;
            return Lit(v, !phase);
        }
        heapPop();
    }
    return Lit::undef();
}

void
Solver::reduceDB()
{
    // Remove the less active half of learned clauses (keeping binary
    // clauses and current reasons).
    std::vector<ClauseRef> sorted = learnts_;
    std::sort(sorted.begin(), sorted.end(), [this](ClauseRef a, ClauseRef b) {
        return clauses_[a].activity < clauses_[b].activity;
    });

    std::vector<char> drop(clauses_.size(), 0);
    std::size_t limit = sorted.size() / 2;
    std::vector<char> isReason(clauses_.size(), 0);
    for (const Lit &l : trail_) {
        ClauseRef r = varInfo_[l.var()].reason;
        if (r != NoClause)
            isReason[r] = 1;
    }
    for (std::size_t i = 0; i < limit; ++i) {
        ClauseRef cr = sorted[i];
        if (clauses_[cr].lits.size() > 2 && !isReason[cr])
            drop[cr] = 1;
    }

    // Detach dropped clauses from the watch lists.
    for (auto &ws : watches_) {
        std::size_t j = 0;
        for (std::size_t i = 0; i < ws.size(); ++i) {
            if (!drop[ws[i].cref])
                ws[j++] = ws[i];
        }
        ws.resize(j);
    }
    std::vector<ClauseRef> kept;
    for (ClauseRef cr : learnts_) {
        if (!drop[cr]) {
            kept.push_back(cr);
        } else {
            clauses_[cr].lits.clear();
            stats_.inc("clauses_deleted");
        }
    }
    learnts_ = std::move(kept);
}

void
Solver::cloneInto(Solver &dst) const
{
    if (decisionLevel() != 0)
        panic("cloneInto above decision level 0");
    if (dst.numVars() != 0 || dst.numClauses() != 0)
        panic("cloneInto target is not fresh");
    for (Var v = 0; v < numVars(); ++v)
        dst.newVar();
    if (!ok_) {
        dst.ok_ = false;
        return;
    }
    // Root units first: addClause then simplifies every copied clause
    // against them, so the clone starts root-reduced but equisatisfiable
    // with identical variable numbering.
    for (Lit u : trail_) {
        if (!dst.addUnit(u))
            return;
    }
    for (const Clause &c : clauses_) {
        if (c.lits.empty())
            continue; // dead (reduced away)
        if (!dst.addClause(c.lits))
            return;
    }
}

bool
Solver::drainImports()
{
    if (!hasImports_.load(std::memory_order_acquire))
        return ok_;
    std::vector<std::vector<Lit>> pending;
    {
        std::lock_guard<std::mutex> g(importMu_);
        pending.swap(importQueue_);
        hasImports_.store(false, std::memory_order_release);
    }
    for (auto &lits : pending) {
        ++importedClauses_;
        stats_.inc("clauses_imported");
        if (!addClause(std::move(lits)))
            return false;
    }
    return true;
}

std::int64_t
Solver::luby(std::int64_t i)
{
    // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    std::int64_t k = 1;
    while ((1ll << (k + 1)) <= i + 1)
        ++k;
    while ((1ll << k) - 1 != i + 1) {
        i = i - (1ll << k) + 1;
        k = 1;
        while ((1ll << (k + 1)) <= i + 1)
            ++k;
    }
    return 1ll << (k - 1);
}

SatResult
Solver::solve(const std::vector<Lit> &assumptions,
              std::int64_t conflict_budget)
{
    if (!ok_)
        return SatResult::Unsat;
    conflictCore_.clear();

    std::int64_t conflicts_total = 0;
    std::int64_t restart_num = 0;

    while (true) {
        const std::int64_t restart_limit = restartBase_ * luby(restart_num++);
        std::int64_t conflicts_here = 0;

        cancelUntil(0);
        // Restart boundary: the solver is at level 0, the one place
        // addClause is legal — drain clauses shared by portfolio peers.
        if (!drainImports())
            return SatResult::Unsat;

        while (true) {
            ClauseRef confl = propagate();
            if (confl != NoClause) {
                ++conflicts_here;
                ++conflicts_total;
                stats_.inc("conflicts");
                if (stop_ && stop_->load(std::memory_order_relaxed)) {
                    cancelUntil(0);
                    return SatResult::Unknown;
                }
                if (decisionLevel() == 0) {
                    ok_ = false;
                    return SatResult::Unsat;
                }
                std::vector<Lit> learnt;
                int btlevel = 0;
                analyze(confl, learnt, btlevel);
                if (learntSink_ && learnt.size() <= learntSinkMaxLits_) {
                    stats_.inc("clauses_exported");
                    learntSink_(learnt);
                }
                // Never backtrack past the assumptions.
                cancelUntil(btlevel);
                if (learnt.size() == 1) {
                    if (decisionLevel() > 0)
                        cancelUntil(0);
                    if (value(learnt[0]) == LBool::False) {
                        ok_ = false;
                        return SatResult::Unsat;
                    }
                    if (value(learnt[0]) == LBool::Undef)
                        enqueue(learnt[0], NoClause);
                    // Assumption literals must be re-established; restart
                    // the outer decision loop.
                    break;
                }
                Clause c;
                c.lits = std::move(learnt);
                c.learned = true;
                clauses_.push_back(std::move(c));
                ClauseRef cref = static_cast<ClauseRef>(clauses_.size()) - 1;
                learnts_.push_back(cref);
                attachClause(cref);
                bumpClause(clauses_[cref]);
                enqueue(clauses_[cref].lits[0], cref);
                decayVarActivity();
                claInc_ *= 1.001;

                if (conflict_budget >= 0 &&
                    conflicts_total >= conflict_budget) {
                    cancelUntil(0);
                    return SatResult::Unknown;
                }
                if (conflicts_here >= restart_limit) {
                    stats_.inc("restarts");
                    break; // restart
                }
                if (learnts_.size() >
                    static_cast<std::size_t>(
                        static_cast<double>(liveProblemClauses_ +
                                            learnts_.size()) *
                        reduceDbFactor_) +
                        reduceDbMargin_ + trail_.size())
                    reduceDB();
                continue;
            }

            // No conflict: extend assumptions, then decide.
            if (decisionLevel() < static_cast<int>(assumptions.size())) {
                Lit a = assumptions[decisionLevel()];
                if (value(a) == LBool::True) {
                    // Already implied; open an empty decision level so the
                    // assumption indexing stays aligned.
                    trailLim_.push_back(static_cast<int>(trail_.size()));
                    continue;
                }
                if (value(a) == LBool::False) {
                    analyzeFinal(~a);
                    cancelUntil(0);
                    return SatResult::Unsat;
                }
                stats_.inc("assumption_decisions");
                trailLim_.push_back(static_cast<int>(trail_.size()));
                enqueue(a, NoClause);
                continue;
            }

            if (stop_ && stop_->load(std::memory_order_relaxed)) {
                cancelUntil(0);
                return SatResult::Unknown;
            }
            Lit next = pickBranchLit();
            if (next.isUndef())
                return SatResult::Sat; // all variables assigned
            stats_.inc("decisions");
            trailLim_.push_back(static_cast<int>(trail_.size()));
            enqueue(next, NoClause);
        }
    }
}

} // namespace coppelia::sat
