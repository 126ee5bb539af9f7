#include "solver/sat/sat.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace coppelia::sat
{

Solver::Solver() = default;

Var
Solver::newVar()
{
    Var v = numVars();
    litValue_.push_back(LBool::Undef);
    litValue_.push_back(LBool::Undef);
    savedPhase_.push_back(LBool::False);
    varInfo_.push_back(VarInfo{});
    activity_.push_back(0.0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    binWatches_.emplace_back();
    binWatches_.emplace_back();
    heapPos_.push_back(-1);
    decide_.push_back(1);
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
Solver::resetDecisionState(std::span<const VarRange> decide)
{
    // Undo only what can have moved since the last reset: activities of
    // the bumped variables, and the phases and flags of the decision set
    // (a phase is saved for nothing else), then empty the heap.
    varInc_ = 1.0;
    for (Var v : bumped_)
        activity_[v] = 0.0;
    bumped_.clear();
    const auto undecide = [this](Var begin, Var end) {
        std::fill(savedPhase_.begin() + begin, savedPhase_.begin() + end,
                  LBool::False);
        std::fill(decide_.begin() + begin, decide_.begin() + end, 0);
    };
    for (const VarRange &r : decideRanges_)
        undecide(r.begin, r.end);
    undecide(varsAtReset_, numVars());
    for (Var v : heap_)
        heapPos_[v] = -1;
    heap_.clear();

    // Rebuild in index order: with all activities equal, the heap then
    // serves variables in the same relative order a fresh solver's would.
    // Equal activities never sift, so index order is already a valid heap
    // and the variables are appended directly. Ranges sorted by start
    // enumerate their union in index order; a variable two ranges share
    // is taken once.
    decideRanges_.assign(decide.begin(), decide.end());
    std::sort(decideRanges_.begin(), decideRanges_.end(),
              [](const VarRange &a, const VarRange &b) {
                  return a.begin < b.begin;
              });
    for (const VarRange &r : decideRanges_) {
        for (Var v = r.begin; v < r.end; ++v) {
            if (decide_[v])
                continue;
            decide_[v] = 1;
            if (value(v) == LBool::Undef) {
                heapPos_[v] = static_cast<int>(heap_.size());
                heap_.push_back(v);
            }
        }
    }
    varsAtReset_ = numVars();
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

StatGroup
Solver::stats() const
{
    StatGroup g;
    g.set("conflicts", counters_.conflicts);
    g.set("decisions", counters_.decisions);
    g.set("propagations", counters_.propagations);
    g.set("restarts", counters_.restarts);
    g.set("assumption_decisions", counters_.assumptionDecisions);
    g.set("learnt_lits_saved", counters_.learntLitsSaved);
    g.set("clauses_deleted", counters_.clausesDeleted);
    return g;
}

double
Solver::activity(ClauseRef cr) const
{
    double a;
    std::memcpy(&a, &arena_[cr + 1 + clauseSize(cr)], sizeof a);
    return a;
}

void
Solver::setActivity(ClauseRef cr, double a)
{
    std::memcpy(&arena_[cr + 1 + clauseSize(cr)], &a, sizeof a);
}

Solver::ClauseRef
Solver::allocClause(std::span<const Lit> lits, bool learnt)
{
    const std::size_t cr = arena_.size();
    const std::uint32_t hdr = static_cast<std::uint32_t>(lits.size()) << 2 |
                              (learnt ? kLearnt : 0);
    const std::size_t words = clauseWords(hdr);
    if (cr + words >= NoClause)
        panic("SAT clause arena exceeds 2^32 words");
    // A learnt clause's activity starts at 0.0, whose bits are all zero.
    arena_.resize(cr + words, 0);
    arena_[cr] = hdr;
    for (std::size_t k = 0; k < lits.size(); ++k)
        arena_[cr + 1 + k] = static_cast<std::uint32_t>(lits[k].code());
    return static_cast<ClauseRef>(cr);
}

void
Solver::attachClause(ClauseRef cref)
{
    const Lit l0 = lit(cref, 0);
    const Lit l1 = lit(cref, 1);
    if (minimize_ && clauseSize(cref) == 2) {
        // Binary clauses live in their own watcher lists: the watcher
        // itself carries the implied literal, so propagation over them
        // never touches the clause arena. The fast path is part of the
        // minimization switch (setMinimizeLearnts): with it off,
        // binaries go to the regular lists, and propagation visits them
        // in the order a solver without the fast path does.
        binWatches_[(~l0).code()].push_back({l1, cref});
        binWatches_[(~l1).code()].push_back({l0, cref});
        return;
    }
    watches_[(~l0).code()].push_back({cref, l1});
    watches_[(~l1).code()].push_back({cref, l0});
}

bool
Solver::addClause(std::span<const Lit> lits)
{
    if (!ok_)
        return false;
    if (decisionLevel() != 0)
        panic("addClause above decision level 0");

    // Simplify: drop duplicate/false literals; detect tautologies. The
    // kept literals are compacted to the front of the reused buffer.
    addBuffer_.assign(lits.begin(), lits.end());
    std::sort(addBuffer_.begin(), addBuffer_.end(),
              [](Lit a, Lit b) { return a.code() < b.code(); });
    std::size_t kept = 0;
    Lit prev = Lit::undef();
    for (std::size_t i = 0; i < addBuffer_.size(); ++i) {
        const Lit l = addBuffer_[i];
        if (value(l) == LBool::True || (!prev.isUndef() && l == ~prev))
            return true; // satisfied or tautological
        if (value(l) == LBool::False || l == prev)
            continue;
        addBuffer_[kept++] = l;
        prev = l;
    }
    addBuffer_.resize(kept);

    if (addBuffer_.empty()) {
        ok_ = false;
        return false;
    }
    if (addBuffer_.size() == 1) {
        enqueue(addBuffer_[0], NoClause);
        ok_ = propagate() == NoClause;
        return ok_;
    }
    const ClauseRef cref = allocClause(addBuffer_, false);
    ++liveProblemClauses_;
    attachClause(cref);
    return true;
}

void
Solver::rebuildWatches()
{
    for (auto &ws : watches_)
        ws.clear();
    for (auto &ws : binWatches_)
        ws.clear();
    for (std::size_t cr = 0; cr < arena_.size();
         cr += clauseWords(arena_[cr])) {
        if (!(arena_[cr] & kDeleted))
            attachClause(static_cast<ClauseRef>(cr));
    }
    qhead_ = 0;
}

void
Solver::compactArena()
{
    std::vector<std::uint32_t> to;
    to.reserve(arena_.size() - deadWords_);
    for (std::size_t cr = 0; cr < arena_.size();) {
        const std::uint32_t hdr = arena_[cr];
        const std::size_t words = clauseWords(hdr);
        if (!(hdr & kDeleted)) {
            const auto moved = static_cast<std::uint32_t>(to.size());
            to.insert(to.end(), arena_.begin() + cr,
                      arena_.begin() + cr + words);
            // The old copy's first literal slot now forwards to the new
            // offset; only the remapping below reads it.
            arena_[cr + 1] = moved;
        }
        cr += words;
    }
    // Deleted clauses are already off every watch list and out of
    // learnts_, and reduceDB never deletes a reason, so every reference
    // left names a live clause.
    const auto forward = [this](ClauseRef cr) { return arena_[cr + 1]; };
    for (auto &ws : watches_)
        for (Watcher &w : ws)
            w.cref = forward(w.cref);
    for (auto &ws : binWatches_)
        for (BinWatcher &w : ws)
            w.cref = forward(w.cref);
    for (VarInfo &vi : varInfo_)
        if (vi.reason != NoClause)
            vi.reason = forward(vi.reason);
    for (ClauseRef &cr : learnts_)
        cr = forward(cr);
    arena_ = std::move(to);
    deadWords_ = 0;
}

// --- propagation -------------------------------------------------------------

void
Solver::enqueue(Lit p, ClauseRef from)
{
    litValue_[p.code()] = LBool::True;
    litValue_[p.code() ^ 1] = LBool::False;
    varInfo_[p.var()] = {from, decisionLevel()};
    trail_.push_back(p);
}

Solver::ClauseRef
Solver::propagate()
{
    ClauseRef confl = NoClause;
    std::uint64_t dequeued = 0;
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
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
            std::uint32_t *lits = &arena_[bw.cref + 1];
            if (lits[0] != static_cast<std::uint32_t>(bw.other.code()))
                std::swap(lits[0], lits[1]);
            enqueue(bw.other, bw.cref);
        }
        if (confl != NoClause)
            break;

        // Watched clauses, compacted in place: i reads, j writes back the
        // watchers that stay on this list.
        std::vector<Watcher> &ws = watches_[p.code()];
        const auto false_code = static_cast<std::uint32_t>((~p).code());
        Watcher *i = ws.data();
        Watcher *j = i;
        Watcher *const end = i + ws.size();
        while (i != end) {
            const Watcher w = *i;
            if (value(w.blocker) == LBool::True) {
                *j++ = *i++;
                continue;
            }
            const std::uint32_t size = clauseSize(w.cref);
            std::uint32_t *lits = &arena_[w.cref + 1];
            // Ensure the false literal is lits[1].
            if (lits[0] == false_code)
                std::swap(lits[0], lits[1]);
            ++i;

            const Lit first = Lit::fromCode(static_cast<int>(lits[0]));
            if (first != w.blocker && value(first) == LBool::True) {
                *j++ = {w.cref, first};
                continue;
            }

            // Look for a new literal to watch. It is never ~p, so the
            // push below lands on another list than ws.
            bool found = false;
            for (std::uint32_t k = 2; k < size; ++k) {
                if (value(Lit::fromCode(static_cast<int>(lits[k]))) !=
                    LBool::False) {
                    std::swap(lits[1], lits[k]);
                    watches_[lits[1] ^ 1].push_back({w.cref, first});
                    found = true;
                    break;
                }
            }
            if (found)
                continue;

            // Clause is unit or conflicting.
            *j++ = {w.cref, first};
            if (value(first) == LBool::False) {
                confl = w.cref;
                qhead_ = trail_.size();
                while (i != end)
                    *j++ = *i++;
                break;
            }
            enqueue(first, w.cref);
        }
        ws.resize(static_cast<std::size_t>(j - ws.data()));
        if (confl != NoClause)
            break;
    }
    counters_.propagations += dequeued;
    return confl;
}

// --- conflict analysis --------------------------------------------------------

void
Solver::bumpVar(Var v)
{
    if (activity_[v] == 0.0)
        bumped_.push_back(v);
    activity_[v] += varInc_;
    if (activity_[v] > 1e100) {
        for (double &a : activity_)
            a *= 1e-100;
        varInc_ *= 1e-100;
    }
    heapUpdate(v);
}

void
Solver::bumpClause(ClauseRef cr)
{
    const double a = activity(cr) + claInc_;
    setActivity(cr, a);
    if (a > 1e20) {
        for (ClauseRef l : learnts_)
            setActivity(l, activity(l) * 1e-20);
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
        if (isLearnt(confl))
            bumpClause(confl);
        const std::uint32_t size = clauseSize(confl);
        const std::uint32_t start = p.isUndef() ? 0 : 1;
        for (std::uint32_t k = start; k < size; ++k) {
            const Lit q = lit(confl, k);
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
        counters_.learntLitsSaved += out_learnt.size() - j;
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
        const ClauseRef reason = varInfo_[q.var()].reason;
        const std::uint32_t size = clauseSize(reason);
        for (std::uint32_t k = 1; k < size; ++k) {
            const Lit l = lit(reason, k);
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
            const ClauseRef reason = varInfo_[v].reason;
            const std::uint32_t size = clauseSize(reason);
            for (std::uint32_t k = 1; k < size; ++k) {
                const Var u = lit(reason, k).var();
                if (varInfo_[u].level > 0)
                    seen_[u] = 1;
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
        const Lit p = trail_[i];
        const Var v = p.var();
        litValue_[p.code()] = LBool::Undef;
        litValue_[p.code() ^ 1] = LBool::Undef;
        varInfo_[v].reason = NoClause;
        if (decide_[v]) {
            savedPhase_[v] = p.sign() ? LBool::False : LBool::True;
            heapInsert(v);
        }
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
        if (value(v) == LBool::Undef) {
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
    // clauses and current reasons). A clause is a current reason exactly
    // when it implied its first literal, which it keeps at lits[0] for as
    // long as that literal stays assigned.
    std::vector<ClauseRef> sorted = learnts_;
    std::sort(sorted.begin(), sorted.end(), [this](ClauseRef a, ClauseRef b) {
        return activity(a) < activity(b);
    });
    const auto locked = [this](ClauseRef cr) {
        const Lit first = lit(cr, 0);
        return varInfo_[first.var()].reason == cr &&
               value(first) == LBool::True;
    };
    const std::size_t limit = sorted.size() / 2;
    for (std::size_t i = 0; i < limit; ++i) {
        const ClauseRef cr = sorted[i];
        if (clauseSize(cr) > 2 && !locked(cr))
            arena_[cr] |= kDeleted;
    }

    // Detach dropped clauses from the watch lists.
    for (auto &ws : watches_) {
        std::erase_if(ws, [this](const Watcher &w) {
            return (arena_[w.cref] & kDeleted) != 0;
        });
    }
    std::size_t kept = 0;
    for (ClauseRef cr : learnts_) {
        if (!(arena_[cr] & kDeleted)) {
            learnts_[kept++] = cr;
        } else {
            deadWords_ += clauseWords(arena_[cr]);
            ++counters_.clausesDeleted;
        }
    }
    learnts_.resize(kept);
    if (2 * deadWords_ > arena_.size())
        compactArena();
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
        const std::int64_t restart_limit = kRestartBase * luby(restart_num++);
        std::int64_t conflicts_here = 0;

        cancelUntil(0);

        while (true) {
            ClauseRef confl = propagate();
            if (confl != NoClause) {
                ++conflicts_here;
                ++conflicts_total;
                ++counters_.conflicts;
                if (decisionLevel() == 0) {
                    ok_ = false;
                    return SatResult::Unsat;
                }
                int btlevel = 0;
                analyze(confl, learnt_, btlevel);
                // Never backtrack past the assumptions.
                cancelUntil(btlevel);
                if (learnt_.size() == 1) {
                    if (decisionLevel() > 0)
                        cancelUntil(0);
                    if (value(learnt_[0]) == LBool::False) {
                        ok_ = false;
                        return SatResult::Unsat;
                    }
                    if (value(learnt_[0]) == LBool::Undef)
                        enqueue(learnt_[0], NoClause);
                    // Assumption literals must be re-established; restart
                    // the outer decision loop.
                    break;
                }
                const ClauseRef cref = allocClause(learnt_, true);
                learnts_.push_back(cref);
                attachClause(cref);
                bumpClause(cref);
                enqueue(learnt_[0], cref);
                decayVarActivity();
                claInc_ *= 1.001;

                if (conflict_budget >= 0 &&
                    conflicts_total >= conflict_budget) {
                    cancelUntil(0);
                    return SatResult::Unknown;
                }
                if (conflicts_here >= restart_limit) {
                    ++counters_.restarts;
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
                ++counters_.assumptionDecisions;
                trailLim_.push_back(static_cast<int>(trail_.size()));
                enqueue(a, NoClause);
                continue;
            }

            Lit next = pickBranchLit();
            if (next.isUndef())
                return SatResult::Sat; // every decision variable assigned
            ++counters_.decisions;
            trailLim_.push_back(static_cast<int>(trail_.size()));
            enqueue(next, NoClause);
        }
    }
}

} // namespace coppelia::sat
