/**
 * @file
 * Lightweight named statistics counters, used by the solver, the symbolic
 * executor, and the backward engine to report work done (states explored,
 * SAT conflicts, queries, cache hits, ...).
 */

#ifndef COPPELIA_UTIL_STATS_HH
#define COPPELIA_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace coppelia
{

/**
 * A group of named integer counters. Groups are value types; engines expose
 * a StatGroup so callers can snapshot and diff work counts.
 */
class StatGroup
{
  public:
    /** Increment a counter by @p delta (creating it at zero if absent). */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Set a counter to an absolute value. */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters_[name] = value;
    }

    /** Read a counter (zero if never touched). */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Merge another group into this one by summation, each of its
     *  names prefixed with @p prefix (e.g. "solver_"). */
    void
    merge(const StatGroup &other, const std::string &prefix = "")
    {
        for (const auto &[k, v] : other.counters_)
            counters_[prefix + k] += v;
    }

    /** Reset all counters to zero. */
    void clear() { counters_.clear(); }

    /** Access all counters, sorted by name. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** Render as "name=value" lines. */
    std::string toString() const;

  private:
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace coppelia

#endif // COPPELIA_UTIL_STATS_HH
