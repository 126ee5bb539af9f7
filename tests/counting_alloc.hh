/**
 * @file
 * A global operator new that counts, for the tests that assert a hot
 * path allocates nothing. Linking counting_alloc.cc into a test binary
 * replaces every form of global operator new/delete in it; storage
 * still comes from malloc/free, so counting is the only change.
 */

#ifndef COPPELIA_TESTS_COUNTING_ALLOC_HH
#define COPPELIA_TESTS_COUNTING_ALLOC_HH

#include <cstdint>

namespace coppelia
{

/** Global operator new calls so far in this process. */
std::uint64_t allocationCount();

} // namespace coppelia

#endif // COPPELIA_TESTS_COUNTING_ALLOC_HH
