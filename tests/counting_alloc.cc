#include "counting_alloc.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

std::uint64_t
coppelia::allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

// GCC pairs call sites' new[]/delete[] with these malloc-backed
// replacements across inlining and then flags the free() as mismatched;
// the pairing is consistent by construction (every form routes through
// malloc/free).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
