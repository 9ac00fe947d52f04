// Process-wide heap-allocation counter for allocation-free-steady-state
// gates (promoted from bench/bench_round_engine.cpp so the invariant is
// enforced in the main test suite, not just reported by the bench).
//
// Including this header REPLACES the global operator new/delete for the
// whole binary, so include it in exactly ONE translation unit per
// executable — the replacement operators are deliberately non-inline, and
// a second including TU fails to link (which is the guard against
// accidental double inclusion, not a bug).
//
// Usage:
//   const rfid::alloc_guard::Probe probe;
//   ... code under test ...
//   EXPECT_EQ(probe.delta(), 0u);
//
// Counting is a relaxed atomic increment per operator-new call: cheap,
// thread-safe, and precise enough for "must be exactly zero" assertions on
// single-threaded hot loops (the only supported use — a concurrent section
// can only be gated as an aggregate).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace rfid::alloc_guard {

namespace detail {
inline std::atomic<std::uint64_t> g_allocations{0};
}  // namespace detail

/// Total operator-new calls in this process so far.
inline std::uint64_t allocation_count() {
  return detail::g_allocations.load(std::memory_order_relaxed);
}

/// Snapshot of the counter; delta() is the allocations since construction.
class Probe final {
 public:
  Probe() : start_(allocation_count()) {}
  [[nodiscard]] std::uint64_t delta() const {
    return allocation_count() - start_;
  }

 private:
  std::uint64_t start_;
};

}  // namespace rfid::alloc_guard

// --- Global operator new/delete replacement ---------------------------------
//
// Every operator stays out of line. Inlined into a caller, a bare malloc or
// free meets its partner operator there, and gcc 12's
// -Wmismatched-new-delete flags the pair (Release inlines new, the
// sanitizer builds delete).

[[gnu::noinline]] void* operator new(std::size_t size) {
  rfid::alloc_guard::detail::g_allocations.fetch_add(
      1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  rfid::alloc_guard::detail::g_allocations.fetch_add(
      1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t al =
      (static_cast<std::size_t>(align) < sizeof(void*))
          ? sizeof(void*)
          : static_cast<std::size_t>(align);
  if (posix_memalign(&p, al, size == 0 ? 1 : size) != 0)
    throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void* operator new[](std::size_t size,
                                       std::align_val_t align) {
  return ::operator new(size, align);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}
