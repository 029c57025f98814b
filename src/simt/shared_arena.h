// Per-block shared-memory arena.
//
// Models __shared__ / LDS storage: a bump allocator over a fixed-size
// buffer that one thread block holds for its lifetime. Static shared
// variables and the dynamic shared segment both come from here; the
// high-water mark is reported to the occupancy model.
//
// Each OS thread keeps one zeroed buffer between blocks: a block takes
// it at its first shared-memory use and, when it ends, zeroes the bytes
// it used and hands it back, so a block pays for its tile, not for the
// device's whole capacity. A block never moves between OS threads, so
// the spare needs no lock; a block that finds none (a launch nested
// in a kernel, whose outer block holds it) allocates its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace simt {

class SharedArena {
 public:
  /// `capacity` is the device's per-block shared memory limit;
  /// `dynamic_bytes` is the launch's dynamic segment, reserved up front
  /// at the base of the arena (CUDA's extern __shared__ convention).
  SharedArena(std::size_t capacity, std::size_t dynamic_bytes);
  /// Keeps the buffer as its OS thread's spare, with [0, high_water())
  /// zeroed, if that thread has none.
  ~SharedArena();

  SharedArena(const SharedArena&) = delete;
  SharedArena& operator=(const SharedArena&) = delete;

  /// Allocates `bytes` of block-shared storage. All threads of the
  /// block must reach the same allocation sequence (they receive the
  /// same pointer — see BlockState::shared_alloc, which funnels every
  /// thread's request through one allocation per call site ordinal).
  /// Throws std::bad_alloc if the block's shared capacity is exceeded.
  void* allocate(std::size_t bytes, std::size_t align = 16);

  /// Base of the dynamic shared segment (size = dynamic_bytes).
  [[nodiscard]] void* dynamic_base() {
    ensure_backing();
    return buf_.data();
  }
  [[nodiscard]] std::size_t dynamic_size() const { return dynamic_bytes_; }

  [[nodiscard]] std::size_t used() const { return offset_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  /// True if `p` points into this arena's storage (ompxsan uses this to
  /// route an instrumented access to the racecheck shadow cells).
  [[nodiscard]] bool contains(const void* p) const {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const auto b = reinterpret_cast<std::uintptr_t>(buf_.data());
    return a >= b && a < b + buf_.size();
  }
  /// Byte offset of `p` from the arena base. Only valid when contains(p).
  [[nodiscard]] std::size_t offset_of(const void* p) const {
    return static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(p) -
                                    reinterpret_cast<std::uintptr_t>(buf_.data()));
  }

 private:
  /// The backing store materializes on first use (allocate /
  /// dynamic_base): a block whose kernel never touches shared memory
  /// pays nothing for the arena. contains() on an untouched arena is
  /// correctly false — no pointer into it can exist yet.
  void ensure_backing() {
    if (buf_.empty() && cap_ != 0) take_backing();
  }
  /// Takes the OS thread's spare (or a new buffer), sized to cap_.
  void take_backing();

  std::size_t cap_;
  std::vector<std::uint8_t> buf_;
  std::size_t dynamic_bytes_;
  std::size_t offset_;
  std::size_t high_water_;
};

}  // namespace simt
