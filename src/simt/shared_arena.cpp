#include "simt/shared_arena.h"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace simt {

namespace {
/// The calling OS thread's spare backing buffer: all zeroes, or empty
/// while a block of this thread holds it.
thread_local std::vector<std::uint8_t> t_spare;
}  // namespace

SharedArena::SharedArena(std::size_t capacity, std::size_t dynamic_bytes)
    : cap_(capacity), dynamic_bytes_(dynamic_bytes), offset_(dynamic_bytes),
      high_water_(dynamic_bytes) {
  if (dynamic_bytes > capacity)
    throw std::invalid_argument(
        "SharedArena: dynamic shared segment exceeds per-block capacity");
}

SharedArena::~SharedArena() {
  if (buf_.empty() || !t_spare.empty()) return;
  std::fill_n(buf_.begin(), high_water_, 0);
  t_spare.swap(buf_);
}

void SharedArena::take_backing() {
  buf_.swap(t_spare);
  // The spare is zeroed over its size, and growing it zero-fills the
  // rest, so the buffer is all zeroes at any device's capacity.
  buf_.resize(cap_);
}

void* SharedArena::allocate(std::size_t bytes, std::size_t align) {
  if (align == 0 || (align & (align - 1)) != 0)
    throw std::invalid_argument("SharedArena::allocate: bad alignment");
  ensure_backing();
  // Align the *address*, not the offset: the backing buffer itself is
  // only allocator-aligned.
  const auto base = reinterpret_cast<std::uintptr_t>(buf_.data());
  std::size_t off = ((base + offset_ + align - 1) & ~(align - 1)) - base;
  if (off + bytes > buf_.size()) throw std::bad_alloc();
  void* p = buf_.data() + off;
  offset_ = off + bytes;
  if (offset_ > high_water_) high_water_ = offset_;
  return p;
}

}  // namespace simt
