// Warp state and warp-level collectives (shuffle / ballot / vote / sync).
//
// A warp is a group of `DeviceConfig::warp_size` consecutive threads of
// a block (32 on sim-a100, 64 on sim-mi250). Collectives are modeled as
// a rendezvous: each participating lane deposits its operand and
// suspends; the last arriving lane computes every participant's result
// and releases the warp. This reproduces kernel-language semantics —
// including CUDA's "all lanes named in the mask must reach the
// collective" contract, whose violation the engine turns into a
// diagnosable error instead of a hang.
#pragma once

#include <cstdint>
#include <vector>

namespace simt {

class BlockState;
struct ThreadCtx;

/// Lane masks are 64-bit so a 64-wide AMD wavefront fits.
using LaneMask = std::uint64_t;

enum class WarpOp : std::uint8_t {
  kNone,
  kSync,      ///< warp barrier, no data
  kShflIdx,   ///< read lane `param` (per-lane parameter)
  kShflUp,    ///< read lane - delta
  kShflDown,  ///< read lane + delta
  kShflXor,   ///< read lane ^ lanemask
  kBallot,    ///< bit per lane with nonzero predicate
  kAny,       ///< vote.any
  kAll,       ///< vote.all
  kReduceAdd, ///< __reduce_add_sync (wrapping, int64 payload)
  kReduceMin, ///< __reduce_min_sync (int64 payload)
  kReduceMax, ///< __reduce_max_sync (int64 payload)
};

class WarpState {
 public:
  WarpState(BlockState& block, std::uint32_t warp_id, std::uint32_t width);

  /// Lane `lane` participates in a collective. `value` and `param` are
  /// raw 64-bit lanes of the operand (floating types are bit-cast by
  /// the caller). Blocks (yields) until all lanes in `mask` arrive;
  /// returns this lane's result.
  std::uint64_t collective(ThreadCtx& ctx, WarpOp op, std::uint64_t value,
                           std::uint64_t param, LaneMask mask);

  [[nodiscard]] std::uint32_t width() const { return width_; }
  [[nodiscard]] std::uint32_t warp_id() const { return warp_id_; }
  /// Lanes of this warp that exist (partial last warp of a block).
  [[nodiscard]] LaneMask member_mask() const { return member_mask_; }
  /// Lanes that have not returned from the kernel yet.
  [[nodiscard]] LaneMask live_mask() const { return live_mask_; }
  [[nodiscard]] bool rendezvous_pending() const { return arrived_ != 0; }

  /// Called by the block runner when a lane's kernel body returns.
  /// Throws if the lane is still expected by a pending collective.
  void on_lane_exit(std::uint32_t lane);

 private:
  friend class BlockState;

  void release();  // compute results for all participants, wake waiters

  BlockState& block_;
  std::uint32_t warp_id_;
  std::uint32_t width_;
  LaneMask member_mask_;
  LaneMask live_mask_;

  // Rendezvous state for the in-flight collective (one at a time per warp).
  WarpOp op_ = WarpOp::kNone;
  LaneMask op_mask_ = 0;   ///< participants, fixed by the first arrival
  LaneMask arrived_ = 0;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> param_;
  std::vector<std::uint64_t> result_;
};

}  // namespace simt
